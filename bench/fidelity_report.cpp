// §2.3's similarity-vs-utility observation, quantified: GAN-based
// generators can score well on *aggregate* distribution similarity —
// "even though the aggregate distribution similarity (or low
// distribution drift) may be high, it does not necessarily translate
// into useful data for classification tasks ... the per-class results
// show a significant 'distribution shift'".
//
// This bench reports, for the GAN baseline and the diffusion pipeline:
//   * per-feature marginal similarity (KS / W1 / JSD) of NetFlow
//     features against real data,
//   * the class-conditional KS (the per-class distribution shift),
//   * the Synthetic/Real micro accuracy from the same synthetic sets,
// so the aggregate-vs-conditional gap is visible in one table.
#include "bench_common.hpp"

#include "eval/fidelity.hpp"
#include "eval/report.hpp"
#include "ml/split.hpp"

using namespace repro;

int main() {
  bench::Scale scale;
  bench::BenchReport report("fidelity_report",
                            "§2.3 similarity-vs-utility analysis (aggregate "
                            "vs per-class distribution shift)");

  report.stage("build_dataset");
  Rng rng(1);
  const flowgen::Dataset real =
      flowgen::build_table1_dataset(scale.flows_per_class, rng);
  std::vector<std::size_t> train_idx, test_idx;
  Rng split_rng(2);
  ml::stratified_split_indices(real.micro_labels(), 0.2, split_rng,
                               train_idx, test_idx);
  std::vector<net::Flow> train_flows, test_flows;
  for (std::size_t i : train_idx) train_flows.push_back(real.flows[i]);
  for (std::size_t i : test_idx) test_flows.push_back(real.flows[i]);
  const auto real_records = gan::to_netflow(train_flows);

  // --- GAN synthetic records. ---
  report.stage("fit_gan");
  gan::NetFlowGan gan_model(bench::gan_config(scale));
  std::printf("training GAN...\n");
  gan_model.fit(real_records);
  const auto gan_records = gan_model.sample(real_records.size());

  // --- Diffusion synthetic flows -> NetFlow records. ---
  report.stage("fit_diffusion");
  diffusion::TraceDiffusion pipeline(bench::pipeline_config(scale),
                                     bench::class_names());
  Rng cap_rng(3);
  flowgen::Dataset train_ds;
  train_ds.flows = train_flows;
  std::printf("fitting diffusion pipeline...\n");
  pipeline.fit(train_ds.sample_per_class(scale.train_per_class, cap_rng));
  const flowgen::Dataset ours = pipeline.generate_dataset(
      std::vector<std::size_t>(flowgen::kNumApps, scale.syn_per_class),
      bench::generate_options(scale), bench::kSynSeed);
  const auto ours_records = gan::to_netflow(ours.flows);

  // --- Per-feature marginal table. ---
  report.stage("fidelity_analysis");
  const auto gan_fid = eval::netflow_fidelity(real_records, gan_records);
  const auto ours_fid = eval::netflow_fidelity(real_records, ours_records);
  std::vector<std::vector<std::string>> rows;
  for (std::size_t f = 0; f < gan_fid.size(); ++f) {
    rows.push_back({gan_fid[f].feature, eval::fmt(gan_fid[f].ks, 3),
                    eval::fmt(ours_fid[f].ks, 3),
                    eval::fmt(gan_fid[f].jsd, 3),
                    eval::fmt(ours_fid[f].jsd, 3)});
  }
  std::printf("\nper-feature marginal similarity vs real (lower = closer)\n%s\n",
              eval::format_table({"feature", "KS gan", "KS ours", "JSD gan",
                                  "JSD ours"},
                                 rows)
                  .c_str());

  // --- Aggregate vs class-conditional summary + downstream utility. ---
  const double gan_agg = eval::mean_ks(gan_fid);
  const double ours_agg = eval::mean_ks(ours_fid);
  const double gan_cond = eval::class_conditional_ks(
      real_records, gan_records, flowgen::kNumApps);
  const double ours_cond = eval::class_conditional_ks(
      real_records, ours_records, flowgen::kNumApps);

  const eval::ScenarioConfig sc = bench::scenario_config(scale);
  const auto gan_transfer = eval::run_cross_scenario_netflow(
      "Syn/Real", gan_records, gan::to_netflow(test_flows), sc);
  const auto ours_transfer = eval::run_cross_scenario(
      "Syn/Real", ours.flows, test_flows, eval::Granularity::kNprintPcap, sc);

  std::vector<std::vector<std::string>> summary = {
      {"GAN (NetFlow)", eval::fmt(gan_agg, 3), eval::fmt(gan_cond, 3),
       eval::fmt(gan_transfer.micro_accuracy)},
      {"Ours (pcap)", eval::fmt(ours_agg, 3), eval::fmt(ours_cond, 3),
       eval::fmt(ours_transfer.micro_accuracy)},
  };
  std::printf("%s\n",
              eval::format_table({"generator", "aggregate KS",
                                  "class-conditional KS",
                                  "Syn/Real micro acc"},
                                 summary)
                  .c_str());

  report.note("gan_aggregate_ks", gan_agg);
  report.note("gan_conditional_ks", gan_cond);
  report.note("ours_aggregate_ks", ours_agg);
  report.note("ours_conditional_ks", ours_cond);
  report.note("ours_syn_real_micro", ours_transfer.micro_accuracy);
  const bool shape_gap = gan_cond > gan_agg + 0.05;
  const bool shape_utility =
      ours_transfer.micro_accuracy > gan_transfer.micro_accuracy;
  std::printf("shape checks:\n");
  std::printf("  GAN per-class shift exceeds aggregate ... %s (%.3f vs %.3f)\n",
              shape_gap ? "yes" : "NO", gan_cond, gan_agg);
  std::printf("  ours more useful downstream ............. %s (%.2f vs %.2f)\n",
              shape_utility ? "yes" : "NO", ours_transfer.micro_accuracy,
              gan_transfer.micro_accuracy);
  return shape_utility ? 0 : 1;
}
