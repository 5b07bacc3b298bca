// Figure 1 — "distribution comparison between the real and GAN-based,
// and our synthetic data": per-class proportions for (a) the 11-class
// generation problem and (b) the netflix/youtube 2-class problem, plus
// imbalance and JSD-to-uniform summary metrics.
//
// The GAN treats the class label "as just another feature", so its
// sampled label distribution drifts and amplifies the real data's
// imbalance; the diffusion pipeline simply invokes generation an equal
// number of times per class prompt and is balanced by construction
// (§3.2 Coverage) — but only to the extent every prompt yields decodable
// flows, which is what this bench verifies.
#include "bench_common.hpp"

#include "common/stats.hpp"
#include "eval/coverage.hpp"
#include "eval/report.hpp"
#include "flowgen/generator.hpp"

using namespace repro;

namespace {

eval::CoverageReport build_report(const std::vector<std::string>& names,
                                  std::vector<double> real,
                                  std::vector<double> gan,
                                  std::vector<double> ours) {
  eval::CoverageReport report;
  report.class_names = names;
  report.series = {{"Real", std::move(real)},
                   {"GAN", std::move(gan)},
                   {"Ours", std::move(ours)}};
  return report;
}

}  // namespace

int main() {
  bench::Scale scale;
  bench::BenchReport report("fig1_class_coverage",
                            "Figure 1 (class coverage / imbalance, 11-class "
                            "and 2-class)");

  report.stage("build_dataset");
  Rng rng(1);
  const flowgen::Dataset real =
      flowgen::build_table1_dataset(scale.flows_per_class, rng);
  const auto real_props =
      eval::label_proportions(real.micro_labels(), flowgen::kNumApps);

  // --- GAN series: label field distribution of generated samples. ---
  report.stage("fit_gan");
  gan::NetFlowGan gan_model(bench::gan_config(scale));
  std::printf("training GAN on %zu records...\n", real.size());
  gan_model.fit(gan::to_netflow(real.flows));
  const std::size_t sample_count = 1000;
  const auto gan_counts = gan_model.label_distribution(sample_count);
  std::vector<double> gan_props = normalize(gan_counts);

  // --- Ours: diffusion pipeline invoked equally per class. ---
  report.stage("fit_diffusion");
  diffusion::TraceDiffusion pipeline(bench::pipeline_config(scale),
                                     bench::class_names());
  Rng cap_rng(2);
  const auto capped = real.sample_per_class(scale.train_per_class, cap_rng);
  std::printf("fitting diffusion pipeline on %zu flows...\n", capped.size());
  pipeline.fit(capped);
  const flowgen::Dataset ours_syn = pipeline.generate_dataset(
      std::vector<std::size_t>(flowgen::kNumApps, scale.syn_per_class),
      bench::generate_options(scale), bench::kSynSeed);
  // Count only decodable flows — an empty generation would silently skew
  // the distribution, so it must show up here.
  std::vector<int> ours_labels;
  for (const auto& flow : ours_syn.flows) {
    if (!flow.packets.empty()) ours_labels.push_back(flow.label);
  }
  const auto ours_props =
      eval::label_proportions(ours_labels, flowgen::kNumApps);

  // --- (a) 11-class table. ---
  std::printf("\n(a) 11-class generation\n%s\n",
              eval::format_coverage_table(
                  build_report(bench::class_names(), real_props, gan_props,
                               ours_props))
                  .c_str());

  // --- (b) 2-class (netflix/youtube) variant. ---
  report.stage("two_class_variant");
  {
    Rng rng2(3);
    flowgen::Dataset real2;
    const auto scaled = flowgen::scaled_table1_counts(scale.flows_per_class);
    for (std::size_t i = 0; i < scaled[0]; ++i) {
      real2.flows.push_back(
          flowgen::generate_flow(flowgen::App::kNetflix, rng2));
    }
    for (std::size_t i = 0; i < scaled[1]; ++i) {
      real2.flows.push_back(
          flowgen::generate_flow(flowgen::App::kYoutube, rng2));
    }
    const auto real2_props =
        eval::label_proportions(real2.micro_labels(), 2);

    gan::GanConfig gcfg = bench::gan_config(scale);
    gcfg.num_classes = 2;
    gan::NetFlowGan gan2(gcfg);
    gan2.fit(gan::to_netflow(real2.flows));
    const auto gan2_props = normalize(gan2.label_distribution(sample_count));

    diffusion::PipelineConfig pcfg = bench::pipeline_config(scale);
    diffusion::TraceDiffusion pipeline2(pcfg, {"netflix", "youtube"});
    Rng cap2(4);
    pipeline2.fit(real2.sample_per_class(scale.train_per_class, cap2));
    const auto syn2 = pipeline2.generate_dataset(
        {scale.syn_per_class, scale.syn_per_class},
        bench::generate_options(scale), bench::kSynSeed);
    std::vector<int> syn2_labels;
    for (const auto& flow : syn2.flows) {
      if (!flow.packets.empty()) syn2_labels.push_back(flow.label);
    }
    const auto ours2_props = eval::label_proportions(syn2_labels, 2);

    std::printf("(b) 2-class generation\n%s\n",
                eval::format_coverage_table(
                    build_report({"netflix", "youtube"}, real2_props,
                                 gan2_props, ours2_props))
                    .c_str());
  }

  // --- Diversity guard: balanced counts mean nothing if every sample
  // is a clone of the class template. ---
  {
    const double real_div =
        eval::sample_diversity(real.flows, 10, 200, 77);
    const double ours_div =
        eval::sample_diversity(ours_syn.flows, 10, 200, 78);
    std::printf("sample diversity (mean pairwise bit distance): real %.4f, "
                "ours %.4f\n",
                real_div, ours_div);
  }

  // --- Shape checks. ---
  const double gan_imb = eval::coverage_imbalance(gan_props);
  const double ours_imb = eval::coverage_imbalance(ours_props);
  const double real_imb = eval::coverage_imbalance(real_props);
  report.note("gan_imbalance", gan_imb);
  report.note("ours_imbalance", ours_imb);
  report.note("real_imbalance", real_imb);
  std::printf("shape checks:\n");
  std::printf("  ours more balanced than real ............ %s (%.2f vs %.2f)\n",
              ours_imb < real_imb ? "yes" : "NO", ours_imb, real_imb);
  std::printf("  ours more balanced than GAN ............. %s (%.2f vs %.2f)\n",
              ours_imb < gan_imb ? "yes" : "NO", ours_imb, gan_imb);
  std::printf("  GAN amplifies real imbalance ............ %s (%.2f vs %.2f)\n",
              gan_imb > real_imb ? "yes" : "NO", gan_imb, real_imb);
  return ours_imb < gan_imb ? 0 : 1;
}
