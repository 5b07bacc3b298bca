// The paper's case study end-to-end (§2.2/§3.2): service recognition
// over 4 macro services / 11 micro applications with a Random Forest,
// showing how synthetic data from the diffusion pipeline can stand in
// for real data on either side of the train/test split — and how the
// same test looks when the synthetic side comes from a GAN baseline.
//
// Scale with REPRO_FLOWS_PER_CLASS / REPRO_SYN_PER_CLASS etc. (see
// bench/bench_common.hpp for the full list of knobs).
#include <cstdio>

#include "common/env.hpp"
#include "diffusion/pipeline.hpp"
#include "eval/report.hpp"
#include "eval/scenario.hpp"
#include "flowgen/dataset.hpp"
#include "gan/netflow_gan.hpp"
#include "ml/split.hpp"

using namespace repro;

int main() {
  const std::size_t flows_per_class = env_size("REPRO_FLOWS_PER_CLASS", 25);
  const std::size_t syn_per_class = env_size("REPRO_SYN_PER_CLASS", 12);

  // --- The Table 1 style dataset (scaled). ---
  Rng rng(7);
  const flowgen::Dataset real =
      flowgen::build_table1_dataset(flows_per_class, rng);
  std::printf("dataset: %zu flows over %zu applications\n", real.size(),
              flowgen::kNumApps);

  // 80-20 stratified split.
  std::vector<std::size_t> train_idx, test_idx;
  Rng split_rng(8);
  ml::stratified_split_indices(real.micro_labels(), 0.2, split_rng,
                               train_idx, test_idx);
  std::vector<net::Flow> train_flows, test_flows;
  for (std::size_t i : train_idx) train_flows.push_back(real.flows[i]);
  for (std::size_t i : test_idx) test_flows.push_back(real.flows[i]);

  // --- Fit the generative pipeline on the training flows. ---
  // The calibrated configuration from bench/bench_common.hpp.
  diffusion::PipelineConfig config;
  config.packets = 16;
  config.autoencoder.hidden_dim = 256;
  config.autoencoder.latent_dim = 40;
  config.ae_max_rows = 3500;
  config.unet.base_channels = 24;
  config.unet.temb_dim = 48;
  config.ae_epochs = env_size("REPRO_AE_EPOCHS", 25);
  config.diffusion_epochs = env_size("REPRO_DIFF_EPOCHS", 15);
  config.control_epochs = env_size("REPRO_CTRL_EPOCHS", 8);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < flowgen::kNumApps; ++i) {
    names.push_back(flowgen::app_name(static_cast<flowgen::App>(i)));
  }
  diffusion::TraceDiffusion pipeline(config, names);
  flowgen::Dataset train_ds;
  train_ds.flows = train_flows;
  std::printf("fitting the diffusion pipeline on %zu flows...\n",
              train_ds.size());
  pipeline.fit(train_ds);

  // Balanced synthetic dataset (equal prompts per class — §3.2 Coverage).
  diffusion::GenerateOptions opts;
  opts.ddim_steps = env_size("REPRO_DDIM_STEPS", 15);
  const auto synthetic = pipeline.generate_dataset(
      std::vector<std::size_t>(flowgen::kNumApps, syn_per_class), opts,
      /*seed=*/2023);
  std::printf("generated %zu synthetic flows\n", synthetic.size());

  // --- GAN baseline for comparison. ---
  gan::GanConfig gan_cfg;
  gan_cfg.num_classes = flowgen::kNumApps;
  gan_cfg.epochs = env_size("REPRO_GAN_EPOCHS", 200);
  gan::NetFlowGan baseline(gan_cfg);
  baseline.fit(gan::to_netflow(train_flows));
  const auto gan_synthetic = baseline.sample(synthetic.size());

  // --- Score the four interesting scenarios. ---
  eval::ScenarioConfig sc;
  sc.forest.num_trees = env_size("REPRO_RF_TREES", 30);
  std::vector<std::vector<std::string>> rows;
  auto push = [&rows](const eval::ScenarioResult& r) {
    rows.push_back({r.name, granularity_name(r.granularity),
                    eval::fmt(r.macro_accuracy), eval::fmt(r.micro_accuracy)});
  };
  push(eval::run_real_real(real, eval::Granularity::kNprintPcap, sc));
  push(eval::run_cross_scenario("Real/Synthetic (Ours)", train_flows,
                                synthetic.flows,
                                eval::Granularity::kNprintPcap, sc));
  push(eval::run_cross_scenario("Synthetic/Real (Ours)", synthetic.flows,
                                test_flows, eval::Granularity::kNprintPcap,
                                sc));
  push(eval::run_cross_scenario_netflow("Synthetic/Real (GAN)", gan_synthetic,
                                        gan::to_netflow(test_flows), sc));

  std::printf("\n%s\n",
              eval::format_table(
                  {"scenario", "granularity", "macro acc", "micro acc"}, rows)
                  .c_str());
  std::printf("reading: the pipeline's synthetic data transfers to/from real "
              "data at full packet granularity — something NetFlow-level GAN "
              "output cannot offer. bench/table2_rf_scenarios runs this "
              "comparison at calibrated scale with shape checks.\n");
  return 0;
}
