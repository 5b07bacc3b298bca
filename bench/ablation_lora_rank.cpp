// Ablation (DESIGN.md A2) — LoRA as the paper's class-coverage add-on
// (§3.1: the fine-tuned add-on "allows the flexible addition of new
// classes via word embeddings").
//
// Protocol: pre-train the base model on 9 of the 11 applications, then
// register the remaining two (teams, other) through adapter-only
// fine-tuning at ranks {0, 2, 4, 8} (rank 0 = embeddings only). Measured:
// can a Random Forest trained on REAL data recognize the synthetic flows
// of the two new classes? (generation quality for the added coverage).
#include "bench_common.hpp"

#include "eval/report.hpp"
#include "ml/features.hpp"
#include "ml/random_forest.hpp"

using namespace repro;

namespace {

// Held-out classes: one UDP conferencing app and one TCP social app.
// (Deliberately NOT the IoT "other" class: it acts as the classifier's
// junk sink, so zero-shot garbage would score as "recognized" there and
// mask the fine-tuning effect.)
constexpr int kHeldOutA = 4;  // teams
constexpr int kHeldOutB = 9;  // instagram

}  // namespace

int main() {
  bench::Scale scale;
  // Four full pre-train/fine-tune cycles run in this bench; halve the
  // training scale so the sweep stays tractable on one core.
  scale.train_per_class = std::max<std::size_t>(scale.train_per_class / 2, 4);
  scale.diff_epochs = std::max<std::size_t>(scale.diff_epochs / 2, 3);
  scale.ae_epochs = std::max<std::size_t>(scale.ae_epochs / 2, 5);
  bench::BenchReport report("ablation_lora_rank",
                            "LoRA rank sweep for class-coverage extension");

  report.stage("build_dataset");
  Rng rng(1);
  const flowgen::Dataset all =
      flowgen::build_uniform_dataset(scale.train_per_class, rng);
  flowgen::Dataset base_ds, new_ds;
  for (const auto& flow : all.flows) {
    if (flow.label == kHeldOutA || flow.label == kHeldOutB) {
      new_ds.flows.push_back(flow);
    } else {
      base_ds.flows.push_back(flow);
    }
  }

  // Reference RF trained on real data over all 11 classes.
  report.stage("fit_reference_rf");
  const eval::ScenarioConfig sc = bench::scenario_config(scale);
  ml::ForestConfig forest_cfg = sc.forest;
  ml::RandomForest reference(forest_cfg);
  reference.fit(ml::nprint_features(all.flows, sc.nprint_packets));

  report.stage("rank_sweep");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t rank : {std::size_t{0}, std::size_t{2}, std::size_t{4},
                           std::size_t{8}}) {
    diffusion::PipelineConfig cfg = bench::pipeline_config(scale);
    // The rank-0 row is the zero-shot baseline: no fine-tuning at all
    // (adapters exist but never train — epochs = 0 below), so the new
    // classes rely on whatever the untrained embedding rows produce.
    cfg.unet.lora_rank = rank == 0 ? 2 : rank;
    diffusion::TraceDiffusion pipeline(cfg, bench::class_names());
    std::printf("rank %zu: pre-training base on %zu flows (9 classes)...\n",
                rank, base_ds.size());
    pipeline.fit(base_ds);
    const std::size_t ft_epochs =
        rank == 0 ? 0 : std::max<std::size_t>(scale.diff_epochs, 6);
    if (ft_epochs > 0) {
      std::printf("rank %zu: adapter fine-tuning on %zu new-class flows...\n",
                  rank, new_ds.size());
      pipeline.fit_lora(new_ds, ft_epochs);
    }

    // Pure prompt-conditional generation: template init / ControlNet /
    // projection are deliberately disabled so the measurement isolates
    // what the adapters and embedding rows learned, not the one-shot
    // template mechanism.
    diffusion::GenerateOptions opts = bench::generate_options(scale);
    opts.count = scale.syn_per_class;
    opts.use_control = false;
    opts.template_strength = 1.0f;
    opts.constraint = diffusion::ConstraintMode::kOff;
    std::size_t recognized = 0, total = 0, non_empty = 0;
    double true_prob = 0.0;
    std::string per_class;
    for (int cls : {kHeldOutA, kHeldOutB}) {
      const auto flows = pipeline.generate_seeded(
          cls, opts,
          diffusion::fork_flow_seed(bench::kSynSeed,
                                    static_cast<std::size_t>(cls)));
      const auto features =
          ml::nprint_features(flows, sc.nprint_packets);
      std::size_t cls_hits = 0;
      for (std::size_t i = 0; i < features.rows.size(); ++i) {
        ++total;
        if (!flows[i].packets.empty()) ++non_empty;
        if (reference.predict(features.rows[i]) == cls) {
          ++recognized;
          ++cls_hits;
        }
        const auto proba = reference.predict_proba(features.rows[i]);
        true_prob += proba[static_cast<std::size_t>(cls)];
      }
      if (!per_class.empty()) per_class += " / ";
      per_class += flowgen::app_name(static_cast<flowgen::App>(cls)) + " " +
                   eval::fmt(static_cast<double>(cls_hits) /
                                 static_cast<double>(features.rows.size()),
                             2);
    }
    const double totald = static_cast<double>(total);
    const double recognition =
        total ? static_cast<double>(recognized) / totald : 0.0;
    report.note("rank" + std::to_string(rank) + "_recognition", recognition);
    rows.push_back(
        {rank == 0 ? "0 (zero-shot, no fine-tune)" : std::to_string(rank),
         eval::fmt(recognition, 3),
         eval::fmt(total ? true_prob / totald : 0.0, 3), per_class,
         std::to_string(non_empty) + "/" + std::to_string(total)});
  }

  std::printf("\n%s\n",
              eval::format_table({"LoRA rank", "new-class recognition",
                                  "mean true-class prob", "per class",
                                  "decodable flows"},
                                 rows)
                  .c_str());
  std::printf("reading: adapter fine-tuning (plus trainable word-embedding "
              "rows) registers the two unseen classes on a frozen base; "
              "rank 0 is the zero-shot floor with no fine-tuning.\n");
  return 0;
}
