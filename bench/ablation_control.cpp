// Ablation (DESIGN.md A1) — what produces the §3.2 controllability
// result? Four configurations of the generation stack:
//
//   none        no ControlNet hints, no hard projection
//   control     ControlNet hints only
//   projection  hard constraint projection only
//   both        the full pipeline (paper configuration)
//
// Measured: protocol-template compliance of generated flows and the
// Synthetic/Real transfer accuracy (does the constraint machinery make
// the synthetic data more useful downstream?). All four variants share
// the base seed bench::kSynSeed, so each flow starts from the same noise
// in every variant and the comparison is paired.
#include "bench_common.hpp"

#include "eval/report.hpp"
#include "ml/split.hpp"

using namespace repro;

int main() {
  bench::Scale scale;
  bench::BenchReport report("ablation_control",
                            "controllability ablation (ControlNet vs "
                            "projection)");

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
  flowgen::Dataset train_ds;
  train_ds.flows = train_flows;
  Rng cap_rng(3);
  const auto capped = train_ds.sample_per_class(scale.train_per_class, cap_rng);

  // One pipeline with the control branch trained; the ablation toggles
  // how much of it is used at generation time.
  report.stage("fit_diffusion");
  diffusion::TraceDiffusion pipeline(bench::pipeline_config(scale),
                                     bench::class_names());
  std::printf("fitting pipeline (with control branch) on %zu flows...\n",
              capped.size());
  pipeline.fit(capped);

  struct Variant {
    const char* name;
    bool use_control;
    diffusion::ConstraintMode constraint;
  };
  const Variant variants[] = {
      {"none", false, diffusion::ConstraintMode::kOff},
      {"control only", true, diffusion::ConstraintMode::kOff},
      {"projection only", false, diffusion::ConstraintMode::kProjected},
      {"both (paper)", true, diffusion::ConstraintMode::kProjected},
  };

  report.stage("run_variants");
  const eval::ScenarioConfig sc = bench::scenario_config(scale);
  std::vector<std::vector<std::string>> rows;
  double compliance_none = 0.0, compliance_both = 0.0;
  for (const Variant& variant : variants) {
    diffusion::GenerateOptions opts = bench::generate_options(scale);
    opts.use_control = variant.use_control;
    opts.constraint = variant.constraint;
    const flowgen::Dataset syn = pipeline.generate_dataset(
        std::vector<std::size_t>(flowgen::kNumApps, scale.syn_per_class),
        opts, bench::kSynSeed);

    // Template compliance across all generated flows.
    std::size_t compliant = 0, total = 0;
    for (const auto& flow : syn.flows) {
      const auto& tmpl = pipeline.class_template(flow.label);
      for (std::size_t i = 0; i < flow.packets.size(); ++i) {
        ++total;
        if (i < tmpl.per_packet.size() &&
            flow.packets[i].ip.protocol == tmpl.per_packet[i]) {
          ++compliant;
        }
      }
    }
    const double compliance =
        total ? static_cast<double>(compliant) / static_cast<double>(total)
              : 0.0;

    const auto transfer = eval::run_cross_scenario(
        "Synthetic/Real", syn.flows, test_flows,
        eval::Granularity::kNprintPcap, sc);
    rows.push_back({variant.name, eval::fmt(compliance, 3),
                    eval::fmt(transfer.macro_accuracy),
                    eval::fmt(transfer.micro_accuracy)});
    if (std::string(variant.name) == "none") compliance_none = compliance;
    if (std::string(variant.name) == "both (paper)") {
      compliance_both = compliance;
    }
  }

  std::printf("\n%s\n",
              eval::format_table({"variant", "proto compliance",
                                  "Syn/Real macro", "Syn/Real micro"},
                                 rows)
                  .c_str());
  std::printf("shape check: full stack strictly more compliant than "
              "unconstrained ... %s (%.3f vs %.3f)\n",
              compliance_both > compliance_none ? "yes" : "NO",
              compliance_both, compliance_none);
  report.note("compliance_none", compliance_none);
  report.note("compliance_both", compliance_both);
  return compliance_both >= compliance_none ? 0 : 1;
}
