// Fast-path fidelity gate: the distilled few-step sampler trades
// numerics for speed, so this bench proves it does not trade away
// fidelity. It reruns the Table-2 RF scenarios (Real/Synthetic and
// Synthetic/Real, nprint granularity) on synthetic data from each route
// and FAILS (exit 1) if any accuracy drops more than REPRO_FIDELITY_EPS
// (default 0.02) absolute below the fp32 / DDIM-20 baseline generated
// from the same fitted pipeline. check.sh runs this as the `fastpath`
// stage.
//
// Routes compared (same pipeline, same real split, and the same base
// seed bench::kSynSeed, so both routes start every synthetic flow from
// the same noise and the gate compares the same flows):
//   fp32_ddim20   — the reference route (baseline)
//   fp32_distill5 — 5-step distilled sampler
#include "bench_common.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "eval/report.hpp"
#include "ml/split.hpp"

using namespace repro;

namespace {

struct RouteConfig {
  const char* key;
  diffusion::SamplerKind sampler;
  std::size_t steps;
};

struct RouteScores {
  std::string key;
  // Mean accuracies over the RF-seed repeats.
  double real_syn_macro = 0.0;  // train real, test synthetic
  double real_syn_micro = 0.0;
  double syn_real_macro = 0.0;  // train synthetic, test real
  double syn_real_micro = 0.0;
};

}  // namespace

int main() {
  bench::Scale scale;
  const double eps = env_double("REPRO_FIDELITY_EPS", 0.02);
  // Each scenario score is the mean over this many RF seeds: one forest's
  // bagging draw moves a macro accuracy by more than eps at bench scale,
  // and the gate must measure the routes, not one forest's luck.
  const std::size_t rf_repeats = static_cast<std::size_t>(
      env_double("REPRO_FIDELITY_RF_REPEATS", 3));
  const std::size_t distilled_steps = 5;
  bench::BenchReport report(
      "fidelity_fastpath",
      "fast-path fidelity gate (Table-2 scenarios, fast routes vs fp32/DDIM-20)");

  report.stage("build_dataset");
  Rng rng(1);
  const flowgen::Dataset real =
      flowgen::build_table1_dataset(scale.flows_per_class, rng);
  std::vector<std::size_t> train_idx, test_idx;
  Rng split_rng(2);
  ml::stratified_split_indices(real.micro_labels(), 0.2, split_rng,
                               train_idx, test_idx);
  std::vector<net::Flow> real_train, real_test;
  for (std::size_t i : train_idx) real_train.push_back(real.flows[i]);
  for (std::size_t i : test_idx) real_test.push_back(real.flows[i]);

  report.stage("fit_diffusion");
  diffusion::TraceDiffusion pipeline(bench::pipeline_config(scale),
                                     bench::class_names());
  {
    flowgen::Dataset train_ds;
    train_ds.flows = real_train;
    Rng cap_rng(3);
    const flowgen::Dataset capped =
        train_ds.sample_per_class(scale.train_per_class, cap_rng);
    std::printf("fitting diffusion pipeline on %zu flows...\n", capped.size());
    pipeline.fit(capped);
  }

  report.stage("distill");
  // The distill prototype options MUST match the generation options below
  // (same template_strength / control path) so the fitted stages are
  // keyed on the start timestep generation will actually use.
  diffusion::DistillConfig dcfg;
  dcfg.teacher_steps = 40;
  dcfg.rounds = 3;  // 40 -> 20 -> 10 -> 5
  dcfg.calibration_count = 8;
  dcfg.options = bench::generate_options(scale);
  const std::size_t stages = pipeline.distill(dcfg);
  std::printf("distilled %zu stages; step counts:", stages);
  for (const std::size_t s : pipeline.distilled_step_counts()) {
    std::printf(" %zu", s);
  }
  std::printf("\n");

  const RouteConfig routes[] = {
      {"fp32_ddim20", diffusion::SamplerKind::kDdim, 20},
      {"fp32_distill5", diffusion::SamplerKind::kDistilled, distilled_steps},
  };

  const eval::ScenarioConfig sc = bench::scenario_config(scale);
  std::vector<RouteScores> scored;
  for (const RouteConfig& route : routes) {
    report.stage(route.key);
    std::printf("generating %zu flows/class via %s...\n", scale.syn_per_class,
                route.key);
    diffusion::GenerateOptions opts = bench::generate_options(scale);
    opts.sampler = route.sampler;
    opts.ddim_steps = route.steps;
    const flowgen::Dataset syn = pipeline.generate_dataset(
        std::vector<std::size_t>(flowgen::kNumApps, scale.syn_per_class),
        opts, bench::kSynSeed);
    RouteScores scores;
    scores.key = route.key;
    for (std::size_t rep = 0; rep < rf_repeats; ++rep) {
      eval::ScenarioConfig rep_sc = sc;
      rep_sc.seed = sc.seed + rep;
      const eval::ScenarioResult real_syn = eval::run_cross_scenario(
          std::string("Real/Synthetic ") + route.key, real_train, syn.flows,
          eval::Granularity::kNprintPcap, rep_sc);
      const eval::ScenarioResult syn_real = eval::run_cross_scenario(
          std::string("Synthetic/Real ") + route.key, syn.flows, real_test,
          eval::Granularity::kNprintPcap, rep_sc);
      const double reps = static_cast<double>(rf_repeats);
      scores.real_syn_macro += real_syn.macro_accuracy / reps;
      scores.real_syn_micro += real_syn.micro_accuracy / reps;
      scores.syn_real_macro += syn_real.macro_accuracy / reps;
      scores.syn_real_micro += syn_real.micro_accuracy / reps;
    }
    scored.push_back(std::move(scores));
  }

  report.stage("gate");
  const RouteScores& baseline = scored.front();
  std::vector<std::vector<std::string>> rows;
  std::size_t violations = 0;
  for (const RouteScores& s : scored) {
    const struct {
      const char* name;
      double value;
      double base;
    } checks[] = {
        {"real_syn_macro", s.real_syn_macro, baseline.real_syn_macro},
        {"real_syn_micro", s.real_syn_micro, baseline.real_syn_micro},
        {"syn_real_macro", s.syn_real_macro, baseline.syn_real_macro},
        {"syn_real_micro", s.syn_real_micro, baseline.syn_real_micro},
    };
    for (const auto& check : checks) {
      const double drop = check.base - check.value;
      const bool bad = drop > eps;
      if (bad) ++violations;
      rows.push_back({s.key, check.name, eval::fmt(check.value, 3),
                      eval::fmt(check.base, 3), eval::fmt(drop, 3),
                      bad ? "FAIL" : "ok"});
      report.note(s.key + std::string("_") + check.name, check.value);
    }
  }
  std::printf("\nfast-path fidelity vs %s (eps %.3f)\n%s\n", baseline.key.c_str(),
              eps,
              eval::format_table(
                  {"route", "score", "value", "baseline", "drop", "gate"}, rows)
                  .c_str());
  report.note("gate_eps", eps);
  report.note("gate_rf_repeats", static_cast<double>(rf_repeats));
  report.note("gate_violations", static_cast<double>(violations));
  report.note("distilled_stages", static_cast<double>(stages));

  if (violations > 0) {
    std::printf("FIDELITY GATE FAILED: %zu score(s) dropped more than %.3f "
                "below the fp32/DDIM-20 baseline\n",
                violations, eps);
    report.finish();
    return 1;
  }
  std::printf("fidelity gate passed: every fast-path score within %.3f of "
              "the baseline\n",
              eps);
  return 0;
}
