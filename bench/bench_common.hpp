// Shared setup for the reproduction benches: environment-scalable
// defaults, dataset builders, and the canonical pipeline configuration.
//
// Every bench accepts the same environment overrides so the suite can be
// scaled from a quick smoke run to a paper-scale run without recompiling:
//   REPRO_FLOWS_PER_CLASS  largest-class size of the "real" dataset (40)
//   REPRO_TRAIN_PER_CLASS  per-class cap for fine-tuning, paper: 100 (25)
//   REPRO_SYN_PER_CLASS    synthetic flows generated per class (15)
//   REPRO_PACKETS          flow-image height, paper: up to 1024 (32)
//   REPRO_AE_EPOCHS / REPRO_DIFF_EPOCHS / REPRO_CTRL_EPOCHS
//   REPRO_GAN_EPOCHS       GAN training epochs (200)
//   REPRO_DDIM_STEPS       sampling steps (15)
//   REPRO_RF_TREES         random-forest size (30)
#pragma once

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/env.hpp"
#include "common/json.hpp"
#include "common/parallel/thread_pool.hpp"
#include "common/telemetry/export.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"
#include "diffusion/pipeline.hpp"
#include "eval/scenario.hpp"
#include "flowgen/dataset.hpp"
#include "flowgen/generator.hpp"
#include "gan/netflow_gan.hpp"

namespace repro::bench {

struct Scale {
  std::size_t flows_per_class = env_size("REPRO_FLOWS_PER_CLASS", 40);
  std::size_t train_per_class = env_size("REPRO_TRAIN_PER_CLASS", 25);
  std::size_t syn_per_class = env_size("REPRO_SYN_PER_CLASS", 15);
  std::size_t packets = env_size("REPRO_PACKETS", 16);
  std::size_t ae_epochs = env_size("REPRO_AE_EPOCHS", 25);
  std::size_t diff_epochs = env_size("REPRO_DIFF_EPOCHS", 15);
  std::size_t ctrl_epochs = env_size("REPRO_CTRL_EPOCHS", 8);
  std::size_t gan_epochs = env_size("REPRO_GAN_EPOCHS", 200);
  std::size_t ddim_steps = env_size("REPRO_DDIM_STEPS", 15);
  std::size_t rf_trees = env_size("REPRO_RF_TREES", 50);
};

inline std::vector<std::string> class_names() {
  std::vector<std::string> names;
  names.reserve(flowgen::kNumApps);
  for (std::size_t i = 0; i < flowgen::kNumApps; ++i) {
    names.push_back(flowgen::app_name(static_cast<flowgen::App>(i)));
  }
  return names;
}

inline diffusion::PipelineConfig pipeline_config(const Scale& scale) {
  diffusion::PipelineConfig cfg;
  cfg.packets = scale.packets;
  cfg.autoencoder.hidden_dim = 256;
  cfg.autoencoder.latent_dim = 40;
  cfg.ae_max_rows = 3500;
  cfg.unet.base_channels = 24;
  cfg.unet.temb_dim = 48;
  cfg.timesteps = 100;
  cfg.ae_epochs = scale.ae_epochs;
  cfg.diffusion_epochs = scale.diff_epochs;
  cfg.control_epochs = scale.ctrl_epochs;
  return cfg;
}

/// Base seed of every bench's synthetic set. Class c of
/// generate_dataset(per_class, opts, kSynSeed) is generate_seeded(c,
/// opts, fork_flow_seed(kSynSeed, c)), so any class slice can be
/// regenerated on its own (or through the server), and variants that
/// share it start from the same noise.
inline constexpr std::uint64_t kSynSeed = 2023;

inline diffusion::GenerateOptions generate_options(const Scale& scale) {
  diffusion::GenerateOptions opts;
  opts.sampler = diffusion::SamplerKind::kDdim;
  opts.ddim_steps = scale.ddim_steps;
  opts.guidance_scale = 2.0f;
  return opts;
}

inline gan::GanConfig gan_config(const Scale& scale) {
  gan::GanConfig cfg;
  cfg.epochs = scale.gan_epochs;
  cfg.num_classes = flowgen::kNumApps;
  return cfg;
}

inline eval::ScenarioConfig scenario_config(const Scale& scale) {
  eval::ScenarioConfig cfg;
  cfg.forest.num_trees = scale.rf_trees;
  return cfg;
}

inline void print_header(const char* title, const char* paper_artifact) {
  std::printf("==================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_artifact);
  std::printf("==================================================\n");
}

/// Serializes the Scale (the run's environment knobs) into `json` as an
/// object value.
inline void append_scale(JsonWriter& json, const Scale& scale) {
  json.begin_object();
  const std::pair<const char*, std::size_t> fields[] = {
      {"flows_per_class", scale.flows_per_class},
      {"train_per_class", scale.train_per_class},
      {"syn_per_class", scale.syn_per_class},
      {"packets", scale.packets},
      {"ae_epochs", scale.ae_epochs},
      {"diff_epochs", scale.diff_epochs},
      {"ctrl_epochs", scale.ctrl_epochs},
      {"gan_epochs", scale.gan_epochs},
      {"ddim_steps", scale.ddim_steps},
      {"rf_trees", scale.rf_trees},
  };
  for (const auto& [name, value] : fields) {
    json.key(name);
    json.value(static_cast<std::uint64_t>(value));
  }
  json.end_object();
}

/// True when `path`, resolved against the working directory, has a
/// `reports` directory component: where the committed baselines live.
inline bool under_reports_dir(const std::string& path) {
  for (const auto& part : std::filesystem::absolute(path).parent_path()) {
    if (part == "reports") return true;
  }
  return false;
}

/// Machine-readable bench report: named stage wall times plus headline
/// result numbers, written as BENCH_<name>.json next to the stdout
/// report (and BENCH_<name>.trace.json with the Chrome trace when
/// telemetry is on). Construct at the top of main, call stage() at
/// phase boundaries and note() for key numbers; the destructor writes
/// the files.
class BenchReport {
 public:
  BenchReport(std::string name, const char* paper_artifact)
      : name_(std::move(name)), start_(Clock::now()), stage_start_(start_) {
    print_header(name_.c_str(), paper_artifact);
    // Per-run attribution: drop metrics/spans accumulated before main
    // (there are none today, but statics may warm caches later).
    telemetry::Registry::instance().reset();
    telemetry::reset_profile();
  }
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  ~BenchReport() { finish(); }

  /// Ends the current stage (if any) and starts `stage_name`.
  void stage(const char* stage_name) {
    close_stage();
    current_stage_ = stage_name;
    stage_start_ = Clock::now();
  }

  /// Records a headline result number under "results" in the JSON.
  void note(const std::string& key, double value) {
    notes_.emplace_back(key, value);
  }

  /// Idempotent; writes BENCH_<name>.json (+ .trace.json if telemetry
  /// is enabled). A REPRO_CHECKS=ON build writes nothing under
  /// `reports/`: the committed baselines come from checks-off builds.
  void finish() {
    if (finished_) return;
    finished_ = true;
    close_stage();
    const double total = seconds_since(start_);
    const std::string path = telemetry::report_path("BENCH_" + name_ + ".json");
    if (contracts_enabled() && under_reports_dir(path)) {
      std::fprintf(stderr,
                   "bench report: refusing to write %s from a "
                   "REPRO_CHECKS=ON build\n",
                   path.c_str());
      return;
    }

    JsonWriter json;
    json.begin_object();
    json.key("bench");
    json.value(name_);
    json.key("telemetry_enabled");
    json.value(telemetry::enabled());
    json.key("threads");
    json.value(static_cast<std::uint64_t>(parallel::thread_count()));
    json.key("simd_width");
    json.value(static_cast<std::uint64_t>(REPRO_SIMD_WIDTH));
    json.key("checks");
    json.value(contracts_enabled());
    json.key("total_seconds");
    json.value(total);
    json.key("scale");
    append_scale(json, scale_);
    json.key("stages");
    json.begin_array();
    for (const auto& [stage_name, seconds] : stages_) {
      json.begin_object();
      json.key("name");
      json.value(stage_name);
      json.key("seconds");
      json.value(seconds);
      json.end_object();
    }
    json.end_array();
    json.key("results");
    json.begin_object();
    for (const auto& [key, value] : notes_) {
      json.key(key);
      json.value(value);
    }
    json.end_object();
    json.key("metrics");
    append_metrics(json, telemetry::Registry::instance().snapshot());
    json.key("spans");
    json.begin_array();
    for (const auto& child : telemetry::profile_snapshot().children) {
      append_span(json, child);
    }
    json.end_array();
    json.end_object();

    if (telemetry::write_text_file(path, std::move(json).str())) {
      std::printf("bench report: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "bench report: cannot write %s\n", path.c_str());
    }
    if (telemetry::enabled()) {
      const std::string trace_path =
          telemetry::report_path("BENCH_" + name_ + ".trace.json");
      if (telemetry::write_text_file(trace_path,
                                     telemetry::chrome_trace_json())) {
        std::printf("chrome trace: %s (load in chrome://tracing)\n",
                    trace_path.c_str());
      }
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  static double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  void close_stage() {
    if (current_stage_.empty()) return;
    stages_.emplace_back(current_stage_, seconds_since(stage_start_));
    current_stage_.clear();
  }

  std::string name_;
  Scale scale_;
  Clock::time_point start_;
  Clock::time_point stage_start_;
  std::string current_stage_;
  std::vector<std::pair<std::string, double>> stages_;
  std::vector<std::pair<std::string, double>> notes_;
  bool finished_ = false;
};

}  // namespace repro::bench
