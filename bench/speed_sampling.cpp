// §4 open challenge "Generative speed" — "diffusion models necessitate a
// multi-step sampling procedure during inference, extending the
// processing time ... the demand is for the rapid generation of tens of
// thousands of flows per second".
//
// google-benchmark harness measuring flows/second for:
//   * DDPM full ancestral sampling (T network evaluations),
//   * DDIM at 50 / 20 / 10 / 5 steps,
//   * classifier-free guidance on/off (2x evaluations per step),
//   * the GAN baseline (single forward pass — the speed bar to meet),
//   * the fast inference path (distilled few-step sampler) against
//     guided DDIM-20 — flows_per_s_fp32_{ddim20,distilled} are the
//     headline keys the README speedup table reads,
// plus the decode path (latent -> nprint -> packets) on its own and a
// per-step U-Net latency histogram.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>

#include "bench_common.hpp"
#include "common/telemetry/metrics.hpp"
#include "diffusion/distill.hpp"

using namespace repro;

namespace {

/// Measured flows/second per benchmark, keyed by a sanitized name
/// (ddim_20, gan_baseline, ...); written into the BenchReport results
/// after the google-benchmark run so BENCH_speed_sampling.json carries
/// the headline rates.
std::map<std::string, double>& flow_rates() {
  static std::map<std::string, double> rates;
  return rates;
}

/// Per-step U-Net latency snapshots, published into the
/// report as step_ms_<route>_{mean,p50,p90,p99,max} after the run.
std::map<std::string, telemetry::HistogramSnapshot>& step_histograms() {
  static std::map<std::string, telemetry::HistogramSnapshot> hists;
  return hists;
}

/// One shared trained pipeline for all benchmarks (training time is not
/// what this bench measures). Function-local static OBJECT (not a
/// leaked raw `new`): the destructor runs at exit, keeping the bench
/// clean under LeakSanitizer.
diffusion::TraceDiffusion& shared_pipeline() {
  struct Holder {
    diffusion::TraceDiffusion pipeline;
    Holder() : pipeline(make_config(), {"netflix", "teams"}) {
      Rng rng(1);
      flowgen::Dataset ds;
      for (int i = 0; i < 6; ++i) {
        net::Flow a = flowgen::generate_flow(flowgen::App::kNetflix, rng);
        a.label = 0;
        ds.flows.push_back(std::move(a));
        net::Flow b = flowgen::generate_flow(flowgen::App::kTeams, rng);
        b.label = 1;
        ds.flows.push_back(std::move(b));
      }
      pipeline.fit(ds);
      // Fast-path setup: distill few-step stages (40 -> 20 -> 10 -> 5,
      // the recommended recipe — a finer teacher costs nothing at
      // sample time) on the pure-noise trajectory the speed benches
      // measure.
      diffusion::DistillConfig dcfg;
      dcfg.teacher_steps = 40;
      dcfg.rounds = 3;
      dcfg.calibration_count = 4;
      dcfg.options.template_strength = 1.0f;
      pipeline.distill(dcfg);
    }
    static diffusion::PipelineConfig make_config() {
      bench::Scale scale;
      scale.packets = env_size("REPRO_PACKETS", 32);
      diffusion::PipelineConfig cfg = bench::pipeline_config(scale);
      // Speed is architecture-dependent, not fit-quality-dependent:
      // train briefly on a small two-class set.
      cfg.ae_epochs = 4;
      cfg.diffusion_epochs = 2;
      cfg.control_epochs = 1;
      return cfg;
    }
  };
  static Holder holder;
  return holder.pipeline;
}

void run_generation(benchmark::State& state, const std::string& rate_key,
                    diffusion::SamplerKind sampler, std::size_t steps,
                    float guidance) {
  auto& pipeline = shared_pipeline();
  diffusion::GenerateOptions opts;
  opts.count = 1;
  opts.sampler = sampler;
  opts.ddim_steps = steps;
  opts.guidance_scale = guidance;
  // Measure the pure samplers over the full schedule (one-shot template
  // guidance shortens the trajectory and would confound the comparison).
  opts.template_strength = 1.0f;
  std::size_t flows = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto out = pipeline.generate_seeded(0, opts, /*seed=*/flows);
    benchmark::DoNotOptimize(out);
    ++flows;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (flows > 0 && secs > 0.0) {
    flow_rates()[rate_key] = static_cast<double>(flows) / secs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows));
  state.counters["flows_per_s"] =
      benchmark::Counter(static_cast<double>(flows),
                         benchmark::Counter::kIsRate);
}

void BM_DdpmFull(benchmark::State& state) {
  run_generation(state, "ddpm_full", diffusion::SamplerKind::kDdpm, 0, 2.0f);
}
BENCHMARK(BM_DdpmFull)->Unit(benchmark::kMillisecond);

void BM_Ddim(benchmark::State& state) {
  run_generation(state, "ddim_" + std::to_string(state.range(0)),
                 diffusion::SamplerKind::kDdim,
                 static_cast<std::size_t>(state.range(0)), 2.0f);
}
BENCHMARK(BM_Ddim)->Arg(50)->Arg(20)->Arg(10)->Arg(5)->Unit(
    benchmark::kMillisecond);

void BM_DdimNoGuidance(benchmark::State& state) {
  run_generation(state, "ddim_noguid_" + std::to_string(state.range(0)),
                 diffusion::SamplerKind::kDdim,
                 static_cast<std::size_t>(state.range(0)), 1.0f);
}
BENCHMARK(BM_DdimNoGuidance)->Arg(20)->Arg(10)->Unit(benchmark::kMillisecond);

// --- Fast inference path: the distilled 5-step sampler against guided
// DDIM-20, both with guidance on.
void BM_FastPath(benchmark::State& state) {
  const bool distilled = state.range(0) != 0;
  run_generation(state, distilled ? "fp32_distilled" : "fp32_ddim20",
                 distilled ? diffusion::SamplerKind::kDistilled
                           : diffusion::SamplerKind::kDdim,
                 distilled ? 5 : 20, 2.0f);
}
BENCHMARK(BM_FastPath)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Per-step U-Net latency on the bare eps evaluation: every forward in
/// a DDIM-20 trajectory is timed individually into a log-bucket
/// histogram, so the report shows the step-latency distribution (not
/// just throughput means).
void BM_StepLatency(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const diffusion::UNet1d& unet = pipeline.unet();
  const auto& cfg = pipeline.config();
  const diffusion::NoiseSchedule schedule(cfg.timesteps,
                                         diffusion::kPipelineSchedule);
  const std::vector<int> class_ids(1, 0);
  telemetry::Histogram hist(
      telemetry::Histogram::exponential_bounds(1e-2, 1e4, 28));  // ms
  diffusion::EpsFn eps_fn = [&](const nn::Tensor& x, std::size_t t) {
    const std::vector<float> timesteps(x.dim(0), static_cast<float>(t));
    const auto start = std::chrono::steady_clock::now();
    nn::Tensor eps = unet.forward(x, timesteps, class_ids);
    hist.observe(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    return eps;
  };
  Rng rng(17);
  const std::vector<std::size_t> shape{1, cfg.autoencoder.latent_dim,
                                       cfg.packets};
  for (auto _ : state) {
    auto out =
        diffusion::ddim_sample(eps_fn, schedule, shape, 20, 0.0f, {&rng, 1});
    benchmark::DoNotOptimize(out);
  }
  const telemetry::HistogramSnapshot snap = hist.snapshot();
  step_histograms()["fp32"] = snap;
  state.counters["step_ms_p50"] = snap.quantile(0.5);
  state.counters["step_ms_p99"] = snap.quantile(0.99);
}

BENCHMARK(BM_StepLatency)->Unit(benchmark::kMillisecond);

void BM_GanBaselineSampling(benchmark::State& state) {
  // Function-local static object (not a leaked raw `new`).
  struct Holder {
    gan::NetFlowGan model;
    Holder() : model(make_config()) {
      Rng rng(2);
      const auto ds = flowgen::build_uniform_dataset(5, rng);
      model.fit(gan::to_netflow(ds.flows));
    }
    static gan::GanConfig make_config() {
      bench::Scale scale;
      gan::GanConfig cfg = bench::gan_config(scale);
      cfg.epochs = 10;
      return cfg;
    }
  };
  static Holder holder;
  std::size_t flows = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto out = holder.model.sample(64);
    benchmark::DoNotOptimize(out);
    flows += 64;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (flows > 0 && secs > 0.0) {
    flow_rates()["gan_baseline"] = static_cast<double>(flows) / secs;
  }
  state.counters["flows_per_s"] =
      benchmark::Counter(static_cast<double>(flows),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GanBaselineSampling)->Unit(benchmark::kMillisecond);

void BM_DecodeOnly(benchmark::State& state) {
  // The non-model tail of the pipeline: latent -> bits -> packets.
  auto& pipeline = shared_pipeline();
  const std::size_t c = pipeline.config().autoencoder.latent_dim;
  const std::size_t l = pipeline.config().packets;
  Rng rng(3);
  nn::Tensor latent({1, c, l});
  for (std::size_t i = 0; i < latent.size(); ++i) {
    latent[i] = static_cast<float>(rng.gaussian());
  }
  for (auto _ : state) {
    nprint::Matrix matrix = pipeline.autoencoder().decode_matrix(latent);
    nprint::quantize(matrix);
    auto flow = nprint::decode_flow(matrix);
    benchmark::DoNotOptimize(flow);
  }
}
BENCHMARK(BM_DecodeOnly)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): after the google-benchmark
// run, emit the machine-readable telemetry report (BENCH_*.json) like
// every other bench so the perf trajectory includes sampling speed.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchReport report("speed_sampling",
                            "§4 generative-speed challenge (flows/second)");
  report.stage("benchmarks");
  benchmark::RunSpecifiedBenchmarks();
  // Headline rates into the results block: flows_per_s_<bench> keys,
  // one per benchmark that ran (filters leave the rest out).
  for (const auto& [key, rate] : flow_rates()) {
    report.note("flows_per_s_" + key, rate);
  }
  for (const auto& [key, snap] : step_histograms()) {
    report.note("step_ms_" + key + "_mean", snap.mean());
    report.note("step_ms_" + key + "_p50", snap.quantile(0.5));
    report.note("step_ms_" + key + "_p90", snap.quantile(0.9));
    report.note("step_ms_" + key + "_p99", snap.quantile(0.99));
    report.note("step_ms_" + key + "_max", snap.max);
    report.note("step_ms_" + key + "_count",
                static_cast<double>(snap.count));
  }
  benchmark::Shutdown();
  return 0;
}
