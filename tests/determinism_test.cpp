// Golden determinism harness: the parallel layer must never change
// results. Each scenario rebuilds its state from a fixed seed and runs
// at REPRO_THREADS = 1, 2 and 8 lanes; outputs are hashed bit-exactly
// (float bit patterns, serialized packets) and must match across every
// thread count. A mismatch means a reduction reordered or a data race
// corrupted a hot path — the one failure mode parallelism must not have.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "common/parallel/thread_pool.hpp"
#include "common/rng.hpp"
#include "diffusion/distill.hpp"
#include "diffusion/pipeline.hpp"
#include "diffusion/sampler.hpp"
#include "diffusion/schedule.hpp"
#include "diffusion/unet1d.hpp"
#include "flowgen/dataset.hpp"
#include "flowgen/generator.hpp"
#include "flowgen/tcp_session.hpp"
#include "ml/features.hpp"
#include "ml/random_forest.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/tensor.hpp"
#include "nprint/codec.hpp"
#include "replay/emit/emitter.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"

namespace repro {
namespace {

void hash_bytes(std::uint64_t& h, const void* data, std::size_t size) {
  h = fnv1a(data, size, h);
}

std::uint64_t hash_floats(const float* data, std::size_t count) {
  std::uint64_t h = kFnvOffset;
  hash_bytes(h, data, count * sizeof(float));
  return h;
}

std::uint64_t hash_tensor(const nn::Tensor& t) {
  return hash_floats(t.data(), t.size());
}

std::uint64_t hash_flows(const std::vector<net::Flow>& flows) {
  std::uint64_t h = kFnvOffset;
  for (const auto& flow : flows) {
    hash_bytes(h, &flow.label, sizeof(flow.label));
    for (const auto& pkt : flow.packets) {
      hash_bytes(h, &pkt.timestamp, sizeof(pkt.timestamp));
      const auto wire = pkt.serialize();
      hash_bytes(h, wire.data(), wire.size());
    }
  }
  return h;
}

/// Runs `scenario` at 1, 2 and 8 lanes and asserts bit-identical hashes.
void expect_thread_invariant(const char* what,
                             const std::function<std::uint64_t()>& scenario) {
  const std::size_t original = parallel::thread_count();
  parallel::set_thread_count(1);
  const std::uint64_t serial = scenario();
  for (const std::size_t lanes : {2u, 8u}) {
    parallel::set_thread_count(lanes);
    EXPECT_EQ(serial, scenario()) << what << " diverged at " << lanes
                                  << " threads";
  }
  parallel::set_thread_count(original);
}

TEST(Determinism, RandomForestTrainingAndPrediction) {
  expect_thread_invariant("random forest", [] {
    Rng rng(11);
    const flowgen::Dataset data = flowgen::build_uniform_dataset(6, rng);
    const ml::FeatureMatrix features = ml::netflow_features(data.flows);
    ml::ForestConfig config;
    config.num_trees = 12;
    ml::RandomForest forest(config);
    forest.fit(features);

    std::uint64_t h = kFnvOffset;
    const auto predictions = forest.predict(features);
    hash_bytes(h, predictions.data(), predictions.size() * sizeof(int));
    for (const auto& row : features.rows) {
      const auto probs = forest.predict_proba(row);
      hash_bytes(h, probs.data(), probs.size() * sizeof(float));
    }
    const auto importance = forest.feature_importance();
    hash_bytes(h, importance.data(), importance.size() * sizeof(double));
    const double accuracy = forest.score(features);
    hash_bytes(h, &accuracy, sizeof(accuracy));
    return h;
  });
}

TEST(Determinism, DiffusionSamplingSteps) {
  expect_thread_invariant("diffusion sampling", [] {
    Rng init_rng(23);
    diffusion::UNetConfig config;
    config.in_channels = 6;
    config.base_channels = 8;
    config.temb_dim = 16;
    config.num_classes = 3;
    config.groups = 2;
    diffusion::UNet1d unet(config, init_rng);

    const diffusion::NoiseSchedule schedule(20, diffusion::ScheduleKind::kCosine);
    const std::vector<int> class_ids(2, 1);
    diffusion::EpsFn eps_fn = [&](const nn::Tensor& x, std::size_t t) {
      const std::vector<float> timesteps(x.dim(0), static_cast<float>(t));
      return unet.forward(x, timesteps, class_ids);
    };
    // DDIM exercises the deterministic update; DDPM adds the serially
    // pre-drawn per-element noise. Both go through the parallel nn
    // forward paths (matmul, conv, attention) on every step.
    Rng sample_rng(31);
    const nn::Tensor ddim = diffusion::ddim_sample(
        eps_fn, schedule, {2, 6, 8}, /*steps=*/4, /*eta=*/0.5f,
        {&sample_rng, 1});
    const nn::Tensor ddpm = diffusion::ddpm_sample_from(eps_fn, schedule, ddim,
                                                        3, {&sample_rng, 1});
    std::uint64_t h = hash_tensor(ddim);
    hash_bytes(h, ddpm.data(), ddpm.size() * sizeof(float));
    return h;
  });
}

TEST(Determinism, NnTrainingStepGradients) {
  expect_thread_invariant("unet backward", [] {
    Rng rng(5);
    diffusion::UNetConfig config;
    config.in_channels = 4;
    config.base_channels = 8;
    config.temb_dim = 16;
    config.num_classes = 2;
    config.groups = 2;
    diffusion::UNet1d unet(config, rng);
    nn::Tensor x({2, 4, 8});
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(rng.gaussian());
    }
    const std::vector<float> timesteps(2, 3.0f);
    const std::vector<int> class_ids(2, 0);
    const nn::Tensor out = unet.forward(x, timesteps, class_ids);
    const nn::Tensor grad_x = unet.backward(out);

    std::uint64_t h = hash_tensor(out);
    hash_bytes(h, grad_x.data(), grad_x.size() * sizeof(float));
    for (nn::Parameter* p : unet.parameters()) {
      hash_bytes(h, p->grad.data(), p->grad.size() * sizeof(float));
    }
    return h;
  });
}

TEST(Determinism, GemmKernelOutputs) {
  // The GEMM layer chunks rows across threads (and takes a serial fast
  // path for small problems); every shape adapter must hash identically
  // at 1, 2 and 8 lanes. Sizes are big enough (m*n*k > 2^16) to force
  // the parallel path when lanes > 1, with odd dims to cover the
  // kMr / kNr tails.
  expect_thread_invariant("gemm kernels", [] {
    Rng rng(83);
    const std::size_t m = 97, k = 41, n = 83;
    nn::Tensor a({m, k});
    nn::Tensor b({k, n});
    nn::Tensor bt({n, k});
    nn::Tensor a2({m, n});
    for (auto* t : {&a, &b, &bt, &a2}) {
      for (std::size_t i = 0; i < t->size(); ++i) {
        (*t)[i] = static_cast<float>(rng.gaussian());
      }
    }
    std::uint64_t h = hash_tensor(nn::matmul(a, b));
    hash_bytes(h, &kFnvPrime, 1);  // separator
    nn::Tensor c_bt({m, n});
    nn::kernels::gemm_nt(m, k, n, a.data(), bt.data(), c_bt.data());
    hash_bytes(h, c_bt.data(), c_bt.size() * sizeof(float));
    nn::Tensor c_at({k, n});
    nn::kernels::gemm_tn(m, k, n, a.data(), a2.data(), c_at.data());
    hash_bytes(h, c_at.data(), c_at.size() * sizeof(float));
    return h;
  });
}

TEST(Determinism, DistilledSamplerSteps) {
  // The distilled few-step trajectory: closed-form gain fitting (serial
  // double accumulation) plus the fixed-chunk elementwise updates must
  // be bit-identical at any lane count, through a real U-Net eps fn.
  expect_thread_invariant("distilled sampling", [] {
    Rng init_rng(71);
    diffusion::UNetConfig config;
    config.in_channels = 6;
    config.base_channels = 8;
    config.temb_dim = 16;
    config.num_classes = 3;
    config.groups = 2;
    diffusion::UNet1d unet(config, init_rng);

    const diffusion::NoiseSchedule schedule(20,
                                            diffusion::ScheduleKind::kCosine);
    const std::vector<int> class_ids(2, 1);
    diffusion::EpsFn eps_fn = [&](const nn::Tensor& x, std::size_t t) {
      const std::vector<float> timesteps(x.dim(0), static_cast<float>(t));
      return unet.forward(x, timesteps, class_ids);
    };
    Rng data_rng(73);
    nn::Tensor calib({2, 6, 8});
    for (std::size_t i = 0; i < calib.size(); ++i) {
      calib[i] = static_cast<float>(data_rng.gaussian());
    }
    const diffusion::StageFit fit = diffusion::distill_halve(
        eps_fn, schedule, diffusion::teacher_stage(19, 6), calib);
    const nn::Tensor out =
        diffusion::distilled_sample_from(eps_fn, schedule, calib, fit.stage);
    std::uint64_t h = hash_tensor(out);
    hash_bytes(h, fit.stage.gains.data(),
               fit.stage.gains.size() * sizeof(float));
    return h;
  });
}

TEST(Determinism, FlowgenDatasetBuild) {
  expect_thread_invariant("flowgen dataset", [] {
    Rng rng(47);
    const flowgen::Dataset data = flowgen::build_table1_dataset(5, rng);
    return hash_flows(data.flows);
  });
}

TEST(Determinism, OpenLoopReplayEmission) {
  // The replay emitter under a virtual pacer is pure discrete-event
  // simulation: pcap bytes and the conservation counters must be
  // bit-identical at any lane count (flow generation and emission both
  // run on top of the parallel layer's deterministic primitives).
  expect_thread_invariant("open-loop replay emission", [] {
    Rng rng(91);
    const auto& profile = flowgen::app_profile(flowgen::App::kNetflix);
    std::vector<net::Flow> flows;
    for (std::size_t i = 0; i < 10; ++i) {
      flowgen::Endpoints ep;
      ep.client_addr = 0x0A000001u + static_cast<std::uint32_t>(i);
      ep.server_addr = 0x0D000001u;
      ep.client_port = static_cast<std::uint16_t>(40000 + i);
      ep.server_port = 443;
      flows.push_back(flowgen::generate_tcp_flow(profile, ep, 8, rng));
    }

    replay::emit::EmitConfig config;
    config.target_pps = 20000.0;
    config.total_flows = 10;
    config.arrival = replay::emit::Arrival::kExponential;
    config.seed = 19;
    replay::emit::VectorFlowSource source(flows);
    replay::emit::VirtualPacer pacer;
    std::ostringstream bytes;
    replay::emit::PcapSink sink(bytes);
    replay::emit::OpenLoopEmitter emitter(config, source, pacer, sink);
    const replay::emit::EmitReport report = emitter.run();
    EXPECT_TRUE(report.conserved());

    std::uint64_t h = kFnvOffset;
    const std::string pcap = bytes.str();
    hash_bytes(h, pcap.data(), pcap.size());
    hash_bytes(h, &report.flows_emitted, sizeof(report.flows_emitted));
    hash_bytes(h, &report.packets_emitted, sizeof(report.packets_emitted));
    hash_bytes(h, &report.underruns, sizeof(report.underruns));
    hash_bytes(h, &report.last_emit, sizeof(report.last_emit));
    return h;
  });
}

TEST(Determinism, ServedReplayEmissionMatchesLibrary) {
  // Full-stack replay determinism: pacing flows through the serving
  // layer (queue -> batcher -> model) must emit the exact bytes of the
  // direct generate_seeded path, and those bytes must not move with the
  // lane count. The tiny pipeline is trained once, outside the
  // lane-swept scenario — only generation and emission are under test.
  diffusion::PipelineConfig cfg;
  cfg.packets = 8;
  cfg.autoencoder.hidden_dim = 48;
  cfg.autoencoder.latent_dim = 8;
  cfg.unet.base_channels = 8;
  cfg.unet.temb_dim = 16;
  cfg.unet.groups = 4;
  cfg.timesteps = 20;
  cfg.ae_epochs = 10;
  cfg.diffusion_epochs = 2;
  cfg.control_epochs = 1;
  cfg.seed = 5;
  auto pipeline = std::make_shared<diffusion::TraceDiffusion>(
      cfg, std::vector<std::string>{"netflix", "teams"});
  {
    Rng rng(77);
    flowgen::Dataset ds;
    for (std::size_t i = 0; i < 5; ++i) {
      net::Flow a = flowgen::generate_flow(flowgen::App::kNetflix, 8, rng);
      a.label = 0;
      ds.flows.push_back(std::move(a));
      net::Flow b = flowgen::generate_flow(flowgen::App::kTeams, 8, rng);
      b.label = 1;
      ds.flows.push_back(std::move(b));
    }
    pipeline->fit(ds);
  }

  expect_thread_invariant("served replay emission", [&pipeline] {
    replay::emit::EmitConfig config;
    config.target_pps = 10000.0;
    config.total_flows = 6;
    config.arrival = replay::emit::Arrival::kExponential;
    config.seed = 21;

    serve::ModelRegistry registry;
    registry.install("default", pipeline, "v1");
    auto now = std::make_shared<double>(0.0);
    serve::ServiceConfig svc;
    svc.batch.max_wait = 0.0;
    svc.base_options.ddim_steps = 4;
    svc.cache_capacity = 0;  // force the full generation path
    svc.clock = [now] { return *now; };
    serve::TraceService service(registry, svc);

    replay::emit::ServedSourceConfig src;
    src.class_id = 0;
    src.seed_base = 42;
    src.total_flows = 6;
    src.ring_capacity = 4;
    src.flows_per_request = 2;
    src.ddim_steps = 4;
    replay::emit::ServedFlowSource served(service, src);
    replay::emit::VirtualPacer served_pacer;
    std::ostringstream served_bytes;
    replay::emit::PcapSink served_sink(served_bytes);
    replay::emit::OpenLoopEmitter served_emitter(config, served, served_pacer,
                                                 served_sink);
    const replay::emit::EmitReport served_report = served_emitter.run();

    diffusion::GenerateOptions lib_opts;
    lib_opts.count = 2;  // == flows_per_request
    lib_opts.ddim_steps = 4;
    replay::emit::LibraryFlowSource library(*pipeline, 0, lib_opts, 42, 6);
    replay::emit::VirtualPacer lib_pacer;
    std::ostringstream lib_bytes;
    replay::emit::PcapSink lib_sink(lib_bytes);
    replay::emit::OpenLoopEmitter lib_emitter(config, library, lib_pacer,
                                              lib_sink);
    const replay::emit::EmitReport lib_report = lib_emitter.run();

    EXPECT_TRUE(served_report.conserved());
    EXPECT_EQ(served_report.underruns, 0u);
    EXPECT_FALSE(served_bytes.str().empty());
    EXPECT_EQ(served_bytes.str(), lib_bytes.str());
    (void)lib_report;

    std::uint64_t h = kFnvOffset;
    const std::string pcap = served_bytes.str();
    hash_bytes(h, pcap.data(), pcap.size());
    return h;
  });
}

TEST(Determinism, NprintEncodeDecodeRoundtrip) {
  expect_thread_invariant("nprint codec", [] {
    Rng rng(61);
    const flowgen::Dataset data = flowgen::build_uniform_dataset(2, rng);
    std::uint64_t h = kFnvOffset;
    for (const auto& flow : data.flows) {
      const nprint::Matrix matrix =
          nprint::encode_flow(flow, 32, /*pad_to_max=*/true);
      hash_bytes(h, matrix.data().data(),
                 matrix.data().size() * sizeof(float));
      const net::Flow decoded = nprint::decode_flow(matrix);
      const std::uint64_t fh = hash_flows({decoded});
      hash_bytes(h, &fh, sizeof(fh));
    }
    return h;
  });
}

}  // namespace
}  // namespace repro
