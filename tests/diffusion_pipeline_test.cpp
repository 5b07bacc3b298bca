// End-to-end pipeline tests on a deliberately tiny configuration —
// these verify wiring (shapes, labels, constraints, prompts), not
// generation quality; the benches measure quality.
#include "diffusion/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "flowgen/generator.hpp"
#include "nprint/codec.hpp"
#include "support/toy_model.hpp"

namespace repro::diffusion {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new TraceDiffusion(toy::config(), toy::classes());
    stats_ = pipeline_->fit(toy::dataset());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }
  static TraceDiffusion* pipeline_;
  static FitStats stats_;
};

TraceDiffusion* PipelineTest::pipeline_ = nullptr;
FitStats PipelineTest::stats_;

TEST_F(PipelineTest, FitReportsFiniteLosses) {
  EXPECT_GT(stats_.flows_used, 0u);
  EXPECT_GT(stats_.unet_parameters, 1000u);
  EXPECT_TRUE(std::isfinite(stats_.ae_final_loss));
  EXPECT_TRUE(std::isfinite(stats_.diffusion_final_loss));
  EXPECT_TRUE(std::isfinite(stats_.control_final_loss));
  EXPECT_LT(stats_.ae_final_loss, 1.0f);
}

TEST_F(PipelineTest, GenerateProducesLabeledFlows) {
  GenerateOptions opts;
  opts.count = 3;
  opts.ddim_steps = 5;
  const auto flows = pipeline_->generate_seeded(1, opts, 1);
  ASSERT_EQ(flows.size(), 3u);
  for (const auto& flow : flows) {
    EXPECT_EQ(flow.label, 1);
    EXPECT_FALSE(flow.packets.empty());
    EXPECT_LE(flow.packets.size(), 8u);
  }
}

TEST_F(PipelineTest, ProjectionEnforcesClassProtocol) {
  GenerateOptions opts;
  opts.count = 2;
  opts.ddim_steps = 5;
  opts.constraint = ConstraintMode::kProjected;
  const auto flows = pipeline_->generate_seeded(0, opts, 2);  // netflix: TCP
  const auto& tmpl = pipeline_->class_template(0);
  for (const auto& flow : flows) {
    for (std::size_t i = 0; i < flow.packets.size(); ++i) {
      EXPECT_EQ(flow.packets[i].ip.protocol, tmpl.per_packet[i]);
    }
  }
}

TEST_F(PipelineTest, GeneratedPacketsAreReplayable) {
  GenerateOptions opts;
  opts.count = 1;
  opts.ddim_steps = 5;
  const auto flows = pipeline_->generate_seeded(0, opts, 3);
  for (const auto& pkt : flows[0].packets) {
    const auto wire = pkt.serialize();
    const net::Packet parsed = net::Packet::parse(wire);
    EXPECT_TRUE(parsed.consistent());
  }
}

TEST_F(PipelineTest, PromptInterface) {
  GenerateOptions opts;
  opts.count = 1;
  opts.ddim_steps = 4;
  const PromptCodec& prompts = pipeline_->prompts();
  const auto by_name = prompts.parse_prompt("teams");
  ASSERT_TRUE(by_name.has_value());
  EXPECT_EQ(pipeline_->generate_seeded(*by_name, opts, 4)[0].label, 1);
  const auto by_type = prompts.parse_prompt("Type-0");
  ASSERT_TRUE(by_type.has_value());
  EXPECT_EQ(pipeline_->generate_seeded(*by_type, opts, 4)[0].label, 0);
  // Rejected at the caller: an unknown prompt does not parse, and the
  // empty prompt is the unconditional id, which names no class.
  EXPECT_FALSE(prompts.parse_prompt("hulu").has_value());
  const auto empty = prompts.parse_prompt("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(*empty, prompts.null_id());
  EXPECT_THROW(pipeline_->generate_seeded(*empty, opts, 4),
               std::invalid_argument);
}

TEST_F(PipelineTest, GenerateDatasetRespectsCounts) {
  GenerateOptions opts;
  opts.ddim_steps = 4;
  const auto ds = pipeline_->generate_dataset({2, 3}, opts, 11);
  EXPECT_EQ(ds.size(), 5u);
  std::size_t class0 = 0, class1 = 0;
  for (const auto& flow : ds.flows) {
    if (flow.label == 0) ++class0;
    if (flow.label == 1) ++class1;
  }
  EXPECT_EQ(class0, 2u);
  EXPECT_EQ(class1, 3u);
}

TEST_F(PipelineTest, GenerateMatrixIsTernary) {
  GenerateOptions opts;
  opts.ddim_steps = 4;
  const net::Flow flow = pipeline_->generate_seeded(0, opts, 5).front();
  const nprint::Matrix matrix =
      nprint::encode_flow(flow, 8, /*pad_to_max=*/true);
  EXPECT_EQ(matrix.rows(), 8u);
  EXPECT_DOUBLE_EQ(nprint::ternary_fraction(matrix), 1.0);
  EXPECT_EQ(pipeline_->class_template(0).per_packet.size(), 8u);
}

TEST_F(PipelineTest, PureNoiseStartAlsoWorks) {
  GenerateOptions opts;
  opts.count = 1;
  opts.ddim_steps = 4;
  opts.template_strength = 1.0f;  // disable one-shot image guidance
  const auto flows = pipeline_->generate_seeded(0, opts, 6);
  EXPECT_EQ(flows.size(), 1u);
}

TEST_F(PipelineTest, ClassesGenerateDistinctMatrices) {
  // Conditioning must produce class-dependent output: the netflix (TCP)
  // and teams (UDP) matrices differ in many bits. (Sample-to-sample
  // diversity within a class is a scale-dependent property checked by
  // the bench harness, not at this unit scale, where a tiny denoiser
  // can legitimately collapse to its class mode.)
  GenerateOptions opts;
  opts.ddim_steps = 6;
  opts.count = 1;
  const auto image = [&](int class_id) {
    return nprint::encode_flow(
        pipeline_->generate_seeded(class_id, opts, 7).front(), 8,
        /*pad_to_max=*/true);
  };
  const nprint::Matrix a = image(0);
  const nprint::Matrix b = image(1);
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    if (a.data()[i] != b.data()[i]) ++diff;
  }
  EXPECT_GT(diff, 100u);
}

TEST_F(PipelineTest, DdpmSamplerAlsoWorks) {
  GenerateOptions opts;
  opts.count = 1;
  opts.sampler = SamplerKind::kDdpm;
  const auto flows = pipeline_->generate_seeded(0, opts, 8);
  EXPECT_EQ(flows.size(), 1u);
}

TEST_F(PipelineTest, GuidanceScaleOneSkipsUnconditionalPass) {
  GenerateOptions opts;
  opts.count = 1;
  opts.ddim_steps = 3;
  opts.guidance_scale = 1.0f;
  const auto flows = pipeline_->generate_seeded(1, opts, 9);
  EXPECT_EQ(flows.size(), 1u);
}

TEST_F(PipelineTest, BadClassIdRejected) {
  GenerateOptions opts;
  EXPECT_THROW(pipeline_->generate_seeded(7, opts, 1), std::invalid_argument);
  EXPECT_THROW(pipeline_->generate_seeded(-1, opts, 1), std::invalid_argument);
  EXPECT_THROW(pipeline_->class_template(9), std::out_of_range);
}

/// A Teams flow with all but packets 0, 1 and 7 blanked, plus the mask of
/// observed slots.
struct LossyFlow {
  net::Flow original;
  net::Flow corrupted;
  std::vector<bool> known;
};

LossyFlow lossy_teams_flow() {
  Rng rng(99);
  LossyFlow lossy;
  lossy.original = flowgen::generate_flow(flowgen::App::kTeams, 8, rng);
  lossy.original.label = 1;
  lossy.known.assign(8, false);
  lossy.known[0] = lossy.known[1] = lossy.known[7] = true;
  lossy.corrupted = lossy.original;
  for (std::size_t i = 0; i < lossy.corrupted.packets.size(); ++i) {
    if (!lossy.known[i]) {
      net::Packet& pkt = lossy.corrupted.packets[i];
      pkt = net::Packet{};  // blanked slot
      pkt.udp = net::UdpHeader{};
      pkt.ip.protocol = net::IpProto::kUdp;
    }
  }
  return lossy;
}

TEST_F(PipelineTest, DeblurRestoresMissingPackets) {
  // Drop the middle packets of a real flow; deblurring must return the
  // observed packets verbatim and synthesize replacements for the rest.
  const LossyFlow lossy = lossy_teams_flow();
  const net::Flow& flow = lossy.original;
  GenerateOptions opts;
  opts.ddim_steps = 6;
  const net::Flow restored =
      pipeline_->deblur(lossy.corrupted, lossy.known, 1, opts, 12);
  ASSERT_GE(restored.packets.size(), 3u);
  // Observed packets are byte-identical (modulo timestamps).
  auto strip_time = [](net::Packet pkt) {
    pkt.timestamp = 0.0;
    return pkt.serialize();
  };
  EXPECT_EQ(strip_time(restored.packets[0]), strip_time(flow.packets[0]));
  EXPECT_EQ(strip_time(restored.packets[1]), strip_time(flow.packets[1]));
  // Synthesized packets are structurally valid and replayable.
  for (const auto& pkt : restored.packets) {
    EXPECT_TRUE(pkt.consistent());
    EXPECT_NO_THROW(net::Packet::parse(pkt.serialize()));
  }
  // Timestamps stay monotone after reassembly.
  for (std::size_t i = 1; i < restored.packets.size(); ++i) {
    EXPECT_GE(restored.packets[i].timestamp,
              restored.packets[i - 1].timestamp);
  }
}

TEST(Pipeline, DeblurBeforeFitThrows) {
  TraceDiffusion fresh(toy::config(), {"a", "b"});
  net::Flow flow;
  EXPECT_THROW(fresh.deblur(flow, {true}, 0, GenerateOptions{}, 1),
               std::logic_error);
}

TEST_F(PipelineTest, GeneratedTimestampsFollowLearnedTiming) {
  GenerateOptions opts;
  opts.count = 3;
  opts.ddim_steps = 5;
  const auto flows = pipeline_->generate_seeded(1, opts, 13);
  bool any_gap_variation = false;
  double prev_gap = -1.0;
  for (const auto& flow : flows) {
    for (std::size_t i = 1; i < flow.packets.size(); ++i) {
      const double gap =
          flow.packets[i].timestamp - flow.packets[i - 1].timestamp;
      EXPECT_GT(gap, 0.0);
      EXPECT_LE(gap, 10.0);
      if (prev_gap >= 0.0 && std::abs(gap - prev_gap) > 1e-9) {
        any_gap_variation = true;
      }
      prev_gap = gap;
    }
  }
  EXPECT_TRUE(any_gap_variation);  // not the degenerate fixed-1ms fallback
}

TEST_F(PipelineTest, ClassTimingFittedFromTrainingData) {
  const auto& timing = pipeline_->class_timing(0);
  // Fitted (not the default-constructed fallback used for unknown ids).
  const auto& fallback = pipeline_->class_timing(999);
  EXPECT_TRUE(timing.log_mu != fallback.log_mu ||
              timing.log_sigma != fallback.log_sigma);
}

void expect_flows_identical(const net::Flow& a, const net::Flow& b) {
  EXPECT_EQ(a.label, b.label);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    EXPECT_EQ(a.packets[i].serialize(), b.packets[i].serialize());
    EXPECT_EQ(a.packets[i].timestamp, b.packets[i].timestamp);  // bit-exact
  }
}

TEST_F(PipelineTest, SeededGenerationIsReproducible) {
  GenerateOptions opts;
  opts.count = 2;
  opts.ddim_steps = 4;
  const auto first = pipeline_->generate_seeded(0, opts, 42);
  // Interleave a call with another class and seed: a seeded call shares
  // no state with any other, so this cannot perturb the replay.
  (void)pipeline_->generate_seeded(1, opts, 99);
  const auto again = pipeline_->generate_seeded(0, opts, 42);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(again.size(), 2u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_flows_identical(first[i], again[i]);
  }
  // A different seed gives different flows (overwhelmingly likely).
  const auto other = pipeline_->generate_seeded(0, opts, 43);
  bool any_diff = false;
  for (std::size_t i = 0; i < other[0].packets.size() &&
                          i < first[0].packets.size();
       ++i) {
    if (other[0].packets[i].serialize() != first[0].packets[i].serialize() ||
        other[0].packets[i].timestamp != first[0].packets[i].timestamp) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(PipelineTest, DeblurIsSeeded) {
  // Deblurring draws all of its noise (inpainting and timestamp gaps)
  // from its seed: the same seed restores the same flow bit for bit,
  // with a generation call in between, and another seed another flow.
  const LossyFlow lossy = lossy_teams_flow();
  GenerateOptions opts;
  opts.ddim_steps = 6;
  const net::Flow first =
      pipeline_->deblur(lossy.corrupted, lossy.known, 1, opts, 21);
  (void)pipeline_->generate_seeded(1, opts, 21);
  const net::Flow again =
      pipeline_->deblur(lossy.corrupted, lossy.known, 1, opts, 21);
  expect_flows_identical(first, again);
  const net::Flow other =
      pipeline_->deblur(lossy.corrupted, lossy.known, 1, opts, 22);
  bool any_diff = other.packets.size() != first.packets.size();
  for (std::size_t i = 0; i < other.packets.size() && i < first.packets.size();
       ++i) {
    if (other.packets[i].serialize() != first.packets[i].serialize() ||
        other.packets[i].timestamp != first.packets[i].timestamp) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(PipelineTest, SeededGenerationIsBatchInvariant) {
  // The serving determinism contract: a flow's bits depend only on its
  // own flow seed, never on which other flows shared the batched model
  // call. For both samplers (DDIM, and DDPM with its per-step noise)
  // and both starts (the SDEdit template start and pure noise), generate
  // three seeds in one [3] call and compare each against its own [1]
  // call.
  struct Sampler {
    const char* name;
    SamplerKind kind;
  };
  const Sampler samplers[] = {{"ddim", SamplerKind::kDdim},
                              {"ddpm", SamplerKind::kDdpm}};
  const std::vector<std::uint64_t> seeds{fork_flow_seed(7, 0),
                                         fork_flow_seed(1234, 5),
                                         fork_flow_seed(7, 1)};
  for (const Sampler& sampler : samplers) {
    for (const float strength : {0.35f, 1.0f}) {
      SCOPED_TRACE(std::string(sampler.name) +
                   (strength < 1.0f ? ", template start" : ", pure noise"));
      GenerateOptions opts;
      opts.sampler = sampler.kind;
      opts.ddim_steps = 4;
      opts.template_strength = strength;
      const auto batched = pipeline_->generate_with_flow_seeds(0, opts, seeds);
      ASSERT_EQ(batched.size(), 3u);
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        const auto single =
            pipeline_->generate_with_flow_seeds(0, opts, {seeds[i]});
        ASSERT_EQ(single.size(), 1u);
        expect_flows_identical(batched[i], single[0]);
      }
      // generate_seeded is exactly the fork_flow_seed expansion.
      GenerateOptions two = opts;
      two.count = 2;
      const auto seeded = pipeline_->generate_seeded(0, two, 7);
      ASSERT_EQ(seeded.size(), 2u);
      expect_flows_identical(seeded[0], batched[0]);
      expect_flows_identical(seeded[1], batched[2]);
    }
  }
}

TEST_F(PipelineTest, SeededGenerationBatchInvariantUnderDdpm) {
  // Same contract through the stochastic sampler (per-step noise) and
  // the pure-noise start, on another class and the default step count.
  GenerateOptions opts;
  opts.sampler = SamplerKind::kDdpm;
  opts.template_strength = 1.0f;
  const std::vector<std::uint64_t> seeds{fork_flow_seed(9, 0),
                                         fork_flow_seed(9, 1)};
  const auto batched = pipeline_->generate_with_flow_seeds(1, opts, seeds);
  const auto single =
      pipeline_->generate_with_flow_seeds(1, opts, {seeds[1]});
  ASSERT_EQ(batched.size(), 2u);
  expect_flows_identical(batched[1], single[0]);
}

TEST_F(PipelineTest, FlowSeedValidation) {
  GenerateOptions opts;
  EXPECT_TRUE(pipeline_->generate_with_flow_seeds(0, opts, {}).empty());
  TraceDiffusion fresh(toy::config(), {"a", "b"});
  EXPECT_THROW(fresh.generate_with_flow_seeds(0, opts, {1}),
               std::logic_error);
  EXPECT_THROW(pipeline_->generate_with_flow_seeds(9, opts, {1}),
               std::invalid_argument);
  // fork_flow_seed mixes properly: no trivial collisions across nearby
  // (seed, index) pairs.
  EXPECT_NE(fork_flow_seed(0, 0), fork_flow_seed(0, 1));
  EXPECT_NE(fork_flow_seed(0, 0), fork_flow_seed(1, 0));
  EXPECT_NE(fork_flow_seed(1, 0), fork_flow_seed(0, 1));
}

TEST_F(PipelineTest, SaveLoadRoundTrip) {
  const std::string prefix = "/tmp/repro_pipeline_ckpt";
  pipeline_->save(prefix);

  TraceDiffusion restored(toy::config(), toy::classes());
  restored.load(prefix);
  EXPECT_FLOAT_EQ(restored.latent_scale(), pipeline_->latent_scale());
  // Templates restored (class template exists and matches protocol).
  const auto& orig = pipeline_->class_template(1);
  const auto& back = restored.class_template(1);
  ASSERT_EQ(back.per_packet.size(), orig.per_packet.size());
  for (std::size_t i = 0; i < back.per_packet.size(); ++i) {
    EXPECT_EQ(back.per_packet[i], orig.per_packet[i]);
  }
  // The restored pipeline generates without a fit() call.
  GenerateOptions opts;
  opts.count = 1;
  opts.ddim_steps = 4;
  const auto flows = restored.generate_seeded(0, opts, 14);
  EXPECT_EQ(flows.size(), 1u);
  std::remove((prefix + ".weights").c_str());
  std::remove((prefix + ".meta").c_str());
}

TEST(Pipeline, SaveBeforeFitThrows) {
  TraceDiffusion fresh(toy::config(), {"a", "b"});
  EXPECT_THROW(fresh.save("/tmp/repro_nofit"), std::logic_error);
  EXPECT_THROW(fresh.load("/tmp/repro_missing_ckpt"), std::runtime_error);
}

TEST(Pipeline, GenerateBeforeFitThrows) {
  TraceDiffusion fresh(toy::config(), {"a", "b"});
  GenerateOptions opts;
  EXPECT_THROW(fresh.generate_seeded(0, opts, 1), std::logic_error);
  EXPECT_THROW(fresh.generate_dataset({1, 1}, opts, 1), std::logic_error);
  EXPECT_THROW(fresh.deblur(net::Flow{}, {true}, 0, opts, 1),
               std::logic_error);
}

TEST(Pipeline, RejectsBadPacketCount) {
  PipelineConfig cfg = toy::config();
  cfg.packets = 10;  // not divisible by 4
  EXPECT_THROW(TraceDiffusion(cfg, {"a"}), std::invalid_argument);
}

TEST(Pipeline, FitRejectsEmptyDataset) {
  TraceDiffusion fresh(toy::config(), {"a", "b"});
  EXPECT_THROW(fresh.fit(flowgen::Dataset{}), std::invalid_argument);
}

TEST(Pipeline, LoraFineTuneRequiresRankAndFit) {
  PipelineConfig cfg = toy::config();
  TraceDiffusion no_rank(cfg, {"a", "b"});
  EXPECT_THROW(no_rank.fit_lora(toy::dataset(1), 1), std::logic_error);

  cfg.unet.lora_rank = 2;
  cfg.train_control = false;
  TraceDiffusion with_rank(cfg, toy::classes());
  EXPECT_THROW(with_rank.fit_lora(toy::dataset(1), 1), std::logic_error);
  with_rank.fit(toy::dataset(3));
  const float loss = with_rank.fit_lora(toy::dataset(2), 1);
  EXPECT_TRUE(std::isfinite(loss));
  // Base must be unfrozen again afterwards.
  for (nn::Parameter* p : with_rank.unet().parameters()) {
    EXPECT_TRUE(p->trainable);
  }
}

}  // namespace
}  // namespace repro::diffusion
