// Checkpoints are untrusted input: every length and index a checkpoint
// file declares is checked before anything is allocated or looked up
// from it, and a lying value is a std::runtime_error — never a
// multi-gigabyte allocation, a bad_alloc or an out-of-range stage.
//
// Each case hand-writes a file whose length or index field is a lie
// (0xFFFFFFFF, or just past the valid range) and is otherwise complete,
// so the lie itself is what must be caught. This suite lives in its own
// executable: it replaces the global allocator with one that refuses
// any single request above 256 MiB, so an unchecked 0xFFFFFFFF length
// shows up as std::bad_alloc instead of gigabytes of real memory.
// Cheap enough for the `sanitize` label: the fitted pipelines are
// toy-sized.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <new>
#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "diffusion/pipeline.hpp"
#include "nn/linear.hpp"
#include "nn/serialize.hpp"
#include "support/toy_model.hpp"

// The replaced global allocator below intentionally pairs ::operator new
// with std::free; GCC cannot see that the new side is malloc-backed.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

constexpr std::size_t kMaxAllocation = std::size_t{256} << 20;

void* checked_alloc(std::size_t size) {
  if (size <= kMaxAllocation) {
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return checked_alloc(size); }
void* operator new[](std::size_t size) { return checked_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace repro {
namespace {

constexpr std::uint32_t kLie = 0xFFFFFFFFu;
constexpr std::uint32_t kWeightsMagic = 0x5052574E;  // "NWRP"
constexpr std::uint32_t kMetaMagic = 0x54444D33;     // "TDM3"

/// A file path unique to the running test: ctest runs each test in its
/// own process, in parallel.
std::string temp_path(const std::string& suffix) {
  const std::string test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  return (std::filesystem::temp_directory_path() /
          ("repro_bounds_" + test + suffix))
      .string();
}

void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  body(out);
}

// --- nn::load_parameters ----------------------------------------------------

class WeightsBounds : public ::testing::Test {
 protected:
  WeightsBounds() : rng_(3), layer_(2, 2, rng_, true, "layer") {}
  void TearDown() override { std::remove(path_.c_str()); }

  Rng rng_;
  nn::Linear layer_;
  const std::string path_ = temp_path(".weights");
};

TEST_F(WeightsBounds, LyingNameLengthThrowsBeforeAllocating) {
  write_file(path_, [&](std::ostream& out) {
    write_pod(out, kWeightsMagic);
    write_pod(out, static_cast<std::uint32_t>(layer_.parameters().size()));
    write_pod(out, kLie);  // name length
  });
  EXPECT_THROW(nn::load_parameters(path_, layer_.parameters()),
               std::runtime_error);
}

TEST_F(WeightsBounds, LyingRankThrowsBeforeAllocating) {
  const std::string& name = layer_.parameters().front()->name;
  write_file(path_, [&](std::ostream& out) {
    write_pod(out, kWeightsMagic);
    write_pod(out, static_cast<std::uint32_t>(layer_.parameters().size()));
    write_pod(out, static_cast<std::uint32_t>(name.size()));
    write_bytes(out, name.data(), name.size());
    write_pod(out, kLie);  // rank
  });
  EXPECT_THROW(nn::load_parameters(path_, layer_.parameters()),
               std::runtime_error);
}

// --- TraceDiffusion::load meta ----------------------------------------------

/// The toy model with a 10-step schedule, which the lying stages below
/// are sized against, and one epoch per stage: these cases need a
/// checkpoint that loads, not a trained model, and fit one per test.
diffusion::PipelineConfig bounds_config() {
  diffusion::PipelineConfig cfg = toy::config();
  cfg.timesteps = 10;
  cfg.ae_epochs = 1;
  cfg.diffusion_epochs = 1;
  cfg.control_epochs = 1;
  return cfg;
}

/// A toy pipeline, fitted and saved for each test: its `.weights` are
/// valid, so every case below reaches the hand-written `.meta`.
class MetaBounds : public ::testing::Test {
 protected:
  void SetUp() override {
    diffusion::TraceDiffusion pipeline(bounds_config(), {"a", "b"});
    pipeline.fit(toy::dataset(1));
    pipeline.save(prefix_);
    std::ifstream in(prefix_ + ".meta", std::ios::binary);
    saved_meta_.assign(std::istreambuf_iterator<char>(in), {});
  }
  void TearDown() override {
    std::remove((prefix_ + ".weights").c_str());
    std::remove((prefix_ + ".meta").c_str());
  }

  const std::string prefix_ = temp_path("_ckpt");
  std::string saved_meta_;  // the `.meta` save() wrote

  /// Writes `.meta` from the header (magic, latent scale) on, then
  /// expects load() to refuse it with a runtime_error.
  void expect_rejected(const std::function<void(std::ostream&)>& body) {
    write_file(prefix_ + ".meta", [&](std::ostream& out) {
      write_pod(out, kMetaMagic);
      write_pod(out, 1.0f);  // latent scale
      body(out);
    });
    diffusion::TraceDiffusion fresh(bounds_config(), {"a", "b"});
    EXPECT_THROW(fresh.load(prefix_), std::runtime_error);
  }

  /// Empty template and timing sections, then one distilled stage with
  /// `steps` taus (at most two are written for a lying count).
  static void stage(std::ostream& out, std::int32_t class_id, std::uint32_t t0,
                    std::uint32_t steps, std::uint32_t tau) {
    write_pod(out, std::uint32_t{0});  // templates
    write_pod(out, std::uint32_t{0});  // timing models
    write_pod(out, std::uint32_t{1});  // stages
    write_pod(out, class_id);
    write_pod(out, t0);
    write_pod(out, steps);
    const std::uint32_t written = steps == kLie ? 2 : steps;
    for (std::uint32_t i = 0; i < written; ++i) write_pod(out, tau);
    for (std::uint32_t i = 0; i < written; ++i) write_pod(out, 1.0f);
  }
};

TEST_F(MetaBounds, LyingPacketLengthThrows) {
  expect_rejected([](std::ostream& out) {
    write_pod(out, std::uint32_t{1});  // template count
    write_pod(out, std::int32_t{0});   // class id
    write_pod(out, std::uint32_t{1});  // packet count
    write_pod(out, 0.0);               // timestamp
    write_pod(out, kLie);              // packet length
  });
}

TEST_F(MetaBounds, TemplateClassOutOfRangeThrows) {
  // The saved file with only its first template's class id (offset 12:
  // after magic, latent scale and template count) rewritten.
  for (const std::int32_t class_id : {2, -1}) {
    std::string meta = saved_meta_;
    ASSERT_GT(meta.size(), 16u);
    std::memcpy(meta.data() + 12, &class_id, sizeof class_id);
    write_file(prefix_ + ".meta", [&](std::ostream& out) { out << meta; });
    diffusion::TraceDiffusion fresh(bounds_config(), {"a", "b"});
    EXPECT_THROW(fresh.load(prefix_), std::runtime_error) << class_id;
  }
}

TEST_F(MetaBounds, TimingClassOutOfRangeThrows) {
  expect_rejected([](std::ostream& out) {
    write_pod(out, std::uint32_t{0});  // templates
    write_pod(out, std::uint32_t{1});  // timing models
    write_pod(out, std::int32_t{7});
    write_pod(out, -6.0f);
    write_pod(out, 1.0f);
    write_pod(out, std::uint32_t{0});  // stages
  });
}

TEST_F(MetaBounds, LyingDistilledStageThrows) {
  // Step count beyond the schedule (10 timesteps), and 0xFFFFFFFF.
  expect_rejected([](std::ostream& out) { stage(out, 0, 5, 11, 0); });
  expect_rejected([](std::ostream& out) { stage(out, 0, 5, kLie, 0); });
  // Start timestep or tau outside the schedule.
  expect_rejected([](std::ostream& out) { stage(out, 0, 10, 1, 0); });
  expect_rejected([](std::ostream& out) { stage(out, 0, 5, 1, 10); });
  // Class id out of range.
  expect_rejected([](std::ostream& out) { stage(out, 2, 5, 1, 0); });
}

TEST_F(MetaBounds, SavedCheckpointStillLoads) {
  diffusion::TraceDiffusion pipeline(bounds_config(), {"a", "b"});
  pipeline.load(prefix_);
  diffusion::GenerateOptions opts;
  opts.ddim_steps = 2;
  EXPECT_EQ(pipeline.generate_seeded(0, opts, 1).size(), 1u);
}

}  // namespace
}  // namespace repro
