// Regression tests for REPRO_BENCH_DIR: bench reports and telemetry
// exports must land where the environment points, and default to the
// working directory when unset; a checks-on build never writes under
// reports/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "../bench/bench_common.hpp"
#include "common/telemetry/export.hpp"

namespace repro::telemetry {
namespace {

/// Restores REPRO_BENCH_DIR on scope exit so tests cannot leak state.
class ScopedBenchDir {
 public:
  explicit ScopedBenchDir(const char* value) {
    // repro-lint: allow(RL003) -- must see set-vs-unset to restore exactly
    const char* prev = std::getenv("REPRO_BENCH_DIR");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (value != nullptr) {
      ::setenv("REPRO_BENCH_DIR", value, 1);
    } else {
      ::unsetenv("REPRO_BENCH_DIR");
    }
  }
  ~ScopedBenchDir() {
    if (had_prev_) {
      ::setenv("REPRO_BENCH_DIR", prev_.c_str(), 1);
    } else {
      ::unsetenv("REPRO_BENCH_DIR");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(BenchReportPath, UnsetEnvPassesFilenameThrough) {
  ScopedBenchDir env(nullptr);
  EXPECT_EQ(report_path("BENCH_foo.json"), "BENCH_foo.json");
}

TEST(BenchReportPath, EmptyEnvPassesFilenameThrough) {
  ScopedBenchDir env("");
  EXPECT_EQ(report_path("BENCH_foo.json"), "BENCH_foo.json");
}

TEST(BenchReportPath, PrefixesFilenameWithDirectory) {
  const auto dir =
      std::filesystem::temp_directory_path() / "repro_bench_dir_test";
  std::filesystem::remove_all(dir);
  ScopedBenchDir env(dir.c_str());
  const std::string path = report_path("BENCH_foo.json");
  EXPECT_EQ(path, (dir / "BENCH_foo.json").string());
  // The directory is created eagerly so a following fopen(path, "w")
  // cannot fail on a missing parent.
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  std::filesystem::remove_all(dir);
}

TEST(BenchReportPath, ReReadsEnvironmentOnEveryCall) {
  const auto dir_a =
      std::filesystem::temp_directory_path() / "repro_bench_dir_a";
  const auto dir_b =
      std::filesystem::temp_directory_path() / "repro_bench_dir_b";
  ScopedBenchDir env(dir_a.c_str());
  EXPECT_EQ(report_path("x.json"), (dir_a / "x.json").string());
  {
    ScopedBenchDir inner(dir_b.c_str());
    EXPECT_EQ(report_path("x.json"), (dir_b / "x.json").string());
  }
  EXPECT_EQ(report_path("x.json"), (dir_a / "x.json").string());
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

// Every bench report must carry the run's determinism provenance —
// thread count, compiled SIMD width, and whether runtime contracts were
// active — so two BENCH_*.json files can be compared apples-to-apples.
TEST(BenchReport, RecordsRuntimeProvenance) {
  const auto dir =
      std::filesystem::temp_directory_path() / "repro_bench_provenance";
  std::filesystem::remove_all(dir);
  ScopedBenchDir env(dir.c_str());
  {
    bench::BenchReport report("provenance_probe", "provenance regression");
    report.finish();
  }
  std::ifstream in(dir / "BENCH_provenance_probe.json");
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"threads\""), std::string::npos);
  EXPECT_NE(json.find("\"simd_width\":" +
                      std::to_string(REPRO_SIMD_WIDTH)),
            std::string::npos);
  const std::string checks =
      std::string("\"checks\":") + (contracts_enabled() ? "true" : "false");
  EXPECT_NE(json.find(checks), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(BenchReportPath, ReportsDirectoryComponentIsDetected) {
  EXPECT_TRUE(bench::under_reports_dir("reports/threads1/BENCH_x.json"));
  EXPECT_TRUE(bench::under_reports_dir("/tmp/a/reports/BENCH_x.json"));
  EXPECT_FALSE(bench::under_reports_dir("/tmp/myreports/BENCH_x.json"));
  EXPECT_FALSE(bench::under_reports_dir("/tmp/a/reports.d/BENCH_x.json"));
}

// The committed baselines under reports/ come from REPRO_CHECKS=OFF
// builds: a checks-on build must refuse to write there, and a
// checks-off build writes as usual.
TEST(BenchReport, ChecksOnBuildWritesNothingUnderReports) {
  const auto root =
      std::filesystem::temp_directory_path() / "repro_bench_refuse";
  const auto dir = root / "reports" / "threads1";
  std::filesystem::remove_all(root);
  ScopedBenchDir env(dir.c_str());
  {
    bench::BenchReport report("refuse_probe", "checks-on refusal");
    report.finish();
  }
  EXPECT_EQ(std::filesystem::exists(dir / "BENCH_refuse_probe.json"),
            !contracts_enabled());
  std::filesystem::remove_all(root);
}

TEST(BenchReportPath, WrittenReportLandsInBenchDir) {
  const auto dir =
      std::filesystem::temp_directory_path() / "repro_bench_dir_write";
  std::filesystem::remove_all(dir);
  ScopedBenchDir env(dir.c_str());
  const std::string path = report_path("BENCH_smoke.json");
  ASSERT_TRUE(write_text_file(path, "{\"bench\":\"smoke\"}\n"));
  EXPECT_TRUE(std::filesystem::exists(dir / "BENCH_smoke.json"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace repro::telemetry
