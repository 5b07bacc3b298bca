// Unit tests for the telemetry layer: metric semantics, histogram
// quantiles on known distributions, span tree shape, the enabled/disabled
// gate, and the JSON exporters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/telemetry/export.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"

namespace repro::telemetry {
namespace {

/// Every test starts from an enabled, empty registry/profile and leaves
/// the global switch as it found it.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    set_enabled(true);
    Registry::instance().reset();
    reset_profile();
  }
  void TearDown() override {
    Registry::instance().reset();
    reset_profile();
    set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

// --- Metric semantics -------------------------------------------------

TEST_F(TelemetryTest, CounterAddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, GaugeSetAddReset) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(TelemetryTest, RegistryFindOrCreateReturnsSameObject) {
  Counter& a = Registry::instance().counter("test.reg.counter");
  a.add(3);
  Counter& b = Registry::instance().counter("test.reg.counter");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
}

TEST_F(TelemetryTest, RegistryResetZeroesButKeepsObjects) {
  Counter& c = Registry::instance().counter("test.reset.counter");
  Gauge& g = Registry::instance().gauge("test.reset.gauge");
  c.add(7);
  g.set(7.0);
  Registry::instance().reset();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed in place
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  const auto snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("test.reset.counter"), 0u);
}

TEST_F(TelemetryTest, ConvenienceRecordersFeedSnapshot) {
  count("test.conv.counter", 2);
  count("test.conv.counter");
  gauge_set("test.conv.gauge", 1.25);
  observe("test.conv.hist", 0.5);
  const auto snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("test.conv.counter"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.conv.gauge"), 1.25);
  EXPECT_EQ(snap.histograms.at("test.conv.hist").count, 1u);
}

// --- Histogram quantiles ---------------------------------------------

TEST_F(TelemetryTest, HistogramBasicStats) {
  Histogram h({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.5, 1.5, 3.0, 10.0}) h.observe(v);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 16.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 10.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 3.3);
  // Bucket layout: (-inf,1], (1,2], (2,4], (4,inf) -> 1, 2, 1, 1.
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
}

TEST_F(TelemetryTest, QuantilesOnUniformDistribution) {
  // 1..1000 uniform into decile buckets: the q-quantile is ~1000q and
  // interpolation error is bounded by one bucket width (100).
  std::vector<double> bounds;
  for (int i = 1; i <= 10; ++i) bounds.push_back(100.0 * i);
  Histogram h(bounds);
  for (int v = 1; v <= 1000; ++v) h.observe(static_cast<double>(v));
  const auto snap = h.snapshot();
  EXPECT_NEAR(snap.quantile(0.50), 500.0, 100.0);
  EXPECT_NEAR(snap.quantile(0.95), 950.0, 100.0);
  EXPECT_NEAR(snap.quantile(0.99), 990.0, 100.0);
  // Edges are exact at the observed extremes.
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1000.0);
  // Monotone in q.
  double prev = snap.quantile(0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double cur = snap.quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST_F(TelemetryTest, QuantileSinglePointDistribution) {
  Histogram h({1.0, 10.0});
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  const auto snap = h.snapshot();
  // All mass sits in one bucket; clipping to min/max makes every
  // quantile exactly the observed point.
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 5.0);
}

TEST_F(TelemetryTest, QuantileEmptyHistogramIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
}

TEST_F(TelemetryTest, ExponentialBoundsAreAscendingAndCover) {
  const auto bounds = Histogram::exponential_bounds(1e-6, 100.0, 33);
  ASSERT_EQ(bounds.size(), 33u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_NEAR(bounds.back(), 100.0, 1e-9);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

// --- Spans ------------------------------------------------------------

TEST_F(TelemetryTest, SpanNestingBuildsTree) {
  {
    REPRO_SPAN("test.outer");
    for (int i = 0; i < 3; ++i) {
      REPRO_SPAN("test.inner");
      {
        REPRO_SPAN("test.leaf");
      }
    }
  }
  {
    REPRO_SPAN("test.outer");  // second call of the same top-level span
  }
  const SpanReport root = profile_snapshot();
  ASSERT_EQ(root.children.size(), 1u);
  const SpanReport& outer = root.children[0];
  EXPECT_EQ(outer.name, "test.outer");
  EXPECT_EQ(outer.calls, 2u);
  ASSERT_EQ(outer.children.size(), 1u);
  const SpanReport& inner = outer.children[0];
  EXPECT_EQ(inner.name, "test.inner");
  EXPECT_EQ(inner.calls, 3u);
  ASSERT_EQ(inner.children.size(), 1u);
  EXPECT_EQ(inner.children[0].name, "test.leaf");
  EXPECT_EQ(inner.children[0].calls, 3u);
  // Inclusive time dominates children; self is the remainder.
  EXPECT_GE(outer.total_seconds, inner.total_seconds);
  EXPECT_GE(outer.self_seconds, 0.0);
  EXPECT_NEAR(outer.self_seconds, outer.total_seconds - inner.total_seconds,
              1e-9);
  EXPECT_EQ(root.node_count(), 3u);
}

TEST_F(TelemetryTest, SameNameUnderDifferentParentsIsTwoNodes) {
  {
    REPRO_SPAN("test.a");
    { REPRO_SPAN("test.shared"); }
  }
  {
    REPRO_SPAN("test.b");
    { REPRO_SPAN("test.shared"); }
  }
  const SpanReport root = profile_snapshot();
  ASSERT_EQ(root.children.size(), 2u);
  for (const auto& top : root.children) {
    ASSERT_EQ(top.children.size(), 1u);
    EXPECT_EQ(top.children[0].name, "test.shared");
    EXPECT_EQ(top.children[0].calls, 1u);
  }
}

TEST_F(TelemetryTest, ResetProfileClearsTree) {
  { REPRO_SPAN("test.tmp"); }
  EXPECT_EQ(profile_snapshot().children.size(), 1u);
  reset_profile();
  EXPECT_TRUE(profile_snapshot().children.empty());
}

TEST_F(TelemetryTest, TextReportListsSpans) {
  {
    REPRO_SPAN("test.report.outer");
    { REPRO_SPAN("test.report.inner"); }
  }
  const std::string report = profile_text_report();
  EXPECT_NE(report.find("test.report.outer"), std::string::npos);
  EXPECT_NE(report.find("test.report.inner"), std::string::npos);
}

// --- The enabled/disabled gate ---------------------------------------

TEST_F(TelemetryTest, DisabledRecordersHaveNoEffect) {
  set_enabled(false);
  count("test.off.counter", 5);
  gauge_set("test.off.gauge", 1.0);
  observe("test.off.hist", 1.0);
  { REPRO_SPAN("test.off.span"); }
  set_enabled(true);
  const auto snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.counters.count("test.off.counter"), 0u);
  EXPECT_EQ(snap.gauges.count("test.off.gauge"), 0u);
  EXPECT_EQ(snap.histograms.count("test.off.hist"), 0u);
  EXPECT_TRUE(profile_snapshot().children.empty());
}

TEST_F(TelemetryTest, DirectRegistryAccessWorksEvenWhenDisabled) {
  // The gate applies to the convenience recorders; code holding explicit
  // references still records (callers opt in to that cost).
  set_enabled(false);
  Registry::instance().counter("test.direct").add();
  set_enabled(true);
  EXPECT_EQ(Registry::instance().snapshot().counters.at("test.direct"), 1u);
}

// --- JSON export ------------------------------------------------------

/// Minimal structural validator: quotes, escapes, and bracket balance.
/// Not a full parser — enough to catch broken comma/brace emission.
bool json_is_balanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      case ',':
        // A comma immediately before a closing bracket is invalid JSON.
        if (i + 1 < s.size() && (s[i + 1] == '}' || s[i + 1] == ']')) {
          return false;
        }
        break;
      default:
        break;
    }
  }
  return stack.empty() && !in_string;
}

TEST_F(TelemetryTest, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "\"plain\"");
  EXPECT_EQ(json_escape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_escape("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_escape("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST_F(TelemetryTest, JsonWriterCommasAndSpecials) {
  JsonWriter json;
  json.begin_object();
  json.key("a");
  json.value(std::uint64_t{1});
  json.key("b");
  json.begin_array();
  json.value(1.5);
  json.value(std::nan(""));  // not representable -> null
  json.value(true);
  json.end_array();
  json.key("s");
  json.value("x");
  json.end_object();
  const std::string out = std::move(json).str();
  EXPECT_EQ(out, "{\"a\":1,\"b\":[1.5,null,true],\"s\":\"x\"}");
}

TEST_F(TelemetryTest, MetricsJsonRoundTrip) {
  count("test.json.counter", 4);
  gauge_set("test.json.gauge", 0.5);
  for (int i = 1; i <= 10; ++i) {
    observe("test.json.hist", 0.001 * i);
  }
  const std::string json = metrics_json(Registry::instance().snapshot());
  EXPECT_TRUE(json_is_balanced(json)) << json;
  EXPECT_NE(json.find("\"test.json.counter\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json.gauge\":0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\""), std::string::npos) << json;
}

TEST_F(TelemetryTest, TelemetryJsonIncludesSpans) {
  {
    REPRO_SPAN("test.json.span");
    count("test.json.inner");
  }
  const std::string json = telemetry_json();
  EXPECT_TRUE(json_is_balanced(json)) << json;
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json.span\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"calls\":1"), std::string::npos) << json;
}

TEST_F(TelemetryTest, ChromeTraceJsonHasSliceEvents) {
  {
    REPRO_SPAN("test.trace.outer");
    { REPRO_SPAN("test.trace.inner"); }
  }
  const std::string json = chrome_trace_json();
  EXPECT_TRUE(json_is_balanced(json)) << json;
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"test.trace.outer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.trace.inner\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
}

}  // namespace
}  // namespace repro::telemetry
