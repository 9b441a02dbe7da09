// Tests for the telemetry layer: the counter/gauge registry (including its
// reset-between-runs contract), the trace-span buffer and its Chrome
// trace-event JSON serialization (pool chunks on worker lanes included),
// and peak-RSS sampling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/telemetry.hpp"

namespace rp {
namespace {

using telemetry::Registry;

TEST(TelemetryRegistry, CountersAccumulate) {
  Registry& reg = Registry::instance();
  reg.reset();
  RP_COUNT("test.alpha", 1);
  RP_COUNT("test.alpha", 2);
  RP_COUNT("test.beta", 5);
  EXPECT_EQ(reg.counter_value("test.alpha"), 3);
  EXPECT_EQ(reg.counter_value("test.beta"), 5);
  EXPECT_EQ(reg.counter_value("test.never_touched"), 0);
}

TEST(TelemetryRegistry, GaugesKeepLastValue) {
  Registry& reg = Registry::instance();
  reg.reset();
  RP_GAUGE("test.gauge", 1.5);
  RP_GAUGE("test.gauge", 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("test.gauge"), 2.5);
}

TEST(TelemetryRegistry, ResetZeroesButKeepsSlotAddresses) {
  Registry& reg = Registry::instance();
  reg.reset();
  telemetry::Counter& slot = reg.counter("test.stable");
  slot.value = 7;
  RP_GAUGE("test.g", 3.0);
  reg.reset();
  EXPECT_EQ(reg.counter_value("test.stable"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("test.g"), 0.0);
  // The slot reference from before the reset still works — this is what
  // makes the RP_COUNT static-pointer caching safe across flow runs.
  slot.value += 4;
  EXPECT_EQ(reg.counter_value("test.stable"), 4);
}

TEST(TelemetryRegistry, SnapshotsAreNameSorted) {
  Registry& reg = Registry::instance();
  reg.reset();
  RP_COUNT("test.zz", 1);
  RP_COUNT("test.aa", 1);
  const auto snap = reg.counters();
  ASSERT_GE(snap.size(), 2u);
  for (std::size_t i = 1; i < snap.size(); ++i) EXPECT_LT(snap[i - 1].first, snap[i].first);
}

TEST(TelemetryTrace, DisabledByDefaultAndSpansAreFree) {
  telemetry::stop_trace();
  EXPECT_FALSE(telemetry::trace_enabled());
  const std::size_t before = telemetry::trace_events().size();
  { RP_TRACE_SPAN("should_not_record"); }
  EXPECT_EQ(telemetry::trace_events().size(), before);
}

TEST(TelemetryTrace, SpansNestAndSerialize) {
  telemetry::start_trace();
  {
    RP_TRACE_SPAN("outer");
    {
      RP_TRACE_SPAN("inner");
    }
  }
  telemetry::stop_trace();

  const auto& events = telemetry::trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Children close first, so "inner" is recorded before "outer".
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 0);
  // Containment: inner's interval sits within outer's.
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us + 1e-6);

  // The serialized buffer is valid Chrome trace-event JSON: the two spans
  // plus the lane-naming metadata rows (thread_name / thread_sort_index).
  const JsonValue doc = json_parse(telemetry::trace_json());
  ASSERT_TRUE(doc.is_object());
  const JsonValue& tev = doc.at("traceEvents");
  ASSERT_TRUE(tev.is_array());
  std::size_t spans = 0, meta = 0;
  for (const JsonValue& e : tev.arr) {
    EXPECT_TRUE(e.at("name").is_string());
    if (e.at("ph").str == "M") {
      ++meta;
      continue;
    }
    ++spans;
    EXPECT_EQ(e.at("ph").str, "X");
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_GE(e.at("dur").num, 0.0);
    EXPECT_EQ(e.at("tid").num, 0.0);  // main-thread spans ride lane 0
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_GE(meta, 1u);
}

TEST(TelemetryTrace, StartClearsPreviousBuffer) {
  telemetry::start_trace();
  { RP_TRACE_SPAN("first_session"); }
  telemetry::start_trace();
  { RP_TRACE_SPAN("second_session"); }
  telemetry::stop_trace();
  ASSERT_EQ(telemetry::trace_events().size(), 1u);
  EXPECT_EQ(telemetry::trace_events()[0].name, "second_session");
}

TEST(TelemetryTrace, WriteProducesParsableFile) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "rp_test_trace.json";
  telemetry::start_trace();
  { RP_TRACE_SPAN("span \"with\" quotes\n"); }
  telemetry::stop_trace();
  ASSERT_TRUE(telemetry::write_trace_json(path.string()));

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const JsonValue doc = json_parse(ss.str());
  bool found = false;
  for (const JsonValue& e : doc.at("traceEvents").arr)
    found = found || (e.at("ph").str == "X" &&
                      e.at("name").str == "span \"with\" quotes\n");
  EXPECT_TRUE(found);
  fs::remove(path);
}

TEST(TraceEvents, PoolChunksCarryWorkerTids) {
  const int saved_threads = parallel::num_threads();
  parallel::set_num_threads(3);
  telemetry::start_trace();
  // The chunk->worker race is dynamic: on a fast machine the caller can
  // drain a tiny region before the workers even wake, putting every chunk
  // on lane 0. Re-run regions with real per-chunk work until a worker
  // participates (bounded; one pass is the overwhelmingly common case).
  std::vector<double> out(200000);
  int max_tid = 0;
  for (int attempt = 0; attempt < 50 && max_tid == 0; ++attempt) {
    parallel::parallel_for(out.size(), 64, [&](std::size_t b, std::size_t e, int) {
      for (std::size_t i = b; i < e; ++i)
        out[i] = std::sin(static_cast<double>(i)) + std::sqrt(static_cast<double>(i));
    });
    for (const telemetry::TraceEvent& e : telemetry::trace_events())
      if (e.name == "pool/chunk") max_tid = std::max(max_tid, e.tid);
  }
  telemetry::stop_trace();
  parallel::set_num_threads(saved_threads);

  int chunk_events = 0;
  for (const telemetry::TraceEvent& e : telemetry::trace_events()) {
    if (e.name == "pool/chunk") {
      ++chunk_events;
      EXPECT_GE(e.tid, 0);
      EXPECT_LT(e.tid, 3);
    } else {
      EXPECT_EQ(e.tid, 0) << "main-thread span on a worker lane";
    }
  }
  EXPECT_GT(chunk_events, 0);
  EXPECT_GT(max_tid, 0);
  const std::string json = telemetry::trace_json();
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("worker-1"), std::string::npos);
}

TEST(TelemetryRss, PeakRssIsPositiveOnSupportedPlatforms) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(telemetry::peak_rss_kb(), 0);
#else
  GTEST_SKIP() << "peak RSS not sampled on this platform";
#endif
}

}  // namespace
}  // namespace rp
