// Tests for the telemetry layer: the counter registry (including its
// reset-between-runs contract) and peak-RSS sampling.

#include <gtest/gtest.h>

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

TEST(TelemetryRegistry, ResetZeroesButKeepsSlotAddresses) {
  Registry& reg = Registry::instance();
  reg.reset();
  telemetry::Counter& slot = reg.counter("test.stable");
  slot.value = 7;
  RP_COUNT("test.macro", 3);
  reg.reset();
  EXPECT_EQ(reg.counter_value("test.stable"), 0);
  EXPECT_EQ(reg.counter_value("test.macro"), 0);
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

TEST(TelemetryRss, PeakRssIsPositiveOnSupportedPlatforms) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(telemetry::peak_rss_kb(), 0);
#else
  GTEST_SKIP() << "peak RSS not sampled on this platform";
#endif
}

}  // namespace
}  // namespace rp
