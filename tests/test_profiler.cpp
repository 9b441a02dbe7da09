// Tests for the in-process profiler: histogram bucket-edge behavior,
// quantiles on known sample sets, the region registry's reset contract,
// thread-pool busy/wait accounting (busy + wait == region wall per worker),
// TraceSpan feeding the profiler, and the off-by-default guarantees (no
// "profile" block in unprofiled reports, worker tids only in traces).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"

namespace rp {
namespace {

using profiler::LatencyHistogram;
using profiler::Profiler;

/// RAII: enable the profiler for one test, restore "off" after.
struct ProfileScope {
  ProfileScope() {
    profiler::reset_all();
    profiler::set_enabled(true);
  }
  ~ProfileScope() {
    profiler::set_enabled(false);
    profiler::reset_all();
  }
};

TEST(LatencyHistogram, BucketEdgesAreStrictlyAscendingLogSpaced) {
  const std::uint64_t* e = LatencyHistogram::edges_ns();
  EXPECT_EQ(e[0], 0u);
  EXPECT_EQ(e[1], 100u);  // first finite edge: 100 ns
  for (int i = 1; i <= LatencyHistogram::kBuckets; ++i) {
    EXPECT_LT(e[i - 1], e[i]) << "edge " << i;
    if (i >= 5) {
      EXPECT_EQ(e[i], e[i - 4] * 10) << "decade step at edge " << i;
    }
  }
  // Last edge covers 1000 s.
  EXPECT_EQ(e[LatencyHistogram::kBuckets], 1000000000000ull);
}

TEST(LatencyHistogram, BucketOfMatchesEdgesExactly) {
  const std::uint64_t* e = LatencyHistogram::edges_ns();
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(99), 0);
  for (int b = 1; b < LatencyHistogram::kBuckets; ++b) {
    // A value exactly on a lower edge lands in that bucket; one below goes
    // into the previous bucket (half-open [lo, hi) ranges).
    EXPECT_EQ(LatencyHistogram::bucket_of(e[b]), b) << "edge " << b;
    EXPECT_EQ(LatencyHistogram::bucket_of(e[b] - 1), b - 1) << "edge " << b;
  }
  // Beyond the last edge clamps into the last bucket instead of dropping.
  EXPECT_EQ(LatencyHistogram::bucket_of(e[LatencyHistogram::kBuckets] + 12345),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, QuantilesOnKnownSamples) {
  LatencyHistogram h;
  // 100 samples: 1 µs ... 100 µs.
  for (std::uint64_t i = 1; i <= 100; ++i) h.record(i * 1000);
  EXPECT_EQ(h.samples, 100u);
  EXPECT_DOUBLE_EQ(h.min_us(), 1.0);
  EXPECT_DOUBLE_EQ(h.max_us(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean_us(), 50.5);
  // Log-spaced buckets make quantiles interpolations, not exact order
  // statistics — allow one bucket width (10^(1/4) ≈ 1.78x) of slack.
  EXPECT_NEAR(h.quantile_us(0.50), 50.0, 50.0 * 0.8);
  EXPECT_NEAR(h.quantile_us(0.95), 95.0, 95.0 * 0.8);
  EXPECT_NEAR(h.quantile_us(0.99), 99.0, 99.0 * 0.8);
  // The ordering contract is exact, not approximate.
  const double p50 = h.quantile_us(0.50), p95 = h.quantile_us(0.95),
               p99 = h.quantile_us(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max_us());
  EXPECT_GE(p50, h.min_us());
}

TEST(LatencyHistogram, SingleSampleQuantilesCollapseToIt) {
  LatencyHistogram h;
  h.record(1234567);  // 1234.567 µs
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile_us(q), 1234.567) << "q=" << q;
}

TEST(LatencyHistogram, MergeMatchesInterleavedRecording) {
  LatencyHistogram a, b, all;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    a.record(i * 997);
    all.record(i * 997);
  }
  for (std::uint64_t i = 1; i <= 80; ++i) {
    b.record(i * 131071);
    all.record(i * 131071);
  }
  a.merge(b);
  EXPECT_EQ(a.samples, all.samples);
  EXPECT_EQ(a.total_ns, all.total_ns);
  EXPECT_EQ(a.min_ns, all.min_ns);
  EXPECT_EQ(a.max_ns, all.max_ns);
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
    EXPECT_EQ(a.counts[i], all.counts[i]) << "bucket " << i;
  EXPECT_DOUBLE_EQ(a.quantile_us(0.95), all.quantile_us(0.95));
}

TEST(Profiler, ResetZeroesButKeepsSlotAddresses) {
  Profiler& p = Profiler::instance();
  profiler::Region& slot = p.region("test/stable");
  slot.hist.record(1000);
  EXPECT_EQ(p.region("test/stable").hist.samples, 1u);
  p.reset();
  EXPECT_EQ(p.region("test/stable").hist.samples, 0u);
  // The pre-reset reference still works — this is what makes the
  // RP_PROFILE_REGION static slot caching safe across flow runs.
  slot.hist.record(2000);
  EXPECT_EQ(p.region("test/stable").hist.samples, 1u);
}

TEST(Profiler, ScopedRegionRecordsOnlyWhenEnabled) {
  Profiler::instance().reset();
  {
    RP_PROFILE_REGION("test/disabled_site");
  }
  EXPECT_EQ(Profiler::instance().region("test/disabled_site").hist.samples, 0u);
  {
    ProfileScope on;
    {
      RP_PROFILE_REGION("test/enabled_site");
    }
    EXPECT_EQ(Profiler::instance().region("test/enabled_site").hist.samples, 1u);
  }
}

TEST(Profiler, TraceSpanFeedsRegionHistogramWithoutTracing) {
  ProfileScope on;
  ASSERT_FALSE(telemetry::trace_enabled());
  {
    RP_TRACE_SPAN("test/span_region");
  }
  EXPECT_EQ(Profiler::instance().region("test/span_region").hist.samples, 1u);
}

TEST(PoolProfile, BusyPlusWaitEqualsRegionWallPerWorker) {
  ProfileScope on;
  parallel::set_num_threads(4);
  std::vector<double> out(20000);
  parallel::parallel_for(out.size(), 64, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) out[i] = std::sqrt(static_cast<double>(i));
  });
  const parallel::PoolProfile p = parallel::pool_profile();
  parallel::set_num_threads(1);

  EXPECT_EQ(p.threads, 4);
  EXPECT_GE(p.regions, 1);
  ASSERT_EQ(p.workers.size(), 4u);
  // wait := wall - busy by construction, so the sum is exact per worker and
  // the per-region identity survives accumulation over regions:
  //   Σ_w (busy_w + wait_w) == threads · Σ wall.
  double busy_wait_sum = 0.0;
  std::int64_t chunks = 0;
  for (const parallel::WorkerProfile& w : p.workers) {
    busy_wait_sum += static_cast<double>(w.busy_ns + w.wait_ns);
    chunks += w.chunks;
  }
  const double expected = static_cast<double>(p.threads) * p.wall_ns;
  EXPECT_NEAR(busy_wait_sum, expected, 1e-6 * expected + 1.0);
  EXPECT_EQ(chunks, static_cast<std::int64_t>(p.chunk_hist.samples));
  EXPECT_GT(p.busy_ns, 0.0);
  EXPECT_LE(p.busy_ns, expected);
  EXPECT_GT(p.efficiency_mean, 0.0);
  EXPECT_LE(p.efficiency_mean, 1.0 + 1e-9);
  EXPECT_GE(p.imbalance_max, 1.0 - 1e-9);
}

TEST(PoolProfile, SingleThreadInlineRegionsAreAccounted) {
  ProfileScope on;
  parallel::set_num_threads(1);
  std::vector<double> out(5000);
  parallel::parallel_for(out.size(), 16, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) out[i] = static_cast<double>(i) * 0.5;
  });
  const parallel::PoolProfile p = parallel::pool_profile();
  EXPECT_EQ(p.threads, 1);
  EXPECT_GE(p.regions, 1);
  ASSERT_EQ(p.workers.size(), 1u);
  EXPECT_GT(p.workers[0].busy_ns, 0u);
  EXPECT_GT(p.chunk_hist.samples, 0u);
}

TEST(PoolProfile, DisabledMeansZeroAccounting) {
  profiler::reset_all();
  ASSERT_FALSE(profiler::enabled());
  parallel::set_num_threads(2);
  std::vector<double> out(5000);
  parallel::parallel_for(out.size(), 16, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) out[i] = static_cast<double>(i);
  });
  const parallel::PoolProfile p = parallel::pool_profile();
  parallel::set_num_threads(1);
  EXPECT_EQ(p.regions, 0);
  EXPECT_EQ(p.chunk_hist.samples, 0u);
  for (const parallel::WorkerProfile& w : p.workers) EXPECT_EQ(w.busy_ns, 0u);
}

TEST(PoolProfile, ProfilingDoesNotChangeResults) {
  std::vector<double> base(30000), profiled(30000);
  const auto fill = [](std::vector<double>& v) {
    parallel::parallel_for(v.size(), 64, [&](std::size_t b, std::size_t e, int) {
      for (std::size_t i = b; i < e; ++i)
        v[i] = std::sin(static_cast<double>(i)) * 1e-3 + std::sqrt(static_cast<double>(i));
    });
  };
  parallel::set_num_threads(4);
  fill(base);
  {
    ProfileScope on;
    fill(profiled);
  }
  parallel::set_num_threads(1);
  EXPECT_EQ(base, profiled);  // bitwise: profiling only reads clocks
}

TEST(TraceEvents, PoolChunksCarryWorkerTids) {
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
  parallel::set_num_threads(1);

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

}  // namespace
}  // namespace rp
