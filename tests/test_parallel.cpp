// util/parallel + model/netlist_csr: the determinism contract. Every test
// that matters here asserts BITWISE equality of kernel outputs across
// different pool sizes — the property the snapshot/report gates rely on.
// The pool's busy/wait accounting (PoolProfile, read by perfbench) is
// checked here too: it adds up, and switching it on changes no result.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "gen/generator.hpp"
#include "model/density.hpp"
#include "model/netlist_csr.hpp"
#include "model/problem.hpp"
#include "model/wirelength.hpp"
#include "route/estimator.hpp"
#include "solver/cg.hpp"
#include "util/logger.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace rp {
namespace {

/// Restore the global pool size on scope exit so tests don't leak state.
struct PoolGuard {
  int saved = parallel::num_threads();
  ~PoolGuard() { parallel::set_num_threads(saved); }
};

TEST(ResolveThreads, ReadsOnlyWellFormedEnv) {
  // Resolution only: no pool of any of these sizes is started.
  const char* saved = std::getenv("RP_THREADS");
  const bool had = saved != nullptr;
  const std::string restore = had ? saved : "";
  const int hw = parallel::hardware_threads();
  EXPECT_EQ(parallel::resolve_threads(3), 3);  // an explicit request wins
  for (const char* ok : {"1", "8", "1024"}) {
    setenv("RP_THREADS", ok, 1);
    EXPECT_EQ(parallel::resolve_threads(0), std::atoi(ok)) << ok;
  }
  for (const char* bad : {"", "0", "-5", " 5", "5abc", "+5", "1025",
                          "99999999999", "abc"}) {
    setenv("RP_THREADS", bad, 1);
    EXPECT_EQ(parallel::resolve_threads(0), hw) << "'" << bad << "'";
  }
  unsetenv("RP_THREADS");
  EXPECT_EQ(parallel::resolve_threads(0), hw);
  if (had) setenv("RP_THREADS", restore.c_str(), 1);
}

TEST(ChunkPlan, CoversRangeWithoutOverlap) {
  for (const std::size_t n : {0UL, 1UL, 7UL, 64UL, 1000UL, 123457UL}) {
    const parallel::ChunkPlan plan = parallel::plan_chunks(n, 64);
    std::size_t covered = 0;
    for (int c = 0; c < plan.count; ++c) {
      EXPECT_EQ(plan.begin(c), covered);
      EXPECT_LE(plan.begin(c), plan.end(c));
      covered = plan.end(c);
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(ChunkPlan, IndependentOfThreadCount) {
  // The plan is a pure function of (n, grain, cap) — no thread-count input
  // even exists in the signature; pin the layout so a refactor that sneaks
  // one in breaks loudly.
  const parallel::ChunkPlan p = parallel::plan_chunks(1000, 100);
  EXPECT_EQ(p.count, 10);
  EXPECT_EQ(p.begin(0), 0u);
  EXPECT_EQ(p.end(9), 1000u);
  EXPECT_EQ(parallel::plan_chunks(50, 100).count, 1);
  EXPECT_EQ(parallel::plan_chunks(0, 100).count, 0);
  EXPECT_EQ(parallel::plan_chunks(1000000, 1, 64).count, 64);
}

TEST(ThreadPool, ParallelForTouchesEveryIndexOnce) {
  PoolGuard guard;
  for (const int threads : {1, 2, 4}) {
    parallel::set_num_threads(threads);
    std::vector<std::atomic<int>> hits(1000);
    parallel::parallel_for(hits.size(), 8, [&](std::size_t b, std::size_t e, int w) {
      EXPECT_GE(w, 0);
      EXPECT_LT(w, parallel::num_threads());
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReduceBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  // Values with wildly different magnitudes, so association order matters.
  Rng rng(42);
  std::vector<double> v(100000);
  for (double& x : v) x = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));

  const auto sum = [&] {
    return parallel::parallel_reduce(
        v.size(), 1024, 0.0,
        [&](std::size_t b, std::size_t e, int) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i) s += v[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  parallel::set_num_threads(1);
  const double s1 = sum();
  for (const int threads : {2, 3, 8}) {
    parallel::set_num_threads(threads);
    for (int rep = 0; rep < 5; ++rep) {
      const double st = sum();
      EXPECT_EQ(std::memcmp(&s1, &st, sizeof s1), 0)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(ThreadPool, NestedRegionsRunInline) {
  PoolGuard guard;
  parallel::set_num_threads(4);
  std::vector<double> out(64, 0.0);
  parallel::parallel_for(8, 1, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i)
      parallel::parallel_for(8, 1, [&](std::size_t b2, std::size_t e2, int) {
        for (std::size_t j = b2; j < e2; ++j) out[i * 8 + j] = static_cast<double>(i * 8 + j);
      });
  });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<double>(i));
}

// ------------------------------------------------- fork-join handshake
// The pool hands jobs to spinning or parked workers through an epoch and an
// epoch-tagged chunk cursor; these tests drive that handshake hard: many
// short regions back to back, regions far enough apart that every worker
// parks, resizes between regions, and two submitting threads at once.

/// `n` values of wildly different magnitudes (association order matters).
std::vector<double> mixed_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));
  return v;
}

/// One region of `chunks` chunks over v[0, 8·chunks): records how often each
/// chunk ran (plain ints — the handshake must publish them to the caller)
/// and returns the chunk-ordered sum.
double counted_region(const std::vector<double>& v, int chunks, std::vector<int>& hits) {
  const std::size_t n = static_cast<std::size_t>(chunks) * 8;
  const parallel::ChunkPlan plan = parallel::plan_chunks(n, 8);
  std::vector<double> partial(static_cast<std::size_t>(plan.count));
  const int threads = parallel::num_threads();
  parallel::ThreadPool::instance().run(plan, [&](int c, int w) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, threads);
    ++hits[static_cast<std::size_t>(c)];
    double s = 0.0;
    for (std::size_t i = plan.begin(c); i < plan.end(c); ++i) s += v[i];
    partial[static_cast<std::size_t>(c)] = s;
  });
  double acc = 0.0;
  for (const double p : partial) acc += p;
  return acc;
}

/// Runs `regions` regions with 2..64 chunks; every chunk must run exactly
/// once. Returns the per-region sums.
std::vector<double> run_counted_regions(const std::vector<double>& v, int regions) {
  std::vector<double> sums;
  sums.reserve(static_cast<std::size_t>(regions));
  std::vector<int> hits(64);
  for (int r = 0; r < regions; ++r) {
    const int chunks = 2 + (r * 37) % 63;
    std::fill(hits.begin(), hits.end(), 0);
    sums.push_back(counted_region(v, chunks, hits));
    for (int c = 0; c < 64; ++c)
      if (hits[static_cast<std::size_t>(c)] != (c < chunks ? 1 : 0)) {
        ADD_FAILURE() << "region " << r << " (" << chunks << " chunks): chunk " << c
                      << " ran " << hits[static_cast<std::size_t>(c)] << " times";
        return sums;
      }
  }
  return sums;
}

/// A region whose chunks only finish once `threads` chunks run at the same
/// time — i.e. once every worker has joined. Returns false on a timeout (a
/// worker that never woke).
bool all_workers_join(int threads) {
  std::atomic<int> arrived{0};
  std::atomic<bool> timed_out{false};
  parallel::ThreadPool::instance().run(parallel::plan_chunks(static_cast<std::size_t>(threads), 1),
                                       [&](int, int) {
    arrived.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (arrived.load() < threads) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  return !timed_out.load();
}

TEST(ThreadPool, BackToBackRegionsRunEachChunkOnceAndMatchOneThread) {
  PoolGuard guard;
  const std::vector<double> v = mixed_values(64 * 8, 3);
  constexpr int kRegions = 20000;
  parallel::set_num_threads(1);
  const std::vector<double> ref = run_counted_regions(v, kRegions);
  for (const int threads : {2, 4, 8}) {
    parallel::set_num_threads(threads);
    const std::vector<double> got = run_counted_regions(v, kRegions);
    ASSERT_EQ(got.size(), ref.size()) << "threads=" << threads;
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)), 0)
        << "threads=" << threads;
  }
}

TEST(ThreadPool, ParkedWorkersWakeForSparseRegions) {
  // Each sleep outlasts the workers' spin window, so every region starts
  // with all workers parked; each must be woken, every time.
  PoolGuard guard;
  const std::vector<double> v = mixed_values(64 * 8, 4);
  parallel::set_num_threads(1);
  const std::vector<double> ref = run_counted_regions(v, 40);
  for (const int threads : {2, 4}) {
    parallel::set_num_threads(threads);
    std::vector<int> hits(64);
    for (int r = 0; r < 40; ++r) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      ASSERT_TRUE(all_workers_join(threads)) << "threads=" << threads << " region " << r;
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      std::fill(hits.begin(), hits.end(), 0);
      const double s = counted_region(v, 2 + (r * 37) % 63, hits);
      EXPECT_EQ(std::memcmp(&s, &ref[static_cast<std::size_t>(r)], sizeof s), 0)
          << "threads=" << threads << " region " << r;
    }
  }
}

TEST(ThreadPool, ParkedCallerWakesWhenTheLastChunkFinishes) {
  // The caller's chunk returns at once while the worker's outlasts the spin
  // window, so the caller parks waiting for completion and must be woken.
  PoolGuard guard;
  parallel::set_num_threads(2);
  for (int r = 0; r < 20; ++r) {
    std::atomic<int> arrived{0};
    std::vector<int> ran_by(2, -1);
    parallel::ThreadPool::instance().run(parallel::plan_chunks(2, 1), [&](int c, int w) {
      arrived.fetch_add(1);
      while (arrived.load() < 2) std::this_thread::yield();
      if (w != 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ran_by[static_cast<std::size_t>(c)] = w;
    });
    EXPECT_NE(ran_by[0], ran_by[1]) << "region " << r;
  }
}

TEST(ThreadPool, ResizeBetweenRegions) {
  PoolGuard guard;
  const std::vector<double> v = mixed_values(64 * 8, 5);
  parallel::set_num_threads(1);
  const std::vector<double> ref = run_counted_regions(v, 500);
  for (const int threads : {4, 2, 8}) {
    parallel::set_num_threads(threads);
    ASSERT_EQ(parallel::num_threads(), threads);
    EXPECT_TRUE(all_workers_join(threads)) << "threads=" << threads;
    const std::vector<double> got = run_counted_regions(v, 500);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)), 0)
        << "threads=" << threads;
  }
}

TEST(ThreadPool, ConcurrentSubmittersGetTheirOwnResults) {
  // Two threads submit regions at once; the submit mutex serializes whole
  // jobs, so each thread sees only its own chunks and its own sums.
  PoolGuard guard;
  const std::vector<double> va = mixed_values(64 * 8, 6), vb = mixed_values(64 * 8, 7);
  parallel::set_num_threads(1);
  const std::vector<double> ref_a = run_counted_regions(va, 3000);
  const std::vector<double> ref_b = run_counted_regions(vb, 3000);
  parallel::set_num_threads(4);
  std::vector<double> got_a, got_b;
  std::thread other([&] { got_b = run_counted_regions(vb, 3000); });
  got_a = run_counted_regions(va, 3000);
  other.join();
  ASSERT_EQ(got_a.size(), ref_a.size());
  ASSERT_EQ(got_b.size(), ref_b.size());
  EXPECT_EQ(std::memcmp(got_a.data(), ref_a.data(), ref_a.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(got_b.data(), ref_b.data(), ref_b.size() * sizeof(double)), 0);
}

// ------------------------------------------------- multi-part jobs
// run_parts queues several chunk plans as one job. Each chunk runs under its
// index in its own plan, so per-part chunk-ordered combines keep their bits.

/// Sums of v over each part's chunks, from one job of three parts (8 fat
/// chunks, an empty plan, then `small` chunks) or from one region per part.
/// Fails the test unless every chunk ran exactly once, under its own index.
std::vector<double> run_parts_sums(const std::vector<double>& v, int small, bool one_job) {
  const parallel::ChunkPlan fat = parallel::plan_chunks(v.size(), v.size() / 8);
  const parallel::ChunkPlan none{};
  const parallel::ChunkPlan thin = parallel::plan_chunks(v.size(), 1, small);
  std::vector<double> pf(static_cast<std::size_t>(fat.count));
  std::vector<double> pt(static_cast<std::size_t>(thin.count));
  std::vector<int> hf(pf.size()), ht(pt.size());
  std::atomic<int> stray{0};
  const int threads = parallel::num_threads();
  const auto part = [&](const parallel::ChunkPlan& plan, std::vector<double>& out,
                        std::vector<int>& hits) {
    return [&v, &stray, threads, plan, o = out.data(), h = hits.data()](int c, int w) {
      if (c < 0 || c >= plan.count || w < 0 || w >= threads) {
        stray.fetch_add(1);
        return;
      }
      ++h[c];
      double sum = 0.0;
      for (std::size_t i = plan.begin(c); i < plan.end(c); ++i) sum += v[i];
      o[c] = sum;
    };
  };
  const auto f = part(fat, pf, hf);
  const auto t = part(thin, pt, ht);
  const auto never = [&](int, int) { stray.fetch_add(1); };
  parallel::ThreadPool& pool = parallel::ThreadPool::instance();
  if (one_job) {
    pool.run_parts({{fat, f}, {none, never}, {thin, t}});
  } else {
    pool.run(fat, f);
    pool.run(thin, t);
  }
  EXPECT_EQ(stray.load(), 0);
  for (const int h : hf) EXPECT_EQ(h, 1);
  for (const int h : ht) EXPECT_EQ(h, 1);
  double sf = 0.0, st = 0.0;
  for (const double x : pf) sf += x;
  for (const double x : pt) st += x;
  return {sf, st};
}

TEST(ThreadPool, MultiPartJobRunsEachChunkOnceAndMatchesSeparateRegions) {
  PoolGuard guard;
  const std::vector<double> v = mixed_values(64 * 8, 11);
  parallel::set_num_threads(1);
  const std::vector<double> ref = run_parts_sums(v, 64, false);
  for (const int threads : {1, 2, 4, 8}) {
    parallel::set_num_threads(threads);
    const parallel::ThreadPool& pool = parallel::ThreadPool::instance();
    for (int rep = 0; rep < 500; ++rep) {
      const int small = 2 + (rep * 37) % 63;
      const std::vector<double> sep = run_parts_sums(v, small, false);
      const std::int64_t regions0 = pool.regions_run(), chunks0 = pool.chunks_run();
      const std::vector<double> got = run_parts_sums(v, small, true);
      // One job is one region, with every part's chunks.
      EXPECT_EQ(pool.regions_run() - regions0, 1);
      EXPECT_EQ(pool.chunks_run() - chunks0, 8 + small);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(std::memcmp(got.data(), sep.data(), 2 * sizeof(double)), 0)
          << "threads=" << threads << " rep=" << rep;
      EXPECT_EQ(std::memcmp(&got[0], &ref[0], sizeof(double)), 0) << "threads=" << threads;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// The (part, chunk) sequence of an inline job of a 3-chunk, an empty and a
/// 2-chunk part.
std::vector<std::pair<int, int>> inline_order() {
  std::vector<std::pair<int, int>> seq;
  const auto rec = [&](int part) {
    return [&seq, part](int c, int w) {
      EXPECT_EQ(w, 0);
      seq.emplace_back(part, c);
    };
  };
  const auto p0 = rec(0), p1 = rec(1), p2 = rec(2);
  parallel::ThreadPool::instance().run_parts({{parallel::plan_chunks(3, 1), p0},
                                              {parallel::ChunkPlan{}, p1},
                                              {parallel::plan_chunks(2, 1), p2}});
  return seq;
}

TEST(ThreadPool, InlineMultiPartJobsRunInPartThenChunkOrder) {
  PoolGuard guard;
  const std::vector<std::pair<int, int>> want = {{0, 0}, {0, 1}, {0, 2}, {2, 0}, {2, 1}};
  parallel::set_num_threads(1);
  EXPECT_EQ(inline_order(), want);
  // Nested in a region of a 4-thread pool, each outer chunk runs the job
  // inline on its own thread.
  parallel::set_num_threads(4);
  std::vector<std::vector<std::pair<int, int>>> nested(8);
  parallel::parallel_for(8, 1, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) nested[i] = inline_order();
  });
  for (const auto& seq : nested) EXPECT_EQ(seq, want);
}

// ---- pool busy/wait accounting (perfbench's parallel.* metrics) ----

/// RAII: pool accounting on and zeroed for one test, off and zeroed after.
struct PoolProfileScope {
  PoolProfileScope() {
    parallel::reset_pool_profile();
    profiler::set_enabled(true);
  }
  ~PoolProfileScope() {
    profiler::set_enabled(false);
    parallel::reset_pool_profile();
  }
};

TEST(PoolProfile, BusyPlusWaitEqualsRegionWallPerWorker) {
  PoolGuard guard;
  PoolProfileScope on;
  parallel::set_num_threads(4);
  const parallel::ThreadPool& pool = parallel::ThreadPool::instance();
  const std::int64_t worker_chunks0 = pool.worker_chunks_run();
  // The chunk->worker race is dynamic: on a fast machine the caller can
  // drain a region before the workers even wake. Re-run regions with real
  // per-chunk work until a worker takes part (bounded; one region is the
  // overwhelmingly common case).
  std::vector<double> out(200000);
  int regions = 0;
  std::int64_t worker_chunks = 0;  // chunks run by workers w >= 1
  for (; regions < 50 && worker_chunks == 0; ++regions) {
    parallel::parallel_for(out.size(), 64, [&](std::size_t b, std::size_t e, int) {
      for (std::size_t i = b; i < e; ++i)
        out[i] = std::sin(static_cast<double>(i)) + std::sqrt(static_cast<double>(i));
    });
    const parallel::PoolProfile p = parallel::pool_profile();
    for (std::size_t w = 1; w < p.workers.size(); ++w) worker_chunks += p.workers[w].chunks;
  }
  const parallel::PoolProfile p = parallel::pool_profile();

  EXPECT_EQ(p.threads, 4);
  EXPECT_EQ(p.regions, regions);
  ASSERT_EQ(p.workers.size(), 4u);
  EXPECT_GT(worker_chunks, 0) << "no pool worker ran a chunk";
  // The report's parallel.worker_chunks counts the same chunks.
  EXPECT_EQ(pool.worker_chunks_run() - worker_chunks0, worker_chunks);
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
  EXPECT_EQ(chunks, regions * parallel::plan_chunks(out.size(), 64).count);  // each once
  EXPECT_GT(p.busy_ns, 0.0);
  EXPECT_LE(p.busy_ns, expected);
  EXPECT_GT(p.efficiency_mean, 0.0);
  EXPECT_LE(p.efficiency_mean, 1.0 + 1e-9);
  EXPECT_GE(p.imbalance_max, 1.0 - 1e-9);
}

TEST(PoolProfile, SingleThreadInlineRegionsAreAccounted) {
  PoolGuard guard;
  PoolProfileScope on;
  parallel::set_num_threads(1);
  const std::int64_t worker_chunks0 = parallel::ThreadPool::instance().worker_chunks_run();
  std::vector<double> out(5000);
  parallel::parallel_for(out.size(), 16, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) out[i] = static_cast<double>(i) * 0.5;
  });
  const parallel::PoolProfile p = parallel::pool_profile();
  EXPECT_EQ(p.threads, 1);
  EXPECT_GE(p.regions, 1);
  ASSERT_EQ(p.workers.size(), 1u);
  EXPECT_GT(p.workers[0].busy_ns, 0u);
  EXPECT_EQ(p.workers[0].chunks, parallel::plan_chunks(out.size(), 16).count);
  EXPECT_EQ(parallel::ThreadPool::instance().worker_chunks_run(), worker_chunks0);
}

TEST(PoolProfile, DisabledMeansZeroAccounting) {
  PoolGuard guard;
  profiler::set_enabled(false);
  parallel::reset_pool_profile();
  parallel::set_num_threads(2);
  std::vector<double> out(5000);
  parallel::parallel_for(out.size(), 16, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) out[i] = static_cast<double>(i);
  });
  const parallel::PoolProfile p = parallel::pool_profile();
  EXPECT_EQ(p.regions, 0);
  for (const parallel::WorkerProfile& w : p.workers) {
    EXPECT_EQ(w.busy_ns, 0u);
    EXPECT_EQ(w.chunks, 0);
  }
}

TEST(PoolProfile, ProfilingDoesNotChangeResults) {
  PoolGuard guard;
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
    PoolProfileScope on;
    fill(profiled);
  }
  EXPECT_EQ(base, profiled);  // bitwise: accounting only reads clocks
}

PlaceProblem test_problem() {
  Logger::set_level(LogLevel::Error);
  BenchmarkSpec spec = small_spec(17);
  spec.num_std_cells = 600;
  return make_problem(generate_benchmark(spec));
}

TEST(NetlistCsr, MatchesProblemStructure) {
  const PlaceProblem p = test_problem();
  const NetlistCsr c = NetlistCsr::from_problem(p);
  ASSERT_EQ(c.num_nets, p.num_nets());
  ASSERT_EQ(c.num_pins, static_cast<int>(p.pins.size()));
  for (int n = 0; n < c.num_nets; ++n) {
    EXPECT_EQ(c.net_offset[static_cast<std::size_t>(n)], p.nets[static_cast<std::size_t>(n)].pin_begin);
    EXPECT_EQ(c.net_degree(n), p.nets[static_cast<std::size_t>(n)].degree());
  }
  // node->pin incidence: every pin appears exactly once, under its node,
  // in ascending pin order.
  std::vector<int> seen(static_cast<std::size_t>(c.num_pins), 0);
  for (int v = 0; v < c.num_nodes; ++v) {
    int prev = -1;
    for (int k = c.node_pin_offset[static_cast<std::size_t>(v)];
         k < c.node_pin_offset[static_cast<std::size_t>(v) + 1]; ++k) {
      const int pin = c.node_pin[static_cast<std::size_t>(k)];
      EXPECT_GT(pin, prev) << "pins not ascending for node " << v;
      prev = pin;
      EXPECT_EQ(c.pin_node[static_cast<std::size_t>(pin)], v);
      ++seen[static_cast<std::size_t>(pin)];
    }
  }
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(NetlistCsr, DesignGatherMatchesPinPos) {
  Logger::set_level(LogLevel::Error);
  const Design d = generate_benchmark(small_spec(23));
  NetlistCsr c = NetlistCsr::from_design(d);
  c.gather_coords(d);
  int i = 0;
  for (NetId n = 0; n < d.num_nets(); ++n)
    for (const PinId pid : d.net(n).pins) {
      const Point pos = d.pin_pos(pid);
      EXPECT_EQ(c.pin_cx[static_cast<std::size_t>(i)], pos.x);
      EXPECT_EQ(c.pin_cy[static_cast<std::size_t>(i)], pos.y);
      ++i;
    }
  EXPECT_EQ(i, c.num_pins);
}

/// Evaluate a kernel at several pool widths and require bit-identical
/// value + gradients.
template <typename EvalFn>
void expect_bitwise_across_threads(const EvalFn& eval_at) {
  PoolGuard guard;
  parallel::set_num_threads(1);
  const auto [v1, gx1, gy1] = eval_at();
  for (const int threads : {2, 4, 7}) {
    parallel::set_num_threads(threads);
    const auto [vt, gxt, gyt] = eval_at();
    EXPECT_EQ(std::memcmp(&v1, &vt, sizeof v1), 0) << "value differs, threads=" << threads;
    ASSERT_EQ(gx1.size(), gxt.size());
    EXPECT_EQ(std::memcmp(gx1.data(), gxt.data(), gx1.size() * sizeof(double)), 0)
        << "gx differs, threads=" << threads;
    EXPECT_EQ(std::memcmp(gy1.data(), gyt.data(), gy1.size() * sizeof(double)), 0)
        << "gy differs, threads=" << threads;
  }
}

TEST(ParallelKernels, WirelengthBitwiseAcrossThreads) {
  const PlaceProblem p = test_problem();
  for (const char* model : {"LSE", "WA"}) {
    const auto wl = make_wirelength_model(model, 4.0);
    expect_bitwise_across_threads([&] {
      std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
      const double v = wl->eval(p, gx, gy);
      EXPECT_EQ(wl->value(p), v) << "value() != eval() value path";
      return std::tuple(v, gx, gy);
    });
  }
}

TEST(ParallelKernels, DensityBitwiseAcrossThreads) {
  const PlaceProblem p = test_problem();
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  expect_bitwise_across_threads([&] {
    std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
    const double v = dm.eval(p, gx, gy);
    return std::tuple(v, gx, gy);
  });
}

TEST(ParallelKernels, EstimatorBitwiseAcrossThreads) {
  PoolGuard guard;
  Logger::set_level(LogLevel::Error);
  const Design d = generate_benchmark(small_spec(31));
  parallel::set_num_threads(1);
  RoutingGrid g1(d, true);
  estimate_probabilistic(d, g1);
  for (const int threads : {2, 5}) {
    parallel::set_num_threads(threads);
    RoutingGrid gt(d, true);
    estimate_probabilistic(d, gt);
    EXPECT_EQ(std::memcmp(g1.h_use_grid().data().data(), gt.h_use_grid().data().data(),
                          g1.h_use_grid().size() * sizeof(double)), 0)
        << "h demand differs, threads=" << threads;
    EXPECT_EQ(std::memcmp(g1.v_use_grid().data().data(), gt.v_use_grid().data().data(),
                          g1.v_use_grid().size() * sizeof(double)), 0)
        << "v demand differs, threads=" << threads;
  }
}

TEST(ParallelKernels, CgBitwiseAcrossThreads) {
  PoolGuard guard;
  // A positive-definite quadratic large enough to leave the inline path.
  const std::size_t n = 20000;
  std::vector<double> target(n);
  Rng rng(9);
  for (double& t : target) t = rng.uniform(-5.0, 5.0);
  const CgObjective f = [&](std::span<const double> z, std::span<double> g) {
    double v = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = z[i] - target[i];
      g[i] = 2.0 * e;
      v += e * e;
    }
    return v;
  };
  CgOptions opt;
  opt.max_iters = 25;
  opt.trust_radius = 0.5;

  parallel::set_num_threads(1);
  std::vector<double> z1(n, 0.0);
  const CgResult r1 = minimize_cg(f, z1, opt);
  for (const int threads : {3, 6}) {
    parallel::set_num_threads(threads);
    std::vector<double> zt(n, 0.0);
    const CgResult rt = minimize_cg(f, zt, opt);
    EXPECT_EQ(r1.iters, rt.iters);
    EXPECT_EQ(std::memcmp(&r1.f, &rt.f, sizeof r1.f), 0);
    EXPECT_EQ(std::memcmp(z1.data(), zt.data(), n * sizeof(double)), 0)
        << "solution differs, threads=" << threads;
  }
}

TEST(ParallelKernels, WirelengthGradientMatchesFiniteDifference) {
  // The CSR/parallel rewrite must still be a correct gradient, not just a
  // deterministic one.
  PoolGuard guard;
  parallel::set_num_threads(3);
  PlaceProblem p = test_problem();
  const auto wl = make_wirelength_model("WA", 6.0);
  std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
  wl->eval(p, gx, gy);
  const double h = 1e-5;
  int checked = 0;
  for (int v = 0; v < p.num_nodes() && checked < 5; ++v) {
    if (p.nodes[static_cast<std::size_t>(v)].fixed) continue;
    const double x0 = p.x[static_cast<std::size_t>(v)];
    p.x[static_cast<std::size_t>(v)] = x0 + h;
    const double fp = wl->value(p);
    p.x[static_cast<std::size_t>(v)] = x0 - h;
    const double fm = wl->value(p);
    p.x[static_cast<std::size_t>(v)] = x0;
    const double fd = (fp - fm) / (2 * h);
    EXPECT_NEAR(gx[static_cast<std::size_t>(v)], fd,
                1e-4 * std::max(1.0, std::abs(fd)));
    ++checked;
  }
  EXPECT_EQ(checked, 5);
}

}  // namespace
}  // namespace rp
