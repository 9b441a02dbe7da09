#include "util/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "util/assert.hpp"
#include "util/profiler.hpp"

namespace rp::parallel {

ChunkPlan plan_chunks(std::size_t n, std::size_t grain, int max_chunks) {
  ChunkPlan p;
  p.n = n;
  if (n == 0) {
    p.count = 0;
    return p;
  }
  if (grain == 0) grain = 1;
  const std::size_t want = (n + grain - 1) / grain;
  const auto cap = static_cast<std::size_t>(max_chunks < 1 ? 1 : max_chunks);
  p.count = static_cast<int>(want < cap ? want : cap);
  return p;
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("RP_THREADS"); env != nullptr) {
    int v = 0;
    const char* p = env;
    for (; *p >= '0' && *p <= '9' && v <= kMaxThreads; ++p) v = v * 10 + (*p - '0');
    if (p != env && *p == '\0' && v >= 1 && v <= kMaxThreads) return v;
  }
  return hardware_threads();
}

void set_num_threads(int n) { ThreadPool::instance().resize(n < 1 ? 1 : n); }

int num_threads() { return ThreadPool::instance().threads(); }

// ----------------------------------------------------------------- pool

namespace {
/// True while the current thread executes inside a parallel region; nested
/// regions degrade to inline ascending-order execution (same result).
thread_local bool t_in_region = false;

/// Chunk/worker timing switch (set_pool_profiling). Written on the main
/// thread outside regions; workers observe it via the per-job flag
/// published with each job, never directly.
bool g_pool_profiling = false;
}  // namespace

void set_pool_profiling(bool on) {
  RP_ASSERT(!t_in_region, "set_pool_profiling from inside a parallel region");
  g_pool_profiling = on;
}

namespace {
/// How long an idle worker polls for the next job, and the caller for the
/// last chunk of its own, before parking in std::atomic::wait. GP issues its
/// regions a few µs to a few hundred µs apart (the CG vector ops, the two
/// density passes and the WA kernel of one evaluation follow each other),
/// and one futex sleep/wake round trip costs tens of µs on a VM. Measured on
/// a 4-vCPU KVM Xeon, 4 threads, 12-chunk regions of 94 µs total work:
/// back to back, a region takes 24.5 µs (ideal 23.5; the condvar handshake
/// took 42); with 50 µs of serial work between regions it takes 70 µs at
/// this window but 95 µs at a 20 µs window, where workers park in every gap.
/// 200 µs is still short enough that a serial phase (the sequential router,
/// legalization, DP) parks every worker almost at once.
constexpr std::uint64_t kSpinWindowNs = 200000;

/// Processor hint for a polling loop (lower power, no memory-order
/// mis-speculation penalty when the polled line changes).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Poll until done(): spin with cpu_relax() for kSpinWindowNs, then block in
/// wait(). Both callables must be safe to call repeatedly.
template <typename Done, typename Wait>
void spin_then_park(Done&& done, Wait&& wait) {
  if (done()) return;
  const std::uint64_t t0 = profiler::now_ns();
  for (int i = 1; !done(); ++i) {
    cpu_relax();
    if (i % 64 == 0 && profiler::now_ns() - t0 >= kSpinWindowNs) return wait();
  }
}
}  // namespace

struct ThreadPool::Impl {
  /// Serializes whole jobs across concurrent submitters (distinct threads
  /// running distinct flows). Held for a job's full lifetime — pooled path
  /// AND profiled inline path (both touch slots[0] / the cumulative
  /// profile). Nested regions never take it (they run inline unprofiled),
  /// so there is no self-deadlock.
  std::mutex submit_m;
  std::vector<std::thread> workers;  // threads_ - 1 of them

  // Job handshake, lock-free. The submitter writes the job fields below,
  // publishes `cursor` = {epoch, chunks left}, then bumps `epoch`; workers
  // poll `epoch` and park on it once their spin window runs out. A chunk is
  // claimed by a CAS on `cursor` that succeeds only while the cursor still
  // carries the epoch the worker woke for, so a worker that arrives after
  // its job has finished claims nothing — and a worker reads the job fields
  // only after a successful claim, when the job cannot finish (and the
  // submitter cannot return or overwrite them) before that chunk is done.
  // (A stale claim would need the 32-bit epoch to wrap while a worker
  // sleeps.) The submitter returns once `done` (chunks finished) reaches the
  // count. The hot words sit on their own cache lines: idle workers poll
  // `epoch` while busy ones hammer `cursor` and `done`.
  alignas(64) std::atomic<std::uint32_t> epoch{0};  // bumped per job and on shutdown
  alignas(64) std::atomic<std::uint64_t> cursor{0};  // epoch << 32 | chunks unclaimed
  alignas(64) std::atomic<int> done{0};              // chunks of the job finished
  std::atomic<bool> caller_parked{false};  // submitter blocked in done.wait()
  alignas(64) std::atomic<int> parked{0};  // workers blocked in epoch.wait()
  std::atomic<bool> shutdown{false};
  static constexpr std::uint64_t kLeftMask = 0xffffffffu;

  // Current job (written by the submitter before it publishes `cursor`).
  int job_count = 0;            // chunks over all parts
  bool job_instrument = false;  // time chunks into the worker slots
  const JobPart* job_parts = nullptr;

  // ---------------------------------------------------------- observability
  // Pre-allocated per-worker region scratch (sized at resize()): each worker
  // writes ONLY its own cacheline-aligned slot while a region runs; the
  // caller folds the slots after the region completes, so no synchronization
  // beyond the existing job handshake is needed.
  struct alignas(64) WorkerSlot {
    std::uint64_t busy_ns = 0;
    std::int64_t chunks = 0;

    void time_chunk(std::uint64_t dur_ns) {
      busy_ns += dur_ns;
      ++chunks;
    }
    void clear_region() {
      busy_ns = 0;
      chunks = 0;
    }
  };
  std::vector<WorkerSlot> slots;  // size threads_

  // Cumulative profile (main-thread only: fold/snapshot/reset).
  std::vector<WorkerProfile> totals;  // size threads_
  std::int64_t prof_regions = 0;
  double wall_sum_ns = 0.0, busy_sum_ns = 0.0;
  double eff_sum = 0.0, eff_min = 0.0, imb_max = 0.0;

  void reset_profile() {
    for (WorkerProfile& t : totals) t = WorkerProfile{};
    for (WorkerSlot& s : slots) s.clear_region();
    prof_regions = 0;
    wall_sum_ns = busy_sum_ns = eff_sum = 0.0;
    eff_min = imb_max = 0.0;
  }

  /// Fold the per-worker region slots (ascending worker order) into the
  /// cumulative profile, then clear them.
  void fold_region(std::uint64_t wall_ns, int nworkers) {
    std::uint64_t total_busy = 0, max_busy = 0;
    for (int w = 0; w < nworkers; ++w) {
      WorkerSlot& slot = slots[static_cast<std::size_t>(w)];
      total_busy += slot.busy_ns;
      if (slot.busy_ns > max_busy) max_busy = slot.busy_ns;
      WorkerProfile& t = totals[static_cast<std::size_t>(w)];
      t.busy_ns += slot.busy_ns;
      t.wait_ns += wall_ns > slot.busy_ns ? wall_ns - slot.busy_ns : 0;
      t.chunks += slot.chunks;
      slot.clear_region();
    }
    if (wall_ns == 0) return;
    ++prof_regions;
    wall_sum_ns += static_cast<double>(wall_ns);
    busy_sum_ns += static_cast<double>(total_busy);
    const double eff = static_cast<double>(total_busy) /
                       (static_cast<double>(nworkers) * static_cast<double>(wall_ns));
    eff_sum += eff;
    if (prof_regions == 1 || eff < eff_min) eff_min = eff;
    const double mean_busy = static_cast<double>(total_busy) / nworkers;
    const double imb = mean_busy > 0.0 ? static_cast<double>(max_busy) / mean_busy : 1.0;
    if (imb > imb_max) imb_max = imb;
  }

  /// Claim and run chunks of job `tag` (ascending indices) until none is
  /// left, then add them to `done`, waking a parked submitter when they were
  /// the job's last. A thread that claims nothing touches no job state.
  /// Returns how many chunks this thread ran.
  int run_chunks(std::uint32_t tag, int worker) {
    const std::uint64_t tagged = std::uint64_t{tag} << 32;
    std::uint64_t cur = cursor.load();
    int ran = 0, count = 0;
    bool instrument = false;
    const JobPart* parts = nullptr;
    while ((cur & ~kLeftMask) == tagged && (cur & kLeftMask) != 0) {
      if (!cursor.compare_exchange_weak(cur, cur - 1)) continue;
      if (ran == 0) {  // job fields are stable until this chunk is done
        count = job_count;
        instrument = job_instrument;
        parts = job_parts;
        t_in_region = true;
      }
      // The job's c-th chunk, as a chunk index of its own part.
      int c = count - static_cast<int>(cur & kLeftMask);
      const JobPart* part = parts;
      while (c >= part->plan.count) c -= (part++)->plan.count;
      if (instrument) {
        const std::uint64_t t0 = profiler::now_ns();
        part->fn(c, worker);
        slots[static_cast<std::size_t>(worker)].time_chunk(profiler::now_ns() - t0);
      } else {
        part->fn(c, worker);
      }
      ++ran;
      cur = cursor.load();
    }
    if (ran == 0) return 0;
    t_in_region = false;
    if (done.fetch_add(ran) + ran == count && caller_parked.load()) done.notify_one();
    return ran;
  }
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : impl_(new Impl) {
  // Conservative default: single-threaded until the CLI / a test opts in.
  threads_ = 1;
  impl_->slots.resize(1);
  impl_->totals.resize(1);
}

ThreadPool::~ThreadPool() {
  stop_workers();
  delete impl_;
}

void ThreadPool::resize(int threads) {
  RP_ASSERT(!t_in_region, "ThreadPool::resize from inside a parallel region");
  if (threads < 1) threads = 1;
  if (threads == threads_) return;
  stop_workers();
  threads_ = threads;
  // Worker-count-dependent slots are rebuilt, so the cumulative profile
  // restarts from zero (the benchmark loop also zeroes it between runs via
  // reset_pool_profile).
  impl_->slots.assign(static_cast<std::size_t>(threads), Impl::WorkerSlot{});
  impl_->totals.assign(static_cast<std::size_t>(threads), WorkerProfile{});
  start_workers(threads - 1);
}

void ThreadPool::start_workers(int n) {
  const std::uint32_t seen = impl_->epoch.load();
  for (int i = 0; i < n; ++i)
    impl_->workers.emplace_back([this, i, seen] { worker_loop(i + 1, seen); });
}

void ThreadPool::stop_workers() {
  Impl& s = *impl_;
  s.shutdown.store(true);
  s.epoch.fetch_add(1);
  s.epoch.notify_all();
  for (std::thread& t : s.workers) t.join();
  s.workers.clear();
  s.shutdown.store(false);
}

void ThreadPool::worker_loop(int worker_id, std::uint32_t seen) {
  Impl& s = *impl_;
  for (;;) {
    spin_then_park([&] { return s.epoch.load() != seen; },
                   [&] {
                     // The submitter notifies only if it sees parked > 0
                     // after bumping the epoch; wait() re-checks the epoch
                     // after parked is raised, so no wake-up is lost.
                     s.parked.fetch_add(1);
                     s.epoch.wait(seen);
                     s.parked.fetch_sub(1);
                   });
    // Epoch before shutdown: stop_workers sets shutdown before its epoch
    // bump, so (seq_cst) a worker that sees the bump also sees shutdown.
    seen = s.epoch.load();
    if (s.shutdown.load()) return;
    s.run_chunks(seen, worker_id);
  }
}

void ThreadPool::run_parts(std::initializer_list<JobPart> parts) {
  int count = 0;
  for (const JobPart& p : parts) count += p.plan.count;
  if (count <= 0) return;
  regions_.fetch_add(1, std::memory_order_relaxed);
  chunks_.fetch_add(count, std::memory_order_relaxed);
  // Inline paths: single chunk, single-threaded pool, or nested region.
  // Part order, then ascending chunk order, as the pooled path queues them.
  if (count == 1 || threads_ == 1 || t_in_region) {
    const bool was_in_region = t_in_region;  // nested: stay flagged on exit
    // Nested regions are already inside a timed chunk — instrumenting them
    // would double-count busy time, so only top-level regions are profiled.
    const bool profile = !was_in_region && g_pool_profiling;
    t_in_region = true;
    if (profile) {
      std::unique_lock<std::mutex> submit_lk(impl_->submit_m);
      Impl::WorkerSlot& slot = impl_->slots[0];
      const std::uint64_t r0 = profiler::now_ns();
      for (const JobPart& p : parts)
        for (int c = 0; c < p.plan.count; ++c) {
          const std::uint64_t t0 = profiler::now_ns();
          p.fn(c, 0);
          slot.time_chunk(profiler::now_ns() - t0);
        }
      const std::uint64_t wall = profiler::now_ns() - r0;
      t_in_region = was_in_region;
      impl_->fold_region(wall, /*nworkers=*/1);
    } else {
      for (const JobPart& p : parts)
        for (int c = 0; c < p.plan.count; ++c) p.fn(c, 0);
      t_in_region = was_in_region;
    }
    return;
  }
  Impl& s = *impl_;
  // One job at a time: a second submitter blocks here until the first job
  // fully completes (including its profile fold).
  std::unique_lock<std::mutex> submit_lk(s.submit_m);
  const std::uint64_t r0 = g_pool_profiling ? profiler::now_ns() : 0;
  s.job_parts = parts.begin();
  s.job_count = count;
  s.job_instrument = g_pool_profiling;
  s.done.store(0);
  const std::uint32_t tag = s.epoch.load() + 1;
  s.cursor.store(std::uint64_t{tag} << 32 | static_cast<std::uint32_t>(count));
  s.epoch.store(tag);
  if (s.parked.load() > 0) s.epoch.notify_all();
  const int caller_ran = s.run_chunks(tag, 0);  // the caller is worker 0
  spin_then_park([&] { return s.done.load() == count; },
                 [&] {
                   // Mirror of the worker park: the chunk that completes the
                   // job notifies only if it sees caller_parked.
                   s.caller_parked.store(true);
                   for (int d = s.done.load(); d != count; d = s.done.load()) s.done.wait(d);
                   s.caller_parked.store(false);
                 });
  worker_chunks_.fetch_add(count - caller_ran, std::memory_order_relaxed);
  if (g_pool_profiling) s.fold_region(profiler::now_ns() - r0, threads_);
}

PoolProfile pool_profile() {
  ThreadPool& pool = ThreadPool::instance();
  const ThreadPool::Impl& s = *pool.impl_;
  PoolProfile p;
  p.threads = pool.threads();
  p.regions = s.prof_regions;
  p.wall_ns = s.wall_sum_ns;
  p.busy_ns = s.busy_sum_ns;
  p.efficiency_mean = s.prof_regions > 0 ? s.eff_sum / static_cast<double>(s.prof_regions) : 0.0;
  p.efficiency_min = s.eff_min;
  p.imbalance_max = s.imb_max;
  p.workers = s.totals;
  return p;
}

void reset_pool_profile() {
  RP_ASSERT(!t_in_region, "reset_pool_profile from inside a parallel region");
  ThreadPool::instance().impl_->reset_profile();
}

}  // namespace rp::parallel
