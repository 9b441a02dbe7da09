#pragma once
// Deterministic multi-threading for the hot kernels.
//
// The contract every parallel kernel in this codebase relies on:
//
//   *** Results are bitwise identical for ANY thread count. ***
//
// Achieved by construction, not by luck:
//  * Work is split into CHUNKS whose count and boundaries depend only on the
//    problem size (plan_chunks), never on the thread count. Threads race for
//    chunk indices, but a chunk's output is a pure function of its input.
//  * Chunks write to DISJOINT outputs (per-chunk partials, per-pin slots,
//    per-chunk scratch grids). No shared accumulator is touched from a worker.
//  * Partials are combined ON THE CALLING THREAD in ascending chunk order
//    (parallel_reduce), so floating-point sums see one fixed association
//    regardless of how chunks were scheduled.
//
// Consequently `--threads 1` and `--threads 64` produce byte-identical run
// reports and snapshots; the determinism ctest enforces this end to end.
//
// Thread-count policy: set_num_threads() (CLI --threads) > RP_THREADS env >
// std::thread::hardware_concurrency(). The pool is process-global and lazy;
// resizing joins and respawns workers. Concurrent SUBMITTERS (two flows on
// separate ObsContexts in one process) are safe: a submit mutex serializes
// whole jobs, so regions from different runs never interleave — each run's
// results stay the pure chunk-order-combined values the contract promises.
//
// Telemetry/logging remain main-thread-only: workers never touch the
// Registry or the Logger. Kernels bump their counters from the caller.

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace rp::parallel {

/// Chunk layout for a range [0, n): `count` chunks with near-equal sizes,
/// a pure function of (n, grain, max_chunks) — NEVER of the thread count.
struct ChunkPlan {
  std::size_t n = 0;
  int count = 0;

  /// Half-open [begin, end) of chunk c. Remainder spread over the first
  /// (n % count) chunks so sizes differ by at most one.
  std::size_t begin(int c) const {
    const std::size_t q = n / static_cast<std::size_t>(count);
    const std::size_t r = n % static_cast<std::size_t>(count);
    const auto uc = static_cast<std::size_t>(c);
    return q * uc + (uc < r ? uc : r);
  }
  std::size_t end(int c) const { return begin(c + 1); }
};

/// Default cap on chunks per region. High enough for load balance, low
/// enough that per-chunk partial arrays stay tiny.
inline constexpr int kDefaultMaxChunks = 64;

/// Plan chunks for n items with a minimum granularity. n == 0 -> 0 chunks;
/// n <= grain -> 1 chunk (inline fast path, no pool round trip).
ChunkPlan plan_chunks(std::size_t n, std::size_t grain, int max_chunks = kDefaultMaxChunks);

/// Number of hardware threads (>= 1).
int hardware_threads();

/// Most threads --threads or RP_THREADS may ask for. The pool starts one OS
/// thread per extra worker, so a larger count is a typo, not a request.
inline constexpr int kMaxThreads = 1024;

/// Resolve an effective thread count: requested > 0 wins, else RP_THREADS
/// env (if wholly digits in 1..kMaxThreads), else hardware_threads().
int resolve_threads(int requested);

/// Set the global pool size (clamped to >= 1). Joins/respawns workers.
void set_num_threads(int n);

/// Current global pool size (>= 1). Never call set_* from a worker.
int num_threads();

// ------------------------------------------------------- pool observability
//
// When pool profiling is on (perfbench switches it on around a timed run),
// every non-nested region additionally times each chunk into a
// PRE-ALLOCATED per-worker slot (cacheline-aligned, sized at resize() time
// — zero steady-state allocation). After the region completes, the CALLING
// thread folds the slots in ascending worker order into the cumulative
// profile: per-worker busy/wait nanoseconds, chunk counts, and per-region
// efficiency/imbalance ratios. Workers never touch shared accumulators, and
// nothing here feeds back into chunk planning or results — the determinism
// contract is untouched.

/// Cumulative per-worker accounting (worker 0 is the caller).
struct WorkerProfile {
  std::uint64_t busy_ns = 0;  ///< Executing chunks inside profiled regions.
  std::uint64_t wait_ns = 0;  ///< Region wall time minus busy (startup + idle tail).
  std::int64_t chunks = 0;
};

/// Snapshot of the pool's cumulative profiling data.
struct PoolProfile {
  int threads = 1;
  std::int64_t regions = 0;      ///< Profiled (non-nested) regions run.
  double wall_ns = 0.0;          ///< Σ region wall time.
  double busy_ns = 0.0;          ///< Σ over regions of Σ worker busy time.
  double efficiency_mean = 0.0;  ///< Mean over regions of busy/(workers·wall).
  double efficiency_min = 0.0;
  double imbalance_max = 0.0;    ///< Max over regions of max-busy/mean-busy.
  std::vector<WorkerProfile> workers;
};

/// Toggle chunk/worker timing. Main thread, outside parallel regions.
void set_pool_profiling(bool on);

/// Snapshot / zero the cumulative pool profile (main-thread only; reset
/// preserves the pre-allocated slots).
PoolProfile pool_profile();
void reset_pool_profile();

/// Non-owning reference to a chunk body fn(chunk, worker) (the function_ref
/// idiom): binds any callable without allocating, and must not outlive it —
/// build it in the call that runs it, as run(plan, [&](int c, int w) {...})
/// does.
class ChunkFn {
 public:
  template <typename F>
    requires(!std::same_as<F, ChunkFn> && std::invocable<const F&, int, int>)
  ChunkFn(const F& f)  // NOLINT(google-explicit-constructor): binds lambdas in place
      : obj_(&f), call_([](const void* o, int c, int w) { (*static_cast<const F*>(o))(c, w); }) {}
  void operator()(int c, int w) const { call_(obj_, c, w); }

 private:
  const void* obj_;
  void (*call_)(const void*, int, int);
};

/// One part of a multi-part job: fn(c, worker) for every chunk c of plan.
struct JobPart {
  ChunkPlan plan;
  ChunkFn fn;
};

/// Fixed-size pool of persistent workers. Thread 0 is the CALLER: a region
/// with T threads runs on T-1 workers plus the submitting thread, so
/// `threads() == 1` means fully inline execution.
///
/// Fork-join is spin-then-park and takes no lock per region: the submitter
/// publishes a job by bumping an atomic epoch, idle workers poll that epoch
/// for a short fixed window before parking in std::atomic::wait (they are
/// notified only when some worker is parked), chunks are claimed off an
/// epoch-tagged atomic cursor, and the caller spins, then waits, on an
/// atomic count of finished chunks.
class ThreadPool {
 public:
  static ThreadPool& instance();
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }
  void resize(int threads);

  /// Execute fn(chunk, worker) for every chunk in `plan`; returns when all
  /// chunks finished. worker in [0, threads()); the caller participates as
  /// worker 0. Chunk->worker assignment is dynamic (and irrelevant to the
  /// result); chunk outputs must be disjoint. Nested calls from inside a
  /// region run inline on the current thread, in ascending chunk order.
  void run(const ChunkPlan& plan, ChunkFn fn) { run_parts({{plan, fn}}); }

  /// Execute independent parts as ONE job (one region, one fork-join):
  /// part.fn(c, worker) for every chunk c of every part.plan, each chunk
  /// under its index in its own plan, so per-part chunk-ordered combines are
  /// unchanged and results stay bit-identical for any thread count. Chunks
  /// are queued part by part in the order given (put fat chunks first, so
  /// small ones fill the tail); inline runs take them in that order, each
  /// part's in ascending order. Chunks of different parts run concurrently,
  /// so their outputs must be disjoint too. Empty plans are allowed.
  void run_parts(std::initializer_list<JobPart> parts);

  // Lifetime-stable counters for the run report (atomic: concurrent
  // submitters from distinct ObsContexts share the pool).
  std::int64_t regions_run() const { return regions_.load(std::memory_order_relaxed); }
  std::int64_t chunks_run() const { return chunks_.load(std::memory_order_relaxed); }
  /// Chunks of pooled regions that a worker thread (not the caller) ran.
  std::int64_t worker_chunks_run() const {
    return worker_chunks_.load(std::memory_order_relaxed);
  }

 private:
  friend PoolProfile pool_profile();
  friend void reset_pool_profile();

  ThreadPool();
  void start_workers(int n);
  void stop_workers();
  void worker_loop(int worker_id, std::uint32_t seen);

  struct Impl;
  Impl* impl_;
  int threads_ = 1;
  std::atomic<std::int64_t> regions_{0};
  std::atomic<std::int64_t> chunks_{0};
  std::atomic<std::int64_t> worker_chunks_{0};
};

/// parallel_for over [0, n): body(begin, end, worker) per chunk.
/// Determinism: outputs of distinct chunks must be disjoint.
template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
  const ChunkPlan plan = plan_chunks(n, grain);
  if (plan.count == 0) return;
  if (plan.count == 1) {  // Inline fast path: no pool round trip.
    body(std::size_t{0}, n, 0);
    return;
  }
  ThreadPool::instance().run(
      plan, [&](int c, int w) { body(plan.begin(c), plan.end(c), w); });
}

/// Ordered reduction over [0, n): per-chunk partials are computed in
/// parallel, then combined in ASCENDING CHUNK ORDER on the calling thread —
/// the floating-point result is bitwise identical for any thread count.
///   chunk_fn(begin, end, worker) -> T;   combine(acc, partial) -> T
template <typename T, typename ChunkFn, typename Combine>
T parallel_reduce(std::size_t n, std::size_t grain, T init, ChunkFn&& chunk_fn,
                  Combine&& combine) {
  const ChunkPlan plan = plan_chunks(n, grain);
  if (plan.count == 0) return init;
  if (plan.count == 1) return combine(init, chunk_fn(std::size_t{0}, n, 0));
  std::vector<T> partial(static_cast<std::size_t>(plan.count));
  ThreadPool::instance().run(plan, [&](int c, int w) {
    partial[static_cast<std::size_t>(c)] = chunk_fn(plan.begin(c), plan.end(c), w);
  });
  T acc = init;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

}  // namespace rp::parallel
