#pragma once
// In-process instrumentation profiler: per-region latency histograms.
//
// Always compiled, OFF by default (`routplace --profile` / RP_PROFILE=1).
// Three sources feed it when enabled:
//  * every RP_TRACE_SPAN site (TraceSpan reports its duration here whether
//    or not Chrome tracing is on);
//  * RP_PROFILE_REGION sites in the hot kernels (wirelength/density/CG/
//    objective) — like RP_COUNT, the region slot is resolved ONCE per call
//    site into a function-local static, so the steady-state cost with
//    profiling off is a single branch and with profiling on two clock reads
//    plus one histogram record (no allocation, no string construction);
//  * the thread pool (util/parallel): per-worker busy/wait accounting and
//    per-chunk duration histograms, merged by the calling thread in
//    ascending worker order after each parallel region.
//
// Histograms use FIXED log-spaced buckets (4 per decade from 0.1 µs to
// 1000 s) so two histograms are always mergeable bucket-by-bucket and the
// report schema never depends on the data. Quantiles (p50/p95/p99) are
// log-linear interpolations within a bucket, clamped to the exact observed
// [min, max] so p99 <= max always holds.
//
// Determinism: the profiler only READS clocks; it never influences chunk
// planning, scheduling-visible state, or any computed value, so `--profile`
// on/off and any thread count produce byte-identical placements (enforced
// by scripts/check_threads_determinism.py).
//
// Like the telemetry registry, the region registry is PER-RUN since PR 7:
// one Profiler per obs::ObsContext, with instance() resolving the current
// thread's bound context. Slots are never deallocated within a profiler —
// reset() zeroes histograms in place — and RP_PROFILE_REGION's epoch-stamped
// thread_local cache re-resolves whenever the bound context changes.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rp {
class JsonWriter;
}

namespace rp::profiler {

/// Fixed-bucket log-spaced latency histogram. Bucket 0 is [0, 100 ns); the
/// remaining 40 buckets step by 10^(1/4) (4 per decade) up to 1000 s;
/// durations beyond the last edge clamp into the last bucket.
struct LatencyHistogram {
  static constexpr int kBuckets = 41;

  std::uint64_t counts[kBuckets] = {};
  std::uint64_t samples = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;  ///< Valid when samples > 0.
  std::uint64_t max_ns = 0;

  /// Bucket boundaries in nanoseconds: edges_ns()[b] .. edges_ns()[b+1] is
  /// bucket b's half-open range (kBuckets + 1 entries, strictly ascending).
  static const std::uint64_t* edges_ns();
  /// Bucket index for a duration (exact: table lookup, no float log).
  static int bucket_of(std::uint64_t ns);
  static double bucket_lo_us(int b) { return static_cast<double>(edges_ns()[b]) / 1000.0; }
  static double bucket_hi_us(int b) { return static_cast<double>(edges_ns()[b + 1]) / 1000.0; }

  void record(std::uint64_t ns);
  /// Add `other`'s samples into this histogram (bucket-wise).
  void merge(const LatencyHistogram& other);
  void clear();

  /// q in [0, 1]: log-linear interpolation inside the target bucket,
  /// clamped to the exact [min, max]. 0 when empty.
  double quantile_us(double q) const;
  double mean_us() const {
    return samples == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(samples) / 1000.0;
  }
  double total_ms() const { return static_cast<double>(total_ns) / 1e6; }
  double max_us() const { return static_cast<double>(max_ns) / 1000.0; }
  double min_us() const { return static_cast<double>(min_ns) / 1000.0; }
};

/// One named profiled region (an RP_TRACE_SPAN or RP_PROFILE_REGION site).
struct Region {
  LatencyHistogram hist;
};

/// Registry of profiled regions. One per obs::ObsContext (like the
/// telemetry Registry); slot addresses are stable for the profiler's
/// lifetime. Main-thread-only within a context.
class Profiler {
 public:
  Profiler();

  /// The current thread's profiler: the bound ObsContext's, else the
  /// process default's (see util/obs_context.hpp).
  static Profiler& instance();

  /// Find-or-create. The reference stays valid for the profiler's lifetime
  /// (reset() zeroes histograms but never moves slots) — safe to cache at
  /// call sites together with epoch().
  Region& region(const std::string& name);

  /// Process-unique id minted at construction; RP_PROFILE_REGION compares
  /// it to decide whether its cached slot belongs to this profiler.
  std::uint64_t epoch() const { return epoch_; }

  /// Record one sample into the named region (map lookup per call; use
  /// RP_PROFILE_REGION's cached slot on hot paths instead).
  void record(const std::string& name, std::uint64_t ns);

  /// Zero every histogram in place (slot addresses and epoch preserved).
  void reset();

  /// Name-sorted snapshot for the run report.
  std::vector<std::pair<std::string, const Region*>> regions() const;

 private:
  std::map<std::string, Region> regions_;  ///< Node-based: stable addresses.
  std::uint64_t epoch_ = 0;
};

/// Master switch. set_enabled() also toggles the thread pool's busy/wait
/// instrumentation (parallel::set_pool_profiling). Main thread only,
/// outside parallel regions.
bool enabled();
void set_enabled(bool on);

/// True when the RP_PROFILE environment variable requests profiling
/// (set and not "0"); used by the CLI.
bool env_requested();

/// Zero the current context's region histograms AND the pool's cumulative
/// profile (a flow run observes into its own context, but the pool profile
/// is process-wide).
void reset_all();

/// Steady-clock nanoseconds (monotonic, epoch unspecified).
std::uint64_t now_ns();

/// Write the run report's `"profile"` block: `w.key("profile")` plus an
/// object with per-region histograms and the thread-pool section. Call only
/// when enabled() — the block is absent from unprofiled reports.
void write_report_block(JsonWriter& w);

/// RAII sampler for RP_PROFILE_REGION: latches enabled() at entry.
class ScopedRegion {
 public:
  explicit ScopedRegion(Region* r) : r_(enabled() ? r : nullptr) {
    if (r_ != nullptr) t0_ = now_ns();
  }
  ~ScopedRegion() {
    if (r_ != nullptr) r_->hist.record(now_ns() - t0_);
  }
  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;

 private:
  Region* r_;
  std::uint64_t t0_ = 0;
};

}  // namespace rp::profiler

#define RP_PROFILER_CONCAT2(a, b) a##b
#define RP_PROFILER_CONCAT(a, b) RP_PROFILER_CONCAT2(a, b)

/// Scoped latency sample with a per-call-site cached region slot. The cache
/// is thread_local and stamped with the owning profiler's epoch, so context
/// switches force re-resolution and stale slots are never dereferenced
/// (same scheme as RP_COUNT; see util/obs_context.hpp). With profiling off
/// the whole thing is one branch; no string is built either way.
#define RP_PROFILE_REGION(name)                                                  \
  static thread_local ::rp::profiler::Region* RP_PROFILER_CONCAT(                \
      rp_pf_slot_, __LINE__) = nullptr;                                          \
  static thread_local std::uint64_t RP_PROFILER_CONCAT(rp_pf_epoch_,             \
                                                       __LINE__) = 0;            \
  if (::rp::profiler::enabled()) {                                               \
    ::rp::profiler::Profiler& rp_pf_prof_ = ::rp::profiler::Profiler::instance();\
    if (RP_PROFILER_CONCAT(rp_pf_epoch_, __LINE__) != rp_pf_prof_.epoch()) {     \
      RP_PROFILER_CONCAT(rp_pf_slot_, __LINE__) = &rp_pf_prof_.region(name);     \
      RP_PROFILER_CONCAT(rp_pf_epoch_, __LINE__) = rp_pf_prof_.epoch();          \
    }                                                                            \
  }                                                                              \
  ::rp::profiler::ScopedRegion RP_PROFILER_CONCAT(rp_pf_scope_, __LINE__)(       \
      RP_PROFILER_CONCAT(rp_pf_slot_, __LINE__))
