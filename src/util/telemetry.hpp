#pragma once
// Telemetry: named counters, one registry per run.
//
// This state is PER-RUN, not per-process: a Registry is owned by an
// obs::ObsContext (util/obs_context.hpp), and `Registry::instance()`
// resolves to the context bound to the current thread (falling back to a
// process-wide default, which preserves the old global behavior for code
// that never binds one).
//
// Counters count what happened (calls, iterations, repairs). A value that
// a stage computes — an HPWL, an overflow, a stage's duration — lives in
// that stage's own result block of the run report, not here, so each fact
// is recorded once.
//
// Two rules keep this layer cheap enough to leave compiled in:
//  * RP_COUNT caches its registry slot per call site in a thread_local
//    stamped with the owning registry's EPOCH (process-unique, minted at
//    registry construction). A cache hit is one compare + one add; a
//    context switch changes the epoch and forces re-resolution, so a stale
//    pointer is never dereferenced.
//  * A registry never deallocates slots — reset() zeroes values in place,
//    so cached slot pointers stay valid across flow runs within a context.
//
// Like the logger, main-thread-only by contract: pool workers never touch
// the registry; parallel kernels bump counters from the calling thread.
// (Distinct threads bound to DISTINCT contexts may use their own registries
// concurrently — that is the whole point of the per-run design.)

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rp::telemetry {

struct Counter {
  std::int64_t value = 0;
};

/// Registry of named counters. One per ObsContext.
class Registry {
 public:
  Registry();

  /// The current thread's registry: the bound ObsContext's, else the
  /// process default's. (Kept as `instance()` so call sites read unchanged.)
  static Registry& instance();

  /// Find-or-create. The returned reference stays valid for the registry's
  /// lifetime (reset() zeroes values but never moves slots).
  Counter& counter(const std::string& name);

  /// Zero every counter (slot addresses and epoch preserved).
  void reset();

  /// Process-unique id minted at construction; RP_COUNT compares it to
  /// decide whether its cached slot pointer belongs to this registry.
  std::uint64_t epoch() const { return epoch_; }

  /// Current value, 0 for names never touched.
  std::int64_t counter_value(const std::string& name) const;

  /// Name-sorted snapshot for the run report.
  std::vector<std::pair<std::string, std::int64_t>> counters() const;

  /// Allocation-free read-only view (the flight recorder walks it from
  /// contexts where allocating is forbidden).
  const std::map<std::string, Counter>& counters_map() const { return counters_; }

 private:
  std::map<std::string, Counter> counters_;  ///< Node-based: stable addresses.
  std::uint64_t epoch_ = 0;
};

/// Peak resident-set size of this process in KiB (0 where unsupported).
long peak_rss_kb();

}  // namespace rp::telemetry

// Call-site macro. The thread_local slot cache + epoch stamp make the
// steady-state cost of a counter bump one compare and one pointer-indirect
// add, while remaining correct across ObsContext switches (see Registry::
// epoch). thread_local, not static: two threads on different contexts must
// not share a cache entry.
#define RP_COUNT(name, delta)                                                       \
  do {                                                                              \
    static thread_local ::rp::telemetry::Counter* rp_tm_slot_ = nullptr;            \
    static thread_local std::uint64_t rp_tm_epoch_ = 0;                             \
    ::rp::telemetry::Registry& rp_tm_reg_ = ::rp::telemetry::Registry::instance();  \
    if (rp_tm_epoch_ != rp_tm_reg_.epoch()) {                                       \
      rp_tm_slot_ = &rp_tm_reg_.counter(name);                                      \
      rp_tm_epoch_ = rp_tm_reg_.epoch();                                            \
    }                                                                               \
    rp_tm_slot_->value += static_cast<std::int64_t>(delta);                         \
  } while (0)
