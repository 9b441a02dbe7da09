#pragma once
// Wall-clock timing helpers for flow-stage runtime reporting.

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace rp {

class Timer {
 public:
  Timer() { reset(); }
  void reset() { start_ = Clock::now(); }
  /// Elapsed wall time in seconds since construction / last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates named stage runtimes; used by the flow's runtime breakdown.
///
/// Stage names may be hierarchical paths ("gp/level2/solve"): nested
/// ScopedStage instances on the same StageTimes compose such paths
/// automatically, report() renders the tree, and total() sums only the root
/// stages (a child's time is already inside its parent). The flat API —
/// add()/get() with plain names — behaves exactly as before.
class StageTimes {
 public:
  void add(const std::string& stage, double sec);
  double get(const std::string& stage) const;
  /// Σ over root stages (names without '/'): wall-clock, not double-counted.
  double total() const;
  /// Tree-formatted breakdown, one stage per line, children indented.
  std::string report() const;

  /// Copy every entry of `other` in under `prefix/` (used to splice a
  /// sub-component's private StageTimes into the flow's).
  void merge(const std::string& prefix, const StageTimes& other);

  const std::vector<std::pair<std::string, double>>& entries() const { return stages_; }

 private:
  friend class ScopedStage;
  /// Compose `stage` under the currently open ScopedStage path.
  std::string compose(const std::string& stage) const;

  std::vector<std::pair<std::string, double>> stages_;
  std::vector<std::string> open_;  ///< Stack of live ScopedStage names.
};

/// RAII: adds the scope's elapsed time to a StageTimes entry at destruction.
/// Nested ScopedStages on the same StageTimes record hierarchical paths:
/// ScopedStage("solve") inside ScopedStage("gp") accumulates "gp/solve".
///
/// Single-thread-only: StageTimes' open-stage stack has no synchronization,
/// so a stage must close on the thread that opened it. Closing elsewhere
/// (e.g. a span moved into a pool chunk via the caller-as-worker-0 path)
/// would silently corrupt the nesting tree — it asserts instead.
class ScopedStage {
 public:
  ScopedStage(StageTimes& st, std::string stage)
      : st_(st), path_(st.compose(stage)), owner_(std::this_thread::get_id()) {
    st_.open_.push_back(std::move(stage));
  }
  ~ScopedStage() {
    RP_ASSERT(owner_ == std::this_thread::get_id(),
              "ScopedStage closed on a different thread than it was opened on");
    st_.open_.pop_back();
    st_.add(path_, timer_.seconds());
  }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  StageTimes& st_;
  std::string path_;
  std::thread::id owner_;
  Timer timer_;
};

}  // namespace rp
