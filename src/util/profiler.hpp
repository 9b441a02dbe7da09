#pragma once
// The steady clock every timed observer reads, and the switch for the
// thread pool's busy/wait accounting (util/parallel's PoolProfile).
//
// Stage durations live in FlowResult::times (StageTimes), and kernel plus
// pool time in perfbench.

#include <cstdint>

namespace rp::profiler {

/// Turn the pool's per-worker busy/wait accounting on or off
/// (parallel::set_pool_profiling). Main thread only, outside parallel
/// regions. Reading clocks never changes a result.
void set_enabled(bool on);

/// Steady-clock nanoseconds (monotonic, epoch unspecified).
std::uint64_t now_ns();

}  // namespace rp::profiler
