#include "util/profiler.hpp"

#include <chrono>

#include "util/parallel.hpp"

namespace rp::profiler {

void set_enabled(bool on) { parallel::set_pool_profiling(on); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace rp::profiler
