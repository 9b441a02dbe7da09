#include "util/telemetry.hpp"

#include <atomic>

#include "util/obs_context.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace rp::telemetry {

namespace {

std::uint64_t next_epoch() {
  // Starts at 1 so a zero-initialized macro cache never matches a registry.
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Registry::Registry() : epoch_(next_epoch()) {}

Registry& Registry::instance() { return obs::current().registry(); }

Counter& Registry::counter(const std::string& name) { return counters_[name]; }

void Registry::reset() {
  for (auto& [name, c] : counters_) c.value = 0;
}

std::int64_t Registry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

std::vector<std::pair<std::string, std::int64_t>> Registry::counters() const {
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.value);
  return out;
}

long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<long>(ru.ru_maxrss / 1024);  // bytes on macOS
#else
  return static_cast<long>(ru.ru_maxrss);  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace rp::telemetry
