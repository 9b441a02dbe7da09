#include "util/telemetry.hpp"

#include <atomic>
#include <cstdio>

#include <algorithm>

#include "util/json.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/profiler.hpp"

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
Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

void Registry::reset() {
  for (auto& [name, c] : counters_) c.value = 0;
  for (auto& [name, g] : gauges_) g.value = 0.0;
}

std::int64_t Registry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

double Registry::gauge_value(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value;
}

std::vector<std::pair<std::string, std::int64_t>> Registry::counters() const {
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.value);
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g.value);
  return out;
}

// ------------------------------------------------------------------ trace

using Clock = std::chrono::steady_clock;

void TraceBuffer::start() {
  events_.clear();
  span_depth_ = 0;
  epoch_ = Clock::now();
  epoch_ns_ = profiler::now_ns();
  on_ = true;
}

double TraceBuffer::now_us() const {
  if (!on_) return 0.0;
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
}

void TraceBuffer::emit_span(const char* name, std::uint64_t start_ns,
                            std::uint64_t dur_ns, int tid) {
  if (!on_) return;
  TraceEvent e;
  e.name = name;
  e.ts_us = start_ns >= epoch_ns_
                ? static_cast<double>(start_ns - epoch_ns_) / 1000.0
                : 0.0;
  e.dur_us = static_cast<double>(dur_ns) / 1000.0;
  e.tid = tid;
  events_.push_back(std::move(e));
}

void TraceBuffer::push(TraceEvent e) {
  if (on_) events_.push_back(std::move(e));
}

void start_trace() { obs::current().trace().start(); }
void stop_trace() { obs::current().trace().stop(); }
bool trace_enabled() { return obs::current().trace().enabled(); }
double trace_now_us() { return obs::current().trace().now_us(); }
const std::vector<TraceEvent>& trace_events() { return obs::current().trace().events(); }

void emit_span(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns, int tid) {
  obs::current().trace().emit_span(name, start_ns, dur_ns, tid);
}

TraceSpan::TraceSpan(std::string name) {
  TraceBuffer& tb = obs::current().trace();
  if (!tb.enabled()) return;
  name_ = std::move(name);
  t0_ns_ = profiler::now_ns();
  buf_ = &tb;
  tb.enter_span();
}

TraceSpan::~TraceSpan() {
  if (buf_ == nullptr) return;
  const std::uint64_t dur_ns = profiler::now_ns() - t0_ns_;
  TraceEvent e;
  e.name = std::move(name_);
  e.ts_us = t0_ns_ >= buf_->epoch_ns()
                ? static_cast<double>(t0_ns_ - buf_->epoch_ns()) / 1000.0
                : 0.0;
  e.dur_us = static_cast<double>(dur_ns) / 1000.0;
  e.depth = buf_->exit_span();
  buf_->push(std::move(e));
}

std::string trace_json() {
  const std::vector<TraceEvent>& events = trace_events();
  int max_tid = 0;
  for (const TraceEvent& e : events) max_tid = std::max(max_tid, e.tid);
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  // Metadata events name the lanes: tid 0 is the submitting thread (which
  // doubles as pool worker 0), tid w >= 1 is pool worker w.
  for (int tid = 0; tid <= max_tid; ++tid) {
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("tid", tid);
    w.key("args").begin_object();
    w.kv("name", tid == 0 ? std::string("main (worker-0)")
                          : "worker-" + std::to_string(tid));
    w.end_object();
    w.end_object();
    w.begin_object();
    w.kv("name", "thread_sort_index");
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("tid", tid);
    w.key("args").begin_object();
    w.kv("sort_index", tid);
    w.end_object();
    w.end_object();
  }
  for (const TraceEvent& e : events) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("cat", e.tid == 0 ? "flow" : "pool");
    w.kv("ph", "X");
    w.kv("ts", e.ts_us);
    w.kv("dur", e.dur_us);
    w.kv("pid", 1);
    w.kv("tid", e.tid);
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

bool write_trace_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    RP_ERROR("telemetry: cannot open trace file '%s'", path.c_str());
    return false;
  }
  const std::string doc = trace_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  if (!ok) RP_ERROR("telemetry: short write to trace file '%s'", path.c_str());
  return ok;
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
