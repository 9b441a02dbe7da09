#include "util/logger.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace rp {

namespace {

// Concurrent placement flows (one per thread, each on its own observability
// context) all log, so the level is atomic (relaxed — it is a filter, not a
// synchronization point) and each message is formatted into one buffer and
// written with a single locked fwrite so lines from different flows never
// interleave mid-line.
std::atomic<int> g_level{static_cast<int>(LogLevel::Info)};
std::atomic<bool> g_env_forced{false};
std::once_flag g_env_once;

using Clock = std::chrono::steady_clock;

Clock::time_point epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

const char* tag(LogLevel lv) {
  switch (lv) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    default: return "?";
  }
}

bool parse_level(const char* s, LogLevel& out) {
  const auto is = [s](const char* w) { return std::strcmp(s, w) == 0; };
  if (is("debug") || is("DEBUG") || is("0")) out = LogLevel::Debug;
  else if (is("info") || is("INFO") || is("1")) out = LogLevel::Info;
  else if (is("warn") || is("WARN") || is("2")) out = LogLevel::Warn;
  else if (is("error") || is("ERROR") || is("3")) out = LogLevel::Error;
  else if (is("silent") || is("SILENT") || is("4")) out = LogLevel::Silent;
  else return false;
  return true;
}

void ensure_env_read() {
  std::call_once(g_env_once, [] { Logger::init_from_env(); });
}

}  // namespace

void Logger::init_from_env() {
  const char* e = std::getenv("RP_LOG_LEVEL");
  if (e == nullptr || e[0] == '\0') {
    g_env_forced.store(false, std::memory_order_relaxed);
    return;
  }
  LogLevel lv;
  if (parse_level(e, lv)) {
    g_level.store(static_cast<int>(lv), std::memory_order_relaxed);
    g_env_forced.store(true, std::memory_order_relaxed);
  } else {
    g_env_forced.store(false, std::memory_order_relaxed);
    std::fprintf(stderr, "[%9.3fs] [WARN ] RP_LOG_LEVEL='%s' not recognized "
                 "(use debug|info|warn|error|silent)\n", elapsed_seconds(), e);
  }
}

double Logger::elapsed_seconds() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

LogLevel Logger::level() {
  ensure_env_read();
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void Logger::set_level(LogLevel lv) {
  ensure_env_read();
  if (g_env_forced.load(std::memory_order_relaxed)) return;  // override wins
  g_level.store(static_cast<int>(lv), std::memory_order_relaxed);
}

void Logger::log(LogLevel lv, const char* fmt, ...) {
  ensure_env_read();
  if (static_cast<int>(lv) < g_level.load(std::memory_order_relaxed)) return;
  char buf[2048];
  int n = std::snprintf(buf, sizeof(buf), "[%9.3fs] [%s] ",
                        elapsed_seconds(), tag(lv));
  if (n < 0) return;
  va_list ap;
  va_start(ap, fmt);
  const int m = std::vsnprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n) - 1,
                               fmt, ap);
  va_end(ap);
  if (m > 0) n += m;
  if (n > static_cast<int>(sizeof(buf)) - 2) n = static_cast<int>(sizeof(buf)) - 2;
  buf[n++] = '\n';
  std::fwrite(buf, 1, static_cast<std::size_t>(n), stderr);
}

}  // namespace rp
