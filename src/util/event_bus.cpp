#include "util/event_bus.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>

#include "util/logger.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define RP_OBS_POSIX 1
#endif

namespace rp::obs {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::RunBegin: return "run_begin";
    case EventKind::RunEnd: return "run_end";
    case EventKind::StageBegin: return "stage_begin";
    case EventKind::StageEnd: return "stage_end";
    case EventKind::Watchdog: return "watchdog";
    case EventKind::Guard: return "guard";
    case EventKind::ParseRepair: return "parse_repair";
    case EventKind::RunError: return "error";
  }
  return "unknown";
}

void Event::set_label(const char* s) {
  if (s == nullptr) {
    label[0] = '\0';
    return;
  }
  std::size_t i = 0;
  for (; i + 1 < sizeof label && s[i] != '\0'; ++i) label[i] = s[i];
  label[i] = '\0';
}

// --------------------------------------------------------------------- bus

EventBus::EventBus() : epoch_ns_(profiler::now_ns()) {}

Event EventBus::make(EventKind kind, const char* label) const {
  Event e;
  e.kind = kind;
  e.set_label(label);
  return e;
}

bool write_all_fd(int fd, const char* data, std::size_t n) {
#ifdef RP_OBS_POSIX
  // The sink fd may be a pipe or socket with a slow reader, where short
  // writes are ROUTINE once a buffer straddles the pipe/socket buffer
  // boundary, and any signal (SIGCHLD from a campaign child, a timer) can
  // abort the write with EINTR before OR after a partial transfer. Loop
  // until the whole buffer is out; only a real error (EPIPE on a vanished
  // reader, EBADF) fails the write. Async-signal-safe: write() + errno only.
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
#else
  std::FILE* f = fd == 1 ? stdout : nullptr;
  if (f == nullptr) return false;
  const bool ok = std::fwrite(data, 1, n, f) == n;
  std::fflush(f);
  return ok;
#endif
}

void EventBus::emit(Event e) {
  const std::uint64_t seq = seq_.load(std::memory_order_relaxed);
  e.seq = seq;
  e.t_ns = profiler::now_ns() - epoch_ns_;
  // Fill the slot fully, then publish: a signal handler interrupting this
  // store sequence reads head=seq and never looks at the in-progress slot.
  ring_[seq % kFlightCapacity] = e;
  seq_.store(seq + 1, std::memory_order_release);
}

int EventBus::flight_events(Event* out, int max) const {
  const std::uint64_t head = seq_.load(std::memory_order_acquire);
  const std::uint64_t have =
      head < kFlightCapacity ? head : static_cast<std::uint64_t>(kFlightCapacity);
  int n = static_cast<int>(have);
  if (n > max) n = max;
  for (int i = 0; i < n; ++i)
    out[i] = ring_[(head - static_cast<std::uint64_t>(n - i)) % kFlightCapacity];
  return n;
}

// ------------------------------------------------- async-signal-safe dump

namespace {

/// write()-backed sink with a fixed stack buffer: no allocation, no stdio —
/// everything a fatal-signal handler is allowed to touch.
struct SafeWriter {
  int fd;
  char buf[512];
  std::size_t len = 0;
  bool ok = true;

  explicit SafeWriter(int f) : fd(f) {}
  void flush() {
    if (len > 0 && ok) ok = write_all_fd(fd, buf, len);
    len = 0;
  }
  void put_char(char c) {
    if (len == sizeof buf) flush();
    buf[len++] = c;
  }
  void put(const char* s) {
    for (; *s != '\0'; ++s) put_char(*s);
  }
  void put_quoted(const char* s) {
    put_char('"');
    for (; *s != '\0'; ++s) {
      if (*s == '"' || *s == '\\') put_char('\\');
      if (static_cast<unsigned char>(*s) >= 0x20) put_char(*s);
    }
    put_char('"');
  }
  void put_u64(std::uint64_t v) {
    char tmp[20];
    int n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v > 0);
    while (n > 0) put_char(tmp[--n]);
  }
  void put_i64(std::int64_t v) {
    if (v < 0) {
      put_char('-');
      put_u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
    } else {
      put_u64(static_cast<std::uint64_t>(v));
    }
  }
  /// Scientific notation with 12 significant digits using integer math only
  /// (snprintf is not async-signal-safe). Forensic precision, not exact
  /// round-trip; NaN/Inf become null as everywhere else in our JSON.
  void put_double(double v) {
    if (!std::isfinite(v)) {
      put("null");
      return;
    }
    if (v == 0.0) {
      put("0");
      return;
    }
    if (v < 0.0) {
      put_char('-');
      v = -v;
    }
    int exp = 0;
    while (v >= 10.0 && exp < 400) {
      v /= 10.0;
      ++exp;
    }
    while (v < 1.0 && exp > -400) {
      v *= 10.0;
      --exp;
    }
    auto digits = static_cast<std::uint64_t>(v * 1e11 + 0.5);  // 12 digits
    if (digits >= 1000000000000ull) {  // rounded up to 10.0...
      digits /= 10;
      ++exp;
    }
    char tmp[16];
    for (int i = 11; i >= 0; --i) {
      tmp[i] = static_cast<char>('0' + digits % 10);
      digits /= 10;
    }
    put_char(tmp[0]);
    put_char('.');
    int last = 11;
    while (last > 1 && tmp[last] == '0') --last;  // trim trailing zeros
    for (int i = 1; i <= last; ++i) put_char(tmp[i]);
    if (exp != 0) {
      put_char('e');
      put_i64(exp);
    }
  }
};

void write_event_fields(SafeWriter& w, const Event& e) {
  w.put("{\"seq\":");
  w.put_u64(e.seq);
  w.put(",\"t_ms\":");
  w.put_double(static_cast<double>(e.t_ns) / 1e6);
  w.put(",\"event\":");
  w.put_quoted(event_kind_name(e.kind));
  w.put(",\"label\":");
  w.put_quoted(e.label);
  w.put(",\"i\":[");
  w.put_i64(e.i0);
  w.put_char(',');
  w.put_i64(e.i1);
  w.put_char(',');
  w.put_i64(e.i2);
  w.put("],\"d\":[");
  w.put_double(e.d0);
  w.put_char(',');
  w.put_double(e.d1);
  w.put_char(',');
  w.put_double(e.d2);
  w.put_char(',');
  w.put_double(e.d3);
  w.put("]}");
}

}  // namespace

bool EventBus::dump_flight_fd(int fd, const char* reason,
                              const telemetry::Registry* reg) const {
  SafeWriter w(fd);
  w.put("{\"schema\":\"rp_flight\",\"version\":1,\"reason\":");
  w.put_quoted(reason != nullptr ? reason : "unknown");
  w.put(",\"events_total\":");
  w.put_u64(events_emitted());
  w.put(",\"events\":[");
  // The ring is POD and the head is release-published, so reading it here is
  // safe even when this call interrupted an emit() in progress.
  Event evs[kFlightCapacity];
  const int n = flight_events(evs, kFlightCapacity);
  for (int i = 0; i < n; ++i) {
    if (i > 0) w.put_char(',');
    write_event_fields(w, evs[i]);
  }
  w.put("]");
  if (reg != nullptr) {
    // Read-only map traversal: no allocation, stable nodes.
    w.put(",\"counters\":{");
    bool first = true;
    for (const auto& [name, c] : reg->counters_map()) {
      if (!first) w.put_char(',');
      first = false;
      w.put_quoted(name.c_str());
      w.put_char(':');
      w.put_i64(c.value);
    }
    w.put("}");
  }
  w.put("}\n");
  w.flush();
  return w.ok;
}

bool EventBus::dump_flight(const std::string& path, const char* reason,
                           const telemetry::Registry* reg) const {
#ifdef RP_OBS_POSIX
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    RP_ERROR("flight recorder: cannot open '%s'", path.c_str());
    return false;
  }
  const bool ok = dump_flight_fd(fd, reason, reg);
  ::close(fd);
  if (!ok) RP_ERROR("flight recorder: short write to '%s'", path.c_str());
  return ok;
#else
  (void)path;
  (void)reason;
  (void)reg;
  return false;
#endif
}

}  // namespace rp::obs
