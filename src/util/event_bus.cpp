#include "util/event_bus.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

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
    case EventKind::GpIter: return "gp_iter";
    case EventKind::RouteRound: return "route_round";
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

// ------------------------------------------------------------------ NDJSON

namespace {

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON cannot encode NaN/Inf; mirror JsonWriter.
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_kv_i(std::string& out, const char* key, std::int64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out += buf;
}

void append_kv_d(std::string& out, const char* key, double v) {
  out += ",\"";
  out += key;
  out += "\":";
  append_double(out, v);
}

void append_kv_s(std::string& out, const char* key, const char* v) {
  out += ",\"";
  out += key;
  out += "\":\"";
  // Labels are ASCII tags by construction; escape the two dangerous chars
  // anyway so a hostile design name cannot corrupt the stream.
  for (const char* p = v; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') out += '\\';
    if (static_cast<unsigned char>(*p) >= 0x20) out += *p;
  }
  out += '"';
}

}  // namespace

std::string event_ndjson(const Event& e) {
  std::string out;
  out.reserve(256);
  out += "{\"schema\":\"rp_progress\",\"v\":1";
  append_kv_i(out, "seq", static_cast<std::int64_t>(e.seq));
  out += ",\"t_ms\":";
  append_double(out, static_cast<double>(e.t_ns) / 1e6);
  append_kv_s(out, "event", event_kind_name(e.kind));
  switch (e.kind) {
    case EventKind::RunBegin:
      append_kv_s(out, "design", e.label);
      append_kv_i(out, "cells", e.i0);
      append_kv_i(out, "nets", e.i1);
      append_kv_i(out, "macros", e.i2);
      break;
    case EventKind::RunEnd:
      append_kv_d(out, "hpwl", e.d0);
      append_kv_d(out, "scaled_hpwl", e.d1);
      append_kv_d(out, "overflow", e.d2);
      append_kv_i(out, "legal", e.i0);
      break;
    case EventKind::StageBegin:
    case EventKind::StageEnd:
      append_kv_s(out, "stage", e.label);
      break;
    case EventKind::GpIter:
      append_kv_s(out, "tag", e.label);
      append_kv_i(out, "level", e.i0);
      append_kv_i(out, "outer", e.i1);
      append_kv_d(out, "hpwl", e.d0);
      append_kv_d(out, "overflow", e.d1);
      append_kv_d(out, "lambda", e.d2);
      append_kv_d(out, "inflation", e.d3);
      break;
    case EventKind::RouteRound:
      append_kv_i(out, "round", e.i0);
      append_kv_i(out, "cells_inflated", e.i1);
      append_kv_d(out, "overflow", e.d0);
      append_kv_d(out, "rc", e.d1);
      append_kv_d(out, "mean_inflation", e.d2);
      break;
    case EventKind::Watchdog:
      append_kv_s(out, "watchdog", e.label);
      append_kv_d(out, "limit", e.d0);
      break;
    case EventKind::Guard:
      append_kv_s(out, "guard", e.label);
      append_kv_i(out, "count", e.i0);
      break;
    case EventKind::ParseRepair:
      append_kv_s(out, "mode", e.label);
      append_kv_i(out, "total", e.i0);
      break;
    case EventKind::RunError:
      append_kv_s(out, "code", e.label);
      append_kv_i(out, "exit_code", e.i0);
      break;
  }
  out += '}';
  return out;
}

// --------------------------------------------------------------------- bus

EventBus::EventBus() : epoch_ns_(profiler::now_ns()) {}

EventBus::~EventBus() { close_stream(); }

Event EventBus::make(EventKind kind, const char* label) const {
  Event e;
  e.kind = kind;
  e.set_label(label);
  return e;
}

bool write_all_fd(int fd, const char* data, std::size_t n) {
#ifdef RP_OBS_POSIX
  // The sink fds here are pipes, sockets and regular files shared with slow
  // readers (a tailing dashboard, a campaign parent): short writes are
  // ROUTINE once a line straddles the pipe/socket buffer boundary, and any
  // signal (SIGCHLD from a campaign child, a profiler timer) can abort the
  // write with EINTR before OR after a partial transfer. Loop until the
  // whole buffer is out; only a real error (EPIPE on a vanished reader,
  // EBADF) fails the write. Async-signal-safe: write() + errno only.
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

namespace {

bool write_all(int fd, const char* data, std::size_t n) {
  return write_all_fd(fd, data, n);
}

}  // namespace

void EventBus::emit(Event e) {
  const std::uint64_t seq = seq_.load(std::memory_order_relaxed);
  e.seq = seq;
  e.t_ns = profiler::now_ns() - epoch_ns_;
  // Fill the slot fully, then publish: a signal handler interrupting this
  // store sequence reads head=seq and never looks at the in-progress slot.
  ring_[seq % kFlightCapacity] = e;
  seq_.store(seq + 1, std::memory_order_release);
  if (stream_fd_ >= 0) {
    std::string line = event_ndjson(e);
    line += '\n';
    if (!write_all(stream_fd_, line.data(), line.size())) {
      RP_WARN("event bus: progress stream write failed; closing stream");
      close_stream();
    }
  }
}

bool EventBus::write_raw_line(const char* data, std::size_t len) {
  const int fd = stream_fd_;
  if (fd < 0 || len == 0) return false;
  // Single buffer, single write(): the kernel serializes concurrent writes
  // on the shared fd, so this line cannot split an emit()ed line (or vice
  // versa). No close-on-failure here — the bus's owning thread manages the
  // stream lifetime.
  char buf[512];
  if (len + 1 > sizeof buf) len = sizeof buf - 1;  // tag lines are short
  std::memcpy(buf, data, len);
  buf[len] = '\n';
  return write_all(fd, buf, len + 1);
}

bool EventBus::open_stream(const std::string& target) {
  close_stream();
  if (target.empty()) return false;
  if (target == "-") {
    stream_fd_ = 1;
    close_stream_fd_ = false;
    return true;
  }
  if (target.rfind("fd:", 0) == 0) {
    const int fd = std::atoi(target.c_str() + 3);
    if (fd < 0) return false;
    stream_fd_ = fd;
    close_stream_fd_ = false;
    return true;
  }
#ifdef RP_OBS_POSIX
  const int fd = ::open(target.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  stream_fd_ = fd;
  close_stream_fd_ = true;
  return true;
#else
  return false;
#endif
}

void EventBus::close_stream() {
#ifdef RP_OBS_POSIX
  if (stream_fd_ >= 0 && close_stream_fd_) ::close(stream_fd_);
#endif
  stream_fd_ = -1;
  close_stream_fd_ = false;
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
    if (len > 0 && ok) ok = write_all(fd, buf, len);
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
    w.put("},\"gauges\":{");
    first = true;
    for (const auto& [name, g] : reg->gauges_map()) {
      if (!first) w.put_char(',');
      first = false;
      w.put_quoted(name.c_str());
      w.put_char(':');
      w.put_double(g.value);
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
