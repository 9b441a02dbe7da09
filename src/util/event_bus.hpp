#pragma once
// Typed per-run event bus: the streaming half of the observability layer.
//
// Every meaningful flow transition — stage begin/end, a GP outer iteration's
// convergence point, a routability round's congestion summary, watchdog and
// numeric-guard firings, parse repairs, the terminal error — is emitted as a
// fixed-size POD Event. The bus does three things with each event:
//
//  1. stamps it (monotonic sequence number + steady-clock nanoseconds since
//     the bus was created) and stores it in a PRE-ALLOCATED ring buffer: the
//     FLIGHT RECORDER. The ring is single-producer (the run's main thread,
//     same contract as the telemetry registry) with a release-published head,
//     so an async signal handler interrupting an emit in progress still sees
//     a consistent prefix of completed events;
//  2. if a progress stream is open (`--progress-ndjson`), serializes it as
//     one schema-versioned NDJSON line and write()s it immediately — event-
//     granularity flushing with a fixed stack buffer, so a reader can tail a
//     live run without the bus ever allocating on the emit path;
//  3. keeps the running event count for the run report's "events" block.
//
// Determinism contract: every PAYLOAD field (kind, label, i0..i2, d0..d3) is
// a pure function of the placement computation and is therefore byte-
// identical across thread counts and re-runs; `seq` and `t_ns`/`t_ms` are
// volatile by construction and excluded from determinism comparisons (the
// threads-determinism gate strips exactly those two keys per NDJSON line).
//
// The flight recorder can be dumped as a `flight.json` document — last N
// events plus a counter/gauge snapshot — through two paths: dump_flight()
// for normal error exits, and dump_flight_fd(), which is async-signal-safe
// (write()-only, no allocation, integer-math number formatting) for fatal
// signal handlers (SIGSEGV/SIGABRT).

#include <atomic>
#include <cstdint>
#include <string>

namespace rp::telemetry {
class Registry;
}

namespace rp::obs {

enum class EventKind : std::uint8_t {
  RunBegin = 0,   ///< label=design; i0=cells, i1=nets, i2=macros.
  RunEnd,         ///< d0=hpwl, d1=scaled_hpwl, d2=overflow; i0=legal(0/1).
  StageBegin,     ///< label=stage ("global", "legal", ...).
  StageEnd,       ///< label=stage.
  GpIter,         ///< label=tag ("level0"/"reheat1"); i0=level, i1=outer,
                  ///< d0=hpwl, d1=overflow, d2=lambda, d3=inflation.
  RouteRound,     ///< i0=round, i1=cells_inflated; d0=overflow, d1=rc,
                  ///< d2=mean_inflation.
  Watchdog,       ///< label="gp_iters"|"seconds"; d0=limit.
  Guard,          ///< label=guard site ("cg_nonfinite", ...); i0=count.
  ParseRepair,    ///< label=parse mode; i0=total repairs.
  RunError,       ///< label=error code name; i0=exit code.
};
inline constexpr int kEventKinds = 10;

/// Stable wire name ("run_begin", "gp_iter", ...). Never null.
const char* event_kind_name(EventKind k);

/// Fixed-size POD event record: ring-buffer friendly and safe to read from a
/// signal handler. The label is a truncating copy (it tags, not describes).
struct Event {
  static constexpr int kLabelCap = 48;

  EventKind kind = EventKind::RunBegin;
  std::uint64_t seq = 0;   ///< Stamped by emit(); volatile for diffing.
  std::uint64_t t_ns = 0;  ///< Since bus creation; volatile for diffing.
  char label[kLabelCap] = {};
  std::int64_t i0 = 0, i1 = 0, i2 = 0;
  double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;

  void set_label(const char* s);
};

/// Serialize one event as an NDJSON line (no trailing newline): a flat
/// object with "schema"/"v"/"seq"/"t_ms"/"event" plus kind-specific named
/// payload fields (see EventKind). Payload formatting round-trips doubles.
std::string event_ndjson(const Event& e);

/// Write the WHOLE buffer to `fd`, retrying short writes and EINTR (both
/// are routine on pipe/socket sinks with slow readers and signal traffic —
/// see the NDJSON sink). Returns false only on
/// a real error (EPIPE, EBADF, ...). Async-signal-safe on POSIX.
bool write_all_fd(int fd, const char* data, std::size_t n);

class EventBus {
 public:
  static constexpr int kFlightCapacity = 256;

  EventBus();
  ~EventBus();
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// Payload-only constructor; emit() does the stamping.
  Event make(EventKind kind, const char* label = nullptr) const;

  /// Stamp (seq, t_ns) and deliver: ring buffer always, NDJSON stream when
  /// open. Single-producer: call from the run's main thread only.
  void emit(Event e);

  /// Events emitted so far (the next seq). Safe from any thread.
  std::uint64_t events_emitted() const { return seq_.load(std::memory_order_acquire); }

  // ------------------------------------------------------------- NDJSON sink
  /// Open the live progress stream. `target` is a path, "-" for stdout, or
  /// "fd:N" for an inherited descriptor. Returns false (stream stays closed)
  /// when the target cannot be opened.
  bool open_stream(const std::string& target);
  void close_stream();
  bool streaming() const { return stream_fd_ >= 0; }

  /// Write one pre-formatted NDJSON line to the progress stream, bypassing
  /// the ring/seq machinery. Used by the resource sampler's BACKGROUND
  /// thread for "rp_resource" lines: wall-clock observations, not
  /// deterministic flow events — they carry no bus sequence number and never
  /// enter the flight recorder (determinism tooling filters them by their
  /// distinct "schema"). One write() per line keeps lines intact when
  /// interleaved with emit(). Contract: stop any background writer BEFORE
  /// close_stream(). A trailing '\n' is appended. Returns false when no
  /// stream is open or the write failed (the stream is NOT closed — that is
  /// the owning thread's call).
  bool write_raw_line(const char* data, std::size_t len);

  // -------------------------------------------------------- flight recorder
  /// Copy the last (up to `max`) events, oldest first. Returns the count.
  int flight_events(Event* out, int max) const;

  /// Async-signal-safe dump of the flight document (header + last events +
  /// counter/gauge snapshot from `reg`, which may be null) to an open fd.
  /// Uses only write() and stack buffers. Returns false on a short write.
  bool dump_flight_fd(int fd, const char* reason,
                      const telemetry::Registry* reg) const;

  /// Convenience wrapper: open `path`, dump, close. NOT signal-safe (opens
  /// by std::string); use from normal error paths.
  bool dump_flight(const std::string& path, const char* reason,
                   const telemetry::Registry* reg) const;

 private:
  std::uint64_t epoch_ns_ = 0;          ///< Steady clock at construction.
  std::atomic<std::uint64_t> seq_{0};   ///< Published event count.
  Event ring_[kFlightCapacity];
  int stream_fd_ = -1;
  bool close_stream_fd_ = false;        ///< fd is ours (path), not inherited.
};

}  // namespace rp::obs
