#pragma once
// Per-run observability context — the ownership root of the whole
// observability layer and the re-entrancy contract for `flow.run`.
//
//   ObsContext
//    ├── telemetry::Registry    counters + gauges   (RP_COUNT / RP_GAUGE)
//    ├── telemetry::TraceBuffer Chrome-trace spans  (RP_TRACE_SPAN)
//    ├── profiler::Profiler     region histograms   (RP_PROFILE_REGION)
//    ├── obs::EventBus          typed events, NDJSON stream, flight recorder
//    └── obs::ResourceSampler   RSS/CPU/pool-busy timeline (schema-v5 block)
//
// Every flow run owns a context: the caller's (FlowOptions::obs), or a fresh
// one the run makes, returned in FlowResult::obs. So two runs in one process
// — sequential or concurrent — never share counters, and state gathered
// before the flow (parse-repair counters) lands in the same report:
//
//   auto obs = std::make_shared<obs::ObsContext>();
//   obs::ScopedBind bind(obs.get());       // this thread's "current" context
//   ... parse, flow.run (FlowOptions::obs), run_report_json(r) ...
//
// THREAD-BOUND CURRENT CONTEXT. `current()` resolves to the context bound to
// this thread (`bind` / ScopedBind), falling back to a process-wide default.
// `Registry::instance()` / `Profiler::instance()` and every RP_* macro
// resolve against current(), so the entire codebase — and its tests — work
// unchanged; code that never binds a context sees exactly the old global
// behavior. Two threads bound to two different contexts observe fully
// disjoint counters/traces/events (the re-entrancy ctest proves byte-
// identical reports for concurrent runs).
//
// MACRO SLOT CACHES. RP_COUNT/RP_GAUGE/RP_PROFILE_REGION cache their slot
// pointer per call site in a thread_local stamped with the owning registry's
// epoch (a process-unique id minted at registry construction). A cache hit
// is one compare + one add; switching contexts — or destroying one and
// allocating another at the same address — changes the epoch and forces
// re-resolution. Stale pointers are never dereferenced.
//
// LIFETIME. A bound context must outlive its binding (ScopedBind unwinds in
// dtor order) and must be unbound from the crash handler (set_crash_context)
// before destruction. The process-default context lives forever.
//
// INTERRUPTS. SIGINT/SIGTERM handling is cooperative: the handler only sets
// a flag; the flow polls check_interrupt() at stage boundaries and inside
// the GP/DP/router loops and throws Error(Interrupted) → exit code 7 with a
// normal partial report + flight dump. A second signal kills immediately.
//
// CRASH HANDLERS. install_crash_handlers() registers SIGSEGV/SIGABRT/
// SIGBUS/SIGFPE handlers that dump the flight recorder of the context named
// by set_crash_context() through the async-signal-safe writer, then re-raise.

#include <memory>
#include <string>

#include "util/event_bus.hpp"
#include "util/profiler.hpp"
#include "util/resource_sampler.hpp"
#include "util/telemetry.hpp"

namespace rp::obs {

/// One run's worth of observability state. Default-constructible, owns all
/// four sinks; see the file comment for the binding/lifetime contract.
class ObsContext {
 public:
  ObsContext() = default;
  ObsContext(const ObsContext&) = delete;
  ObsContext& operator=(const ObsContext&) = delete;

  telemetry::Registry& registry() { return registry_; }
  const telemetry::Registry& registry() const { return registry_; }
  telemetry::TraceBuffer& trace() { return trace_; }
  profiler::Profiler& profiler() { return profiler_; }
  EventBus& events() { return events_; }
  const EventBus& events() const { return events_; }
  ResourceSampler& sampler() { return sampler_; }
  const ResourceSampler& sampler() const { return sampler_; }

  /// Zero counters/gauges and profiler histograms in place (slot addresses
  /// and epochs are preserved; the event bus and trace buffer are not
  /// touched). Fresh contexts start zeroed — this is for reuse.
  void reset() {
    registry_.reset();
    profiler_.reset();
  }

 private:
  telemetry::Registry registry_;
  telemetry::TraceBuffer trace_;
  profiler::Profiler profiler_;
  EventBus events_;
  // Declared AFTER events_: destroyed first, so a still-running sampler is
  // stopped (its dtor) before the bus it may be streaming into goes away.
  ResourceSampler sampler_;
};

/// The fallback context used by threads with no explicit binding — the old
/// process-global behavior. Never destroyed.
ObsContext& process_default();

/// This thread's current context: the bound one, else process_default().
ObsContext& current();

/// Bind `ctx` as this thread's current context (nullptr unbinds). Prefer
/// ScopedBind. The caller guarantees ctx outlives the binding.
void bind(ObsContext* ctx);

/// The raw binding (nullptr when this thread falls back to the default).
ObsContext* bound();

/// RAII binding: binds in the ctor, restores the previous binding in the
/// dtor. Safe to nest.
class ScopedBind {
 public:
  explicit ScopedBind(ObsContext* ctx) : prev_(bound()) { bind(ctx); }
  ~ScopedBind() { bind(prev_); }
  ScopedBind(const ScopedBind&) = delete;
  ScopedBind& operator=(const ScopedBind&) = delete;

 private:
  ObsContext* prev_;
};

/// Shorthand for current().events() — the emit sites' entry point.
inline EventBus& events() { return current().events(); }

// ------------------------------------------------------- interrupt support

/// True once a SIGINT/SIGTERM arrived (or request_interrupt() was called).
bool interrupt_requested();
/// Set the interrupt flag by hand (tests; the signal handler uses the same
/// path). Async-signal-safe.
void request_interrupt();
/// Clear the flag (start of a fresh run).
void clear_interrupt();
/// Throw Error(ErrorCode::Interrupted) when the flag is set. The flow polls
/// this at stage boundaries and inside long loops.
void check_interrupt();

// ----------------------------------------------------------- signal wiring

struct CrashHandlerOptions {
  /// Where crash-path flight dumps land; empty disables dumping (handlers
  /// still re-raise / set the interrupt flag).
  std::string flight_path;
  /// Install SIGSEGV/SIGABRT/SIGBUS/SIGFPE → flight dump + re-raise.
  bool handle_crash_signals = true;
  /// Install SIGINT/SIGTERM → request_interrupt() (second signal: default
  /// action, i.e. die).
  bool handle_interrupt_signals = true;
};

/// Install the process signal handlers. Call once, early in main(); calling
/// again replaces the flight path.
void install_crash_handlers(const CrashHandlerOptions& opt);

/// Name the context whose flight recorder + registry the crash handler
/// dumps (nullptr disarms — REQUIRED before that context is destroyed).
void set_crash_context(ObsContext* ctx);

}  // namespace rp::obs
