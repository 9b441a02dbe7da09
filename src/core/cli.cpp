#include "core/cli.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "core/run_report.hpp"
#include "db/bookshelf.hpp"
#include "gen/generator.hpp"
#include "util/error.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"
#include "util/str.hpp"
#include "util/telemetry.hpp"

namespace rp {

std::string cli_usage() {
  return
      "routplace — routability-driven placement for hierarchical mixed-size designs\n"
      "\n"
      "usage: routplace [options]\n"
      "\n"
      "input (choose one):\n"
      "  --aux <file.aux>        Bookshelf benchmark to place\n"
      "  --gen <n>               generate a synthetic benchmark with n std cells\n"
      "      --seed <s>          generator seed (default 1)\n"
      "      --supply <f>        generator track supply (default 1.0)\n"
      "  --strict                reject malformed Bookshelf input (default):\n"
      "                          any defect is a ParseError with file:line\n"
      "  --lenient               repair-and-warn instead: drop dangling pins and\n"
      "                          empty nets, keep the first of duplicate nodes,\n"
      "                          synthesize missing net names, clamp fully\n"
      "                          off-die fixed cells; each repair is counted in\n"
      "                          the report's \"parse\" block\n"
      "\n"
      "flow:\n"
      "  --mode <m>              routability (default) | wirelength\n"
      "  --legalizer <l>         abacus (default) | tetris\n"
      "  --density <f>           target placement density (default 1.0)\n"
      "  --rounds <n>            routability (inflation) rounds (default 3)\n"
      "  --wl-model <m>          WA | LSE — smooth wirelength model for GP\n"
      "                          (default: the mode's preset, WA)\n"
      "  --inflate-rate <f>      per-round cell inflation step for congested\n"
      "                          bins (default: the mode's preset, 0.45)\n"
      "  --threads <n>           worker threads for the hot kernels (0 = auto:\n"
      "                          RP_THREADS env, else hardware concurrency);\n"
      "                          results are identical for every thread count\n"
      "  --simd <level>          auto (default) | off | avx2 | neon — vector\n"
      "                          instruction level for the wirelength/density/\n"
      "                          CG kernels; 'auto' picks the best the host\n"
      "                          supports, unavailable levels fall back with a\n"
      "                          warning. Results are bitwise identical at\n"
      "                          every level (also via RP_SIMD env)\n"
      "  --incremental-eval <m>  on (default) | off — detailed placement\n"
      "                          scores candidate moves through cached per-net\n"
      "                          deltas instead of full re-evaluation; byte-\n"
      "                          identical placements either way (off is the\n"
      "                          cross-check reference; see also\n"
      "                          RP_CHECK_INCREMENTAL=1)\n"
      "  --max-gp-iters <n>      watchdog: cap total GP outer iterations; when\n"
      "                          hit, GP stops spreading early and the flow\n"
      "                          continues (deterministic; 0 = off)\n"
      "  --max-seconds <f>       watchdog: GP wall-clock budget in seconds; same\n"
      "                          graceful early-stop (machine-dependent, so NOT\n"
      "                          deterministic across hosts or thread counts;\n"
      "                          0 = off)\n"
      "  --skip-dp               skip detailed placement\n"
      "  --profile               in-process profiler: per-region latency\n"
      "                          histograms + thread-pool busy/wait accounting;\n"
      "                          adds a \"profile\" block to --report-json\n"
      "                          (never changes results; also via RP_PROFILE=1)\n"
      "\n"
      "output:\n"
      "  --out <file.pl>         placement output (default <design>.rp.pl)\n"
      "  --map                   print the routed-congestion ASCII map\n"
      "  --report-json <file>    write a structured JSON run report\n"
      "  --trace-json <file>     write a chrome://tracing / Perfetto flow trace\n"
      "  --progress-ndjson <t>   stream schema-versioned NDJSON progress events\n"
      "                          (stage transitions, per-GP-iteration convergence,\n"
      "                          routability rounds) to <t>: a path, '-' for\n"
      "                          stdout, or 'fd:N' for an inherited descriptor;\n"
      "                          flushed per event so the run can be tailed live\n"
      "  --flight-json <file>    black-box flight recorder: on an error exit,\n"
      "                          watchdog expiry, interrupt, or fatal signal,\n"
      "                          dump the last events + counter snapshot here\n"
      "  --snapshot-dir <dir>    capture spatial snapshots: density/congestion/\n"
      "                          inflation/displacement heatmaps per routability\n"
      "                          round + convergence history (see DESIGN.md)\n"
      "  --snapshot-every <n>    also capture a density map every n finest-level\n"
      "                          GP iterations (0 = off, default)\n"
      "  --snapshot-svg          render .svg heatmaps next to the .ppm files\n"
      "  --sample-resources <ms> resource timeline sampler tick in milliseconds\n"
      "                          (default 25; 0 disables): a background thread\n"
      "                          samples RSS / CPU / thread-pool busy fraction\n"
      "                          into the report's \"resources\" block and, when\n"
      "                          --progress-ndjson is open, live 'rp_resource'\n"
      "                          lines. Observation only — never changes results\n"
      "  --verbose               per-iteration placer logging\n"
      "  --help                  this text\n"
      "\n"
      "environment:\n"
      "  RP_LOG_LEVEL            debug|info|warn|error|silent — overrides --verbose\n"
      "  RP_PROFILE              1 = enable the profiler (same as --profile)\n"
      "  RP_SIMD                 auto|off|avx2|neon (--simd wins when both set)\n"
      "  RP_SAMPLE_MS            resource sampler tick (--sample-resources wins)\n"
      "  RP_CHECK_INCREMENTAL    1 = cross-check every incremental DP delta\n"
      "                          against a full re-evaluation (debug; slow)\n"
      "\n"
      "exit codes:\n"
      "  0 legal placement   1 completed, not legal   2 usage error\n"
      "  3 ParseError        4 ValidationError        5 NumericError\n"
      "  6 ResourceError     7 Interrupted (SIGINT/SIGTERM; partial report +\n"
      "                        flight dump are written before exiting)\n"
      "  (see README 'Error handling & exit codes')\n";
}

CliConfig parse_cli_args(const std::vector<std::string>& args) {
  CliConfig cfg;
  const auto need_value = [&](std::size_t i, const std::string& opt) {
    if (i + 1 >= args.size())
      throw std::runtime_error("option '" + opt + "' needs a value");
    return args[i + 1];
  };
  // Numeric values: an int option rejects what an int cannot hold (rather
  // than wrapping it), a real option rejects nan/inf (which slip through
  // every range check below).
  const auto int_value = [&](std::size_t i, const std::string& opt) {
    const long v = to_long(need_value(i, opt));
    if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
      throw std::runtime_error("option '" + opt + "' value out of range");
    return static_cast<int>(v);
  };
  const auto real_value = [&](std::size_t i, const std::string& opt) {
    const double v = to_double(need_value(i, opt));
    if (!std::isfinite(v))
      throw std::runtime_error("option '" + opt + "' needs a finite value");
    return v;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--aux") cfg.aux = need_value(i++, a);
    else if (a == "--out") cfg.out_pl = need_value(i++, a);
    else if (a == "--mode") cfg.mode = need_value(i++, a);
    else if (a == "--legalizer") cfg.legalizer = need_value(i++, a);
    else if (a == "--gen") cfg.gen_cells = int_value(i++, a);
    else if (a == "--seed") cfg.seed = static_cast<std::uint64_t>(to_long(need_value(i++, a)));
    else if (a == "--supply") cfg.track_supply = real_value(i++, a);
    else if (a == "--density") cfg.target_density = real_value(i++, a);
    else if (a == "--rounds") cfg.routability_rounds = int_value(i++, a);
    else if (a == "--wl-model") cfg.wl_model = need_value(i++, a);
    else if (a == "--inflate-rate") cfg.inflate_rate = real_value(i++, a);
    else if (a == "--sample-resources")
      cfg.sample_resources_ms = int_value(i++, a);
    else if (a == "--threads") cfg.threads = int_value(i++, a);
    else if (a == "--simd") cfg.simd = need_value(i++, a);
    else if (a == "--incremental-eval") {
      const std::string v = need_value(i++, a);
      if (v != "on" && v != "off")
        throw std::runtime_error("--incremental-eval must be 'on' or 'off'");
      cfg.incremental_eval = v == "on";
    }
    else if (a == "--strict") cfg.lenient = false;
    else if (a == "--lenient") cfg.lenient = true;
    else if (a == "--max-gp-iters")
      cfg.max_gp_iters = int_value(i++, a);
    else if (a == "--max-seconds") cfg.max_seconds = real_value(i++, a);
    else if (a == "--skip-dp") cfg.skip_dp = true;
    else if (a == "--profile") cfg.profile = true;
    else if (a == "--report-json") cfg.report_json = need_value(i++, a);
    else if (a == "--trace-json") cfg.trace_json = need_value(i++, a);
    else if (a == "--progress-ndjson") cfg.progress_ndjson = need_value(i++, a);
    else if (a == "--flight-json") cfg.flight_json = need_value(i++, a);
    else if (a == "--snapshot-dir") cfg.snapshot_dir = need_value(i++, a);
    else if (a == "--snapshot-every")
      cfg.snapshot_every = int_value(i++, a);
    else if (a == "--snapshot-svg") cfg.snapshot_svg = true;
    else if (a == "--map") cfg.show_map = true;
    else if (a == "--verbose") cfg.verbose = true;
    else if (a == "--help" || a == "-h") cfg.help = true;
    else throw std::runtime_error("unknown option '" + a + "' (see --help)");
  }
  if (cfg.gen_cells <= 0)
    throw std::runtime_error("--gen must be >= 1");
  if (cfg.track_supply <= 0)
    throw std::runtime_error("--supply must be > 0");
  if (cfg.mode != "routability" && cfg.mode != "wirelength")
    throw std::runtime_error("--mode must be 'routability' or 'wirelength'");
  if (cfg.legalizer != "abacus" && cfg.legalizer != "tetris")
    throw std::runtime_error("--legalizer must be 'abacus' or 'tetris'");
  if (cfg.target_density <= 0 || cfg.target_density > 1.0)
    throw std::runtime_error("--density must be in (0, 1]");
  if (cfg.routability_rounds < 0)
    throw std::runtime_error("--rounds must be >= 0");
  if (!cfg.wl_model.empty() && cfg.wl_model != "WA" && cfg.wl_model != "LSE")
    throw std::runtime_error("--wl-model must be 'WA' or 'LSE'");
  if (cfg.inflate_rate != -1.0 && (cfg.inflate_rate < 0 || cfg.inflate_rate > 10.0))
    throw std::runtime_error("--inflate-rate must be in [0, 10]");
  if (cfg.sample_resources_ms < -1)
    throw std::runtime_error("--sample-resources must be >= 0 (0 = off)");
  if (cfg.threads < 0)
    throw std::runtime_error("--threads must be >= 0 (0 = auto)");
  if (!cfg.simd.empty()) {
    bool recognized = false;
    simd::resolve(cfg.simd, &recognized);
    if (!recognized)
      throw std::runtime_error("--simd must be auto, off, scalar, avx2 or neon");
  }
  if (cfg.max_gp_iters < 0)
    throw std::runtime_error("--max-gp-iters must be >= 0 (0 = off)");
  if (cfg.max_seconds < 0)
    throw std::runtime_error("--max-seconds must be >= 0 (0 = off)");
  if (cfg.snapshot_every < 0)
    throw std::runtime_error("--snapshot-every must be >= 0");
  if ((cfg.snapshot_every > 0 || cfg.snapshot_svg) && cfg.snapshot_dir.empty())
    throw std::runtime_error("--snapshot-every/--snapshot-svg need --snapshot-dir");
  return cfg;
}

FlowOptions cli_flow_options(const CliConfig& cfg) {
  FlowOptions opt = cfg.mode == "routability" ? routability_driven_options()
                                              : wirelength_driven_options();
  opt.legalizer = cfg.legalizer;
  opt.gp.target_density = cfg.target_density;
  opt.gp.routability.rounds = cfg.routability_rounds;
  if (!cfg.wl_model.empty()) opt.gp.wl_model = cfg.wl_model;
  if (cfg.inflate_rate >= 0) opt.gp.routability.inflate_rate = cfg.inflate_rate;
  opt.gp.max_gp_iters = cfg.max_gp_iters;
  opt.gp.max_seconds = cfg.max_seconds;
  opt.gp.verbose = cfg.verbose;
  opt.dp.incremental = cfg.incremental_eval;
  opt.skip_dp = cfg.skip_dp;
  opt.snapshot.dir = cfg.snapshot_dir;
  opt.snapshot.density_every = cfg.snapshot_every;
  opt.snapshot.render_svg = cfg.snapshot_svg;
  return opt;
}

int run_cli(const CliConfig& cfg) {
  if (cfg.help) {
    std::fputs(cli_usage().c_str(), stdout);
    return 0;
  }
  Logger::set_level(cfg.verbose ? LogLevel::Debug : LogLevel::Info);

  const int threads = parallel::resolve_threads(cfg.threads);
  parallel::set_num_threads(threads);
  RP_DEBUG("thread pool: %d thread(s) (hardware %d)", threads,
           parallel::hardware_threads());

  if (!cfg.simd.empty()) simd::set_from_string(cfg.simd);
  RP_DEBUG("simd kernels: %s (requested '%s')", simd::level_name(simd::active_level()),
           simd::requested().c_str());

  if (cfg.profile || profiler::env_requested()) profiler::set_enabled(true);

  const std::string source = cfg.aux.empty() ? "generated" : "bookshelf";
  const std::string parse_mode = cfg.lenient ? "lenient" : "strict";
  FlowOptions fopt = cli_flow_options(cfg);
  ParseRepairs repairs;
  bool trace_active = false;

  // Per-run observability context: counters, trace buffer, profiler regions
  // and the event bus all live here, bound to this thread for the whole
  // parse → flow → report span. Parse-time state (repair counters, the
  // ParseRepair event) accumulates in the SAME context the flow uses, so it
  // lands in the report without any side channel — and a second run_cli in
  // one process starts from a fresh context.
  auto obs_ctx = std::make_shared<obs::ObsContext>();
  obs::ScopedBind obs_bind(obs_ctx.get());
  obs::clear_interrupt();
  obs::set_crash_context(obs_ctx.get());
  struct CrashCtxGuard {
    ~CrashCtxGuard() { obs::set_crash_context(nullptr); }
  } crash_ctx_guard;  // the context dies with run_cli; disarm the handler first
  fopt.obs = obs_ctx;

  if (!cfg.progress_ndjson.empty() &&
      !obs_ctx->events().open_stream(cfg.progress_ndjson))
    RP_THROW(ErrorCode::ResourceError,
             "cannot open progress stream '" + cfg.progress_ndjson + "'");

  // Resource timeline sampler: on by default (--sample-resources 0 turns it
  // off). Started AFTER the progress stream opens so its live rp_resource
  // lines have a sink, stopped BEFORE close_stream()/report writing on every
  // exit path (the write_raw_line contract).
  {
    int tick_ms = cfg.sample_resources_ms;
    if (tick_ms < 0) {
      tick_ms = obs::ResourceSampler::kDefaultTickMs;
      if (const char* env = std::getenv("RP_SAMPLE_MS");
          env != nullptr && env[0] != '\0') {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 0) tick_ms = static_cast<int>(v);
      }
    }
    if (tick_ms > 0) {
      obs::ResourceSampler::Options so;
      so.tick_ms = tick_ms;
      so.stream = &obs_ctx->events();
      obs_ctx->sampler().start(so);
    }
  }

  const auto dump_flight = [&](const char* reason) {
    if (cfg.flight_json.empty()) return;
    if (obs_ctx->events().dump_flight(cfg.flight_json, reason,
                                      &obs_ctx->registry()))
      RP_INFO("flight recorder dumped to '%s'", cfg.flight_json.c_str());
  };

  // Failure path shared by parse and flow errors (including Interrupted):
  // emit the terminal error event, finish the trace if one is recording,
  // dump the flight recorder, write the run report (with its "error" block)
  // if requested, log, and return the error class's documented exit code.
  const auto report_error = [&](const Error& e, const RunReportMeta& meta) {
    obs::Event ev = obs_ctx->events().make(obs::EventKind::RunError, e.code_name());
    ev.i0 = e.exit_code();
    obs_ctx->events().emit(ev);
    obs_ctx->sampler().stop();  // before close_stream; the report reads it
    obs_ctx->events().close_stream();
    if (trace_active) {
      telemetry::stop_trace();
      telemetry::write_trace_json(cfg.trace_json);
    }
    dump_flight(e.code_name());
    FlowResult failed;
    failed.obs = obs_ctx;  // the report still reads the run's counters
    if (!cfg.report_json.empty() &&
        write_run_report(cfg.report_json, meta, fopt, failed, RunErrorInfo::from(e)))
      RP_INFO("run report written to '%s'", cfg.report_json.c_str());
    RP_ERROR("%s", e.what());
    return e.exit_code();
  };

  Design d;
  if (!cfg.aux.empty()) {
    BookshelfOptions bso;
    bso.mode = cfg.lenient ? ParseMode::Lenient : ParseMode::Strict;
    bso.repairs = &repairs;
    try {
      d = read_bookshelf(cfg.aux, bso);
    } catch (const Error& e) {
      RunReportMeta meta;
      meta.design = cfg.aux;
      meta.source = source;
      meta.mode = cfg.mode;
      meta.parse_mode = parse_mode;
      return report_error(e, meta);
    }
  } else {
    BenchmarkSpec spec = small_spec(cfg.seed);
    spec.num_std_cells = cfg.gen_cells;
    spec.track_supply = cfg.track_supply;
    spec.name = "gen" + std::to_string(cfg.gen_cells);
    d = generate_benchmark(spec);
  }

  RunReportMeta meta =
      make_report_meta(d, source, cfg.mode, cfg.aux.empty() ? cfg.seed : 0);
  if (!cfg.aux.empty()) {
    meta.parse_mode = parse_mode;
    if (repairs.total() > 0)
      RP_WARN("lenient parse repaired %ld defect(s) in '%s' (see report)",
              repairs.total(), cfg.aux.c_str());
  }

  if (!cfg.trace_json.empty()) {
    telemetry::start_trace();
    trace_active = true;
  }

  PlacementFlow flow(fopt);
  FlowResult r;
  try {
    r = flow.run(d);
  } catch (const Error& e) {
    return report_error(e, meta);
  }

  // The flow emitted its RunEnd event; the stream is complete. Stop the
  // sampler first (it may still be streaming rp_resource lines) so the
  // report below sees the final timeline.
  obs_ctx->sampler().stop();
  obs_ctx->events().close_stream();
  // Watchdog expiry is a degraded-but-completed run: leave the black box.
  if (obs_ctx->registry().counter_value("guard.watchdog_gp_iters") +
          obs_ctx->registry().counter_value("guard.watchdog_seconds") >
      0)
    dump_flight("watchdog");

  if (trace_active) {
    telemetry::stop_trace();
    if (telemetry::write_trace_json(cfg.trace_json))
      RP_INFO("trace written to '%s' (load in chrome://tracing or ui.perfetto.dev)",
              cfg.trace_json.c_str());
  }
  if (!cfg.report_json.empty()) {
    if (write_run_report(cfg.report_json, meta, flow.options(), r))
      RP_INFO("run report written to '%s'", cfg.report_json.c_str());
  }

  const std::string out = cfg.out_pl.empty() ? d.name() + ".rp.pl" : cfg.out_pl;
  write_pl(d, out);

  std::printf("\n%s placement of '%s'\n", cfg.mode.c_str(), d.name().c_str());
  std::printf("  HPWL         %.4e\n", r.eval.hpwl);
  std::printf("  scaled HPWL  %.4e\n", r.eval.scaled_hpwl);
  std::printf("  RC           %.1f (ACE %.1f/%.1f/%.1f/%.1f)\n", r.eval.congestion.rc,
              r.eval.congestion.ace_005, r.eval.congestion.ace_1, r.eval.congestion.ace_2,
              r.eval.congestion.ace_5);
  std::printf("  overflow     %.0f tracks / %d edges, peak %.2f\n",
              r.eval.congestion.total_overflow, r.eval.congestion.overflowed_edges,
              r.eval.congestion.peak_utilization);
  std::printf("  legal        %s\n", r.eval.legality.ok() ? "yes" : "NO");
  std::printf("  runtime      %s\n", r.times.report_flat().c_str());
  std::printf("  solution     %s\n", out.c_str());
  if (!r.snapshot_dir.empty())
    std::printf("  snapshots    %s\n", r.snapshot_dir.c_str());
  std::printf("\nruntime breakdown:\n%s\n", r.times.report().c_str());
  if (cfg.show_map) {
    std::printf("\nrouted congestion ('#'>105%%, '+'>95%%, ':'>80%%, 'M' macro):\n%s",
                congestion_ascii(d, 64).c_str());
  }
  return r.eval.legality.ok() ? 0 : 1;
}

}  // namespace rp
