#include "core/run_report.hpp"

#include <cstdio>

#include "core/build_info.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/obs_context.hpp"
#include "util/logger.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"

namespace rp {

RunReportMeta make_report_meta(const Design& d, const std::string& source,
                               const std::string& mode, std::uint64_t seed) {
  RunReportMeta m;
  m.design = d.name();
  m.source = source;
  m.mode = mode;
  m.seed = seed;
  m.cells = d.num_cells();
  m.nets = d.num_nets();
  m.macros = d.num_macros();
  m.die_w = d.die().width();
  m.die_h = d.die().height();
  m.row_height = d.row_height();
  return m;
}

namespace {

void write_options(JsonWriter& w, const FlowOptions& opt) {
  w.key("options").begin_object();
  w.kv("legalizer", opt.legalizer);
  w.kv("congestion_aware_dp", opt.congestion_aware_dp);
  w.kv("skip_dp", opt.skip_dp);
  w.kv("skip_eval", opt.skip_eval);
  w.key("gp").begin_object();
  w.kv("wl_model", opt.gp.wl_model);
  w.kv("target_density", opt.gp.target_density);
  w.kv("stop_overflow", opt.gp.stop_overflow);
  w.kv("max_outer", opt.gp.max_outer);
  w.kv("cg_iters", opt.gp.cg_iters);
  w.end_object();
  w.key("routability").begin_object();
  w.kv("enable", opt.gp.routability.enable);
  w.kv("cell_inflation", opt.gp.routability.cell_inflation);
  w.kv("narrow_channels", opt.gp.routability.narrow_channels);
  w.kv("rounds", opt.gp.routability.rounds);
  w.kv("inflate_rate", opt.gp.routability.inflate_rate);
  w.kv("max_total_inflation", opt.gp.routability.max_total_inflation);
  w.end_object();
  w.key("eval").begin_object();
  w.kv("run_router", opt.eval.run_router);
  w.kv("check_legal", opt.eval.check_legal);
  w.end_object();
  w.end_object();
}

void write_eval(JsonWriter& w, const EvalResult& e) {
  w.key("eval").begin_object();
  w.kv("hpwl", e.hpwl);
  w.kv("scaled_hpwl", e.scaled_hpwl);
  w.key("congestion").begin_object();
  w.kv("rc", e.congestion.rc);
  w.kv("ace_005", e.congestion.ace_005);
  w.kv("ace_1", e.congestion.ace_1);
  w.kv("ace_2", e.congestion.ace_2);
  w.kv("ace_5", e.congestion.ace_5);
  w.kv("peak_utilization", e.congestion.peak_utilization);
  w.kv("total_overflow", e.congestion.total_overflow);
  w.kv("overflowed_edges", e.congestion.overflowed_edges);
  w.end_object();
  w.key("route").begin_object();
  w.kv("wirelength", e.route.wirelength);
  w.kv("iterations", e.route.iterations);
  w.kv("segments", e.route.segments);
  w.kv("overflow_free", e.route.overflow_free);
  w.end_object();
  w.key("legality").begin_object();
  w.kv("ok", e.legality.ok());
  w.kv("overlaps", e.legality.overlaps);
  w.kv("row_misaligned", e.legality.row_misaligned);
  w.kv("site_misaligned", e.legality.site_misaligned);
  w.kv("out_of_die", e.legality.out_of_die);
  w.kv("region_violations", e.legality.region_violations);
  w.end_object();
  w.end_object();
}

}  // namespace

std::string run_report_json(const RunReportMeta& meta, const FlowOptions& opt,
                            const FlowResult& r, int indent,
                            const RunErrorInfo& err) {
  // All counter/gauge/profile/event reads go through the run's own context
  // (re-entrancy: reporting run A must not read whatever context happens to
  // be bound right now); binding it here makes the nested writers —
  // profiler::write_report_block in particular — resolve the right
  // instances too.
  RP_ASSERT(r.obs != nullptr, "run report needs the run's observability context");
  const obs::ScopedBind report_bind(r.obs.get());
  const obs::ObsContext& obs_ctx = *r.obs;
  const telemetry::Registry& reg = obs_ctx.registry();

  JsonWriter w(indent);
  w.begin_object();
  // v5: adds the optional "resources" block (sampled RSS/CPU/pool-busy
  // timeline); v4 added the "events" block and reads the parse block's
  // repair counts from the per-run counters; v3 the optional
  // "parse"/"error" blocks; v2 the optional "profile" block. Every earlier
  // field is unchanged, so old consumers keep working.
  w.kv("schema_version", 5);
  w.kv("tool", "routplace");

  if (err.failed) {
    w.key("error").begin_object();
    w.kv("code", err.code);
    w.kv("message", err.message);
    w.kv("where", err.where);
    w.kv("stage", err.stage);
    w.kv("exit_code", static_cast<std::int64_t>(err.exit_code));
    w.end_object();
  }

  const BuildInfo& bi = build_info();
  w.key("build").begin_object();
  w.kv("git_describe", bi.git_describe);
  w.kv("compiler", bi.compiler);
  w.kv("build_type", bi.build_type);
  w.kv("flags", bi.flags);
  w.kv("cxx_standard", static_cast<std::int64_t>(bi.cxx_standard));
  w.end_object();

  w.key("design").begin_object();
  w.kv("name", meta.design);
  w.kv("source", meta.source);
  w.kv("seed", meta.seed);
  w.kv("cells", meta.cells);
  w.kv("nets", meta.nets);
  w.kv("macros", meta.macros);
  w.kv("die_w", meta.die_w);
  w.kv("die_h", meta.die_h);
  w.kv("row_height", meta.row_height);
  w.end_object();

  w.kv("mode", meta.mode);

  // Bookshelf input provenance: parse mode + lenient-repair counts, read
  // straight from the run context's "parse.repair.*" counters. (With a
  // per-run ObsContext the flow no longer resets them — the PR-5 detour
  // that shuttled these through RunReportMeta is gone.)
  if (!meta.parse_mode.empty()) {
    static constexpr const char* kRepairFields[] = {
        "dangling_pins",       "empty_nets",          "duplicate_nodes",
        "synthesized_net_names", "clamped_fixed_cells", "count_mismatches",
        "unknown_pl_nodes",
    };
    w.key("parse").begin_object();
    w.kv("mode", meta.parse_mode);
    w.key("repairs").begin_object();
    std::int64_t total = 0;
    for (const char* f : kRepairFields) {
      const std::int64_t v = reg.counter_value(std::string("parse.repair.") + f);
      w.kv(f, v);
      total += v;
    }
    w.kv("total", total);
    w.end_object();
    w.end_object();
  }

  // Runtime provenance, not results: everything under "parallel" may differ
  // between two otherwise-identical runs (thread count, pool statistics), so
  // rp_report_diff ignores the whole block by default — the determinism
  // contract is that every block OUTSIDE it is byte-identical for any
  // --threads value.
  w.key("parallel").begin_object();
  w.kv("threads", static_cast<std::int64_t>(parallel::num_threads()));
  w.kv("hardware_threads", static_cast<std::int64_t>(parallel::hardware_threads()));
  w.kv("regions", parallel::ThreadPool::instance().regions_run());
  w.kv("chunks", parallel::ThreadPool::instance().chunks_run());
  w.end_object();

  // Kernel-dispatch provenance, same contract as "parallel": the active
  // vector level and the incremental-eval switch never change results (the
  // determinism gate diffs across them), so the whole block is ignored by
  // rp_report_diff and the determinism check.
  w.key("simd").begin_object();
  w.kv("requested", simd::requested());
  w.kv("active", simd::level_name(simd::active_level()));
  w.kv("host_avx2", simd::host_features().avx2);
  w.kv("host_neon", simd::host_features().neon);
  w.kv("incremental_eval", opt.dp.incremental);
  w.end_object();

  write_options(w, opt);
  write_eval(w, r.eval);

  w.key("gp").begin_object();
  w.kv("final_hpwl", r.gp.final_hpwl);
  w.kv("final_overflow", r.gp.final_overflow);
  w.kv("total_outer", r.gp.total_outer);
  w.kv("levels", r.gp.levels);
  w.kv("inflation_rounds", r.gp.inflation_rounds);
  w.kv("mean_inflation", r.gp.mean_inflation);
  w.end_object();

  w.key("gp_trace").begin_array();
  for (const GpTracePoint& p : r.gp_trace) {
    w.begin_object();
    w.kv("level", p.level);
    w.kv("outer", p.outer);
    w.kv("hpwl", p.hpwl);
    w.kv("overflow", p.overflow);
    w.kv("lambda", p.lambda);
    w.kv("inflation", p.inflation);
    w.end_object();
  }
  w.end_array();

  w.key("macro_legal").begin_object();
  w.kv("macros", r.macro_legal.macros);
  w.kv("failed", r.macro_legal.failed);
  w.kv("total_disp", r.macro_legal.total_disp);
  w.kv("max_disp", r.macro_legal.max_disp);
  w.end_object();

  w.key("legal").begin_object();
  w.kv("cells", r.legal.cells);
  w.kv("failed", r.legal.failed);
  w.kv("avg_disp", r.legal.avg_disp());
  w.kv("max_disp", r.legal.max_disp);
  w.end_object();

  w.key("dp").begin_object();
  w.kv("hpwl_before", r.dp.hpwl_before);
  w.kv("hpwl_after", r.dp.hpwl_after);
  w.kv("improvement", r.dp.improvement());
  w.kv("swaps", static_cast<std::int64_t>(r.dp.swaps));
  w.kv("relocations", static_cast<std::int64_t>(r.dp.relocations));
  w.kv("reorders", static_cast<std::int64_t>(r.dp.reorders));
  w.kv("ism_moves", static_cast<std::int64_t>(r.dp.ism_moves));
  w.end_object();

  w.key("stage_times").begin_object();
  for (const auto& [name, sec] : r.times.entries()) w.kv(name, sec);
  w.end_object();
  w.kv("stage_total_sec", r.times.total());

  w.key("counters").begin_object();
  for (const auto& [name, v] : reg.counters()) w.kv(name, v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : reg.gauges()) w.kv(name, v);
  w.end_object();

  // Event-bus totals. The count is deterministic (payloads are pure
  // functions of the computation; only seq/timestamps are volatile), so
  // check_progress.py cross-checks it against the NDJSON stream's final seq.
  w.key("events").begin_object();
  w.kv("emitted", static_cast<std::int64_t>(obs_ctx.events().events_emitted()));
  w.kv("flight_capacity",
       static_cast<std::int64_t>(obs::EventBus::kFlightCapacity));
  w.end_object();

  // Like "parallel": runtime provenance, ignored by rp_report_diff and the
  // determinism check (timings differ run to run by construction).
  if (profiler::enabled()) profiler::write_report_block(w);

  // Sampled resource timeline (schema v5). Wall-clock observations — the
  // whole block is on the report-diff/determinism ignore lists. Present only
  // when the run's sampler was started (--sample-resources > 0).
  const obs::ResourceSampler::Summary res = obs_ctx.sampler().summary();
  if (res.enabled) {
    w.key("resources").begin_object();
    w.kv("tick_ms", static_cast<std::int64_t>(res.tick_ms));
    w.kv("effective_tick_ms", static_cast<std::int64_t>(res.effective_tick_ms));
    w.kv("downsample_rounds", static_cast<std::int64_t>(res.downsample_rounds));
    w.kv("samples_taken", res.samples_taken);
    w.kv("peak_rss_kb", res.peak_rss_kb);
    w.kv("peak_pool_busy", res.peak_pool_busy);
    w.kv("cpu_utime_ms", static_cast<std::int64_t>(res.cpu_utime_ms));
    w.kv("cpu_stime_ms", static_cast<std::int64_t>(res.cpu_stime_ms));
    w.key("samples").begin_array();
    for (const obs::ResourceSample& s : res.samples) {
      w.begin_object();
      w.kv("t_ms", static_cast<std::int64_t>(s.t_ms));
      w.kv("rss_kb", s.rss_kb);
      w.kv("utime_ms", static_cast<std::int64_t>(s.utime_ms));
      w.kv("stime_ms", static_cast<std::int64_t>(s.stime_ms));
      w.kv("pool_busy", s.pool_busy);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.kv("peak_rss_kb", static_cast<std::int64_t>(telemetry::peak_rss_kb()));
  w.kv("snapshot_dir", r.snapshot_dir);
  w.end_object();
  return w.str();
}

bool write_run_report(const std::string& path, const RunReportMeta& meta,
                      const FlowOptions& opt, const FlowResult& r,
                      const RunErrorInfo& err) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    RP_ERROR("run report: cannot open '%s'", path.c_str());
    return false;
  }
  const std::string doc = run_report_json(meta, opt, r, 2, err);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fputc('\n', f);
  std::fclose(f);
  if (!ok) RP_ERROR("run report: short write to '%s'", path.c_str());
  return ok;
}

}  // namespace rp
