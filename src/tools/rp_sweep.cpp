// `rp_sweep` — campaign orchestrator for cross-run observability.
//
//   rp_sweep --spec campaign.json --out campaigns/ablation
//            --routplace build/src/core/routplace [--jobs 4]
//
// (one command line, wrapped here for width)
//
// Expands the spec's configuration × seed grid, fans runs out across child
// processes (at most --jobs concurrent), captures every run's report and
// flight dump into <out>/runs/<id>/, and writes the deterministic
// <out>/campaign.json manifest. Re-running a
// finished campaign directory is a no-op (resume via per-run status.json).
// All logic lives in core/sweep.{hpp,cpp} so it is unit-tested.
//
// Exit codes: 0 = every run legal ("ok"), 1 = campaign completed but at
// least one run failed or was not legal (the manifest has the details),
// 2 = usage error, 3/4/6 = spec or setup errors per the error taxonomy.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "util/error.hpp"
#include "util/str.hpp"

namespace {

const char* kUsage =
    "rp_sweep — run a routplace campaign (configuration x seed grid)\n"
    "\n"
    "usage: rp_sweep --spec <campaign.json> --out <dir> --routplace <bin>\n"
    "                [--jobs <n>] [--dry-run]\n"
    "\n"
    "  --spec <file>       campaign spec: {name, base{flag:value},\n"
    "                      axes{flag:[values]}, seeds[...]} — string/number\n"
    "                      values become '--flag value', true a bare flag,\n"
    "                      null/false omits the flag for that cell\n"
    "  --out <dir>         campaign directory: campaign.json + runs/<id>/\n"
    "  --routplace <bin>   placer binary to drive\n"
    "  --jobs <n>          max concurrent runs (default: hardware threads)\n"
    "  --dry-run           expand and print the grid; execute nothing\n"
    "\n"
    "Re-running a finished campaign directory skips completed runs\n"
    "(status.json match) and rewrites the identical manifest.\n"
    "\n"
    "exit codes: 0 all runs ok; 1 campaign completed with failed/not-legal\n"
    "runs; 2 usage; 3 spec parse error; 4 spec validation error; 6 setup\n"
    "resource error\n";

struct Args {
  rp::SweepOptions opt;
  bool help = false;
};

Args parse_args(const std::vector<std::string>& args) {
  Args a;
  const auto need_value = [&](std::size_t i, const std::string& opt) {
    if (i + 1 >= args.size())
      throw std::runtime_error("option '" + opt + "' needs a value");
    return args[i + 1];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& s = args[i];
    if (s == "--spec") a.opt.spec_path = need_value(i++, s);
    else if (s == "--out") a.opt.out_dir = need_value(i++, s);
    else if (s == "--routplace") a.opt.routplace = need_value(i++, s);
    else if (s == "--jobs")
      a.opt.jobs = static_cast<int>(rp::to_long(need_value(i++, s)));
    else if (s == "--dry-run") a.opt.dry_run = true;
    else if (s == "--help" || s == "-h") a.help = true;
    else throw std::runtime_error("unknown option '" + s + "' (see --help)");
  }
  if (a.help) return a;
  if (a.opt.spec_path.empty()) throw std::runtime_error("--spec is required");
  if (a.opt.routplace.empty() && !a.opt.dry_run)
    throw std::runtime_error("--routplace is required");
  if (a.opt.out_dir.empty() && !a.opt.dry_run)
    throw std::runtime_error("--out is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args({argv + 1, argv + argc});
    if (a.help) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    const rp::SweepOutcome out = rp::run_campaign(a.opt);
    if (a.opt.dry_run) {
      std::printf("campaign '%s': %zu run(s)\n", out.name.c_str(),
                  out.results.size());
      for (const rp::SweepRunResult& r : out.results) {
        std::printf("  %-40s", r.run.id.c_str());
        for (const std::string& arg : r.run.args) std::printf(" %s", arg.c_str());
        std::printf("\n");
      }
      return 0;
    }
    std::printf("\ncampaign '%s': %zu run(s) — %d ok, %d failed "
                "(%d executed, %d resumed)\n",
                out.name.c_str(), out.results.size(), out.ok, out.failed,
                out.executed, out.skipped);
    for (const rp::SweepRunResult& r : out.results) {
      std::printf("  %-40s %-16s exit %d%s\n", r.run.id.c_str(),
                  r.status.c_str(), r.exit_code,
                  r.skipped ? "  (resumed)" : "");
      if (r.has_error)
        std::printf("      %s: %s [%s]\n", r.error_code.c_str(),
                    r.error_message.c_str(), r.error_where.c_str());
    }
    std::printf("manifest: %s/campaign.json\n", a.opt.out_dir.c_str());
    return out.failed == 0 ? 0 : 1;
  } catch (const rp::Error& e) {
    std::fprintf(stderr, "rp_sweep: %s\n", e.what());
    return e.exit_code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rp_sweep: %s\n", e.what());
    return 2;
  }
}
