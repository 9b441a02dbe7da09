// CLI driver: argument parsing, validation, option -> FlowOptions mapping,
// and an end-to-end run against a generated benchmark (writes a .pl).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/cli.hpp"
#include "db/bookshelf.hpp"
#include "gen/generator.hpp"
#include "util/json.hpp"
#include "util/logger.hpp"

namespace rp {
namespace {

TEST(Cli, DefaultsWhenNoArgs) {
  const CliConfig c = parse_cli_args({});
  EXPECT_TRUE(c.aux.empty());
  EXPECT_EQ(c.mode, "routability");
  EXPECT_EQ(c.legalizer, "abacus");
  EXPECT_FALSE(c.help);
}

TEST(Cli, ParsesAllOptions) {
  const CliConfig c = parse_cli_args({"--aux", "x.aux", "--out", "y.pl", "--mode",
                                      "wirelength", "--legalizer", "tetris", "--seed",
                                      "42", "--supply", "1.5", "--density", "0.9",
                                      "--rounds", "5", "--skip-dp", "--map",
                                      "--verbose"});
  EXPECT_EQ(c.aux, "x.aux");
  EXPECT_EQ(c.out_pl, "y.pl");
  EXPECT_EQ(c.mode, "wirelength");
  EXPECT_EQ(c.legalizer, "tetris");
  EXPECT_EQ(c.seed, 42u);
  EXPECT_DOUBLE_EQ(c.track_supply, 1.5);
  EXPECT_DOUBLE_EQ(c.target_density, 0.9);
  EXPECT_EQ(c.routability_rounds, 5);
  EXPECT_TRUE(c.skip_dp);
  EXPECT_TRUE(c.show_map);
  EXPECT_TRUE(c.verbose);
}

TEST(Cli, RejectsUnknownOption) {
  EXPECT_THROW(parse_cli_args({"--frobnicate"}), std::runtime_error);
}

TEST(Cli, RejectsMissingValue) {
  EXPECT_THROW(parse_cli_args({"--aux"}), std::runtime_error);
}

TEST(Cli, RejectsBadMode) {
  EXPECT_THROW(parse_cli_args({"--mode", "telepathy"}), std::runtime_error);
}

TEST(Cli, RejectsBadLegalizer) {
  EXPECT_THROW(parse_cli_args({"--legalizer", "bulldozer"}), std::runtime_error);
}

TEST(Cli, RejectsBadDensity) {
  EXPECT_THROW(parse_cli_args({"--density", "0"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--density", "1.5"}), std::runtime_error);
}

TEST(Cli, RejectsNonNumericValue) {
  EXPECT_THROW(parse_cli_args({"--seed", "banana"}), std::runtime_error);
}

TEST(Cli, RejectsNonPositiveGen) {
  // Would otherwise reach the generator's "spec needs cells" assertion.
  EXPECT_THROW(parse_cli_args({"--gen", "0"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--gen", "-5"}), std::runtime_error);
}

TEST(Cli, RejectsIntValuesThatDoNotFitAnInt) {
  // 5000000000 would wrap to 705032704; 4294967297 to 1.
  EXPECT_THROW(parse_cli_args({"--gen", "5000000000"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--threads", "5000000000"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--rounds", "4294967297"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--max-gp-iters", "4294967297"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--snapshot-every", "4294967297", "--snapshot-dir", "s"}),
               std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--sample-resources", "4294967297"}), std::runtime_error);
}

TEST(Cli, RejectsNonFiniteRealValues) {
  // NaN compares false against every range bound, so it passed them all.
  EXPECT_THROW(parse_cli_args({"--density", "nan"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--inflate-rate", "nan"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--max-seconds", "nan"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--max-seconds", "inf"}), std::runtime_error);
}

TEST(Cli, RejectsBadSupply) {
  EXPECT_THROW(parse_cli_args({"--supply", "0"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--supply", "-1"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--supply", "nan"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--supply", "inf"}), std::runtime_error);
  EXPECT_DOUBLE_EQ(parse_cli_args({"--supply", "3"}).track_supply, 3.0);
}

TEST(Cli, HelpFlag) {
  const CliConfig c = parse_cli_args({"--help"});
  EXPECT_TRUE(c.help);
  EXPECT_NE(cli_usage().find("--aux"), std::string::npos);
  EXPECT_EQ(run_cli(c), 0);  // prints usage, succeeds
}

TEST(Cli, FlowOptionsMapping) {
  CliConfig c = parse_cli_args({"--mode", "wirelength", "--legalizer", "tetris",
                                "--density", "0.85", "--rounds", "7", "--skip-dp"});
  const FlowOptions opt = cli_flow_options(c);
  EXPECT_FALSE(opt.gp.routability.enable);
  EXPECT_FALSE(opt.congestion_aware_dp);
  EXPECT_EQ(opt.legalizer, "tetris");
  EXPECT_DOUBLE_EQ(opt.gp.target_density, 0.85);
  EXPECT_EQ(opt.gp.routability.rounds, 7);
  EXPECT_TRUE(opt.skip_dp);

  c.mode = "routability";
  EXPECT_TRUE(cli_flow_options(c).gp.routability.enable);
}

TEST(Cli, ParsesThreadsFlag) {
  EXPECT_EQ(parse_cli_args({}).threads, 0);  // 0 = auto
  EXPECT_EQ(parse_cli_args({"--threads", "4"}).threads, 4);
  EXPECT_EQ(parse_cli_args({"--threads", "1"}).threads, 1);
  EXPECT_THROW(parse_cli_args({"--threads", "-2"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--threads"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--threads", "two"}), std::runtime_error);
  EXPECT_NE(cli_usage().find("--threads"), std::string::npos);
}

TEST(Cli, ParsesProfileFlag) {
  EXPECT_FALSE(parse_cli_args({}).profile);
  EXPECT_TRUE(parse_cli_args({"--profile"}).profile);
  EXPECT_NE(cli_usage().find("--profile"), std::string::npos);
  EXPECT_NE(cli_usage().find("RP_PROFILE"), std::string::npos);
}

TEST(Cli, ParsesTelemetryOutputFlags) {
  const CliConfig c = parse_cli_args(
      {"--report-json", "r.json", "--trace-json", "t.json"});
  EXPECT_EQ(c.report_json, "r.json");
  EXPECT_EQ(c.trace_json, "t.json");
  EXPECT_THROW(parse_cli_args({"--report-json"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--trace-json"}), std::runtime_error);
  EXPECT_NE(cli_usage().find("--report-json"), std::string::npos);
  EXPECT_NE(cli_usage().find("--trace-json"), std::string::npos);
}

TEST(Cli, ParsesSnapshotFlags) {
  const CliConfig c = parse_cli_args(
      {"--snapshot-dir", "snaps", "--snapshot-every", "4", "--snapshot-svg"});
  EXPECT_EQ(c.snapshot_dir, "snaps");
  EXPECT_EQ(c.snapshot_every, 4);
  EXPECT_TRUE(c.snapshot_svg);
  const FlowOptions opt = cli_flow_options(c);
  EXPECT_EQ(opt.snapshot.dir, "snaps");
  EXPECT_EQ(opt.snapshot.density_every, 4);
  EXPECT_TRUE(opt.snapshot.render_svg);
  // Default: snapshots disabled.
  EXPECT_TRUE(cli_flow_options(parse_cli_args({})).snapshot.dir.empty());
  // Modifier flags without --snapshot-dir are configuration errors.
  EXPECT_THROW(parse_cli_args({"--snapshot-every", "2"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--snapshot-svg"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--snapshot-dir", "d", "--snapshot-every", "-1"}),
               std::runtime_error);
  EXPECT_NE(cli_usage().find("--snapshot-dir"), std::string::npos);
}

TEST(Cli, ParsesWlModelAndInflateRate) {
  EXPECT_TRUE(parse_cli_args({}).wl_model.empty());  // empty = mode default
  EXPECT_EQ(parse_cli_args({"--wl-model", "LSE"}).wl_model, "LSE");
  EXPECT_EQ(parse_cli_args({"--wl-model", "WA"}).wl_model, "WA");
  EXPECT_THROW(parse_cli_args({"--wl-model", "exact"}), std::runtime_error);
  EXPECT_DOUBLE_EQ(parse_cli_args({}).inflate_rate, -1.0);  // -1 = default
  EXPECT_DOUBLE_EQ(parse_cli_args({"--inflate-rate", "0.3"}).inflate_rate, 0.3);
  EXPECT_THROW(parse_cli_args({"--inflate-rate", "11"}), std::runtime_error);
  EXPECT_THROW(parse_cli_args({"--inflate-rate", "-0.5"}), std::runtime_error);

  const FlowOptions opt = cli_flow_options(
      parse_cli_args({"--wl-model", "LSE", "--inflate-rate", "0.3"}));
  EXPECT_EQ(opt.gp.wl_model, "LSE");
  EXPECT_DOUBLE_EQ(opt.gp.routability.inflate_rate, 0.3);
  // Unset flags leave the mode defaults untouched.
  const FlowOptions def = cli_flow_options(parse_cli_args({}));
  EXPECT_EQ(def.gp.wl_model, "WA");
  EXPECT_NE(cli_usage().find("--wl-model"), std::string::npos);
  EXPECT_NE(cli_usage().find("--inflate-rate"), std::string::npos);
}

TEST(Cli, ParsesSampleResourcesFlag) {
  EXPECT_EQ(parse_cli_args({}).sample_resources_ms, -1);  // -1 = env/default
  EXPECT_EQ(parse_cli_args({"--sample-resources", "0"}).sample_resources_ms, 0);
  EXPECT_EQ(parse_cli_args({"--sample-resources", "100"}).sample_resources_ms,
            100);
  EXPECT_THROW(parse_cli_args({"--sample-resources", "-5"}),
               std::runtime_error);
  EXPECT_NE(cli_usage().find("--sample-resources"), std::string::npos);
  EXPECT_NE(cli_usage().find("RP_SAMPLE_MS"), std::string::npos);
}

TEST(Cli, SampleResourcesZeroDropsTheBlock) {
  Logger::set_level(LogLevel::Error);
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rp_cli_nosample";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path report = dir / "run.report.json";
  CliConfig c = parse_cli_args(
      {"--gen", "200", "--seed", "3", "--rounds", "0",
       "--sample-resources", "0",
       "--out", (dir / "out.pl").string(), "--report-json", report.string()});
  EXPECT_EQ(run_cli(c), 0);
  std::ifstream in(report);
  std::stringstream ss;
  ss << in.rdbuf();
  const JsonValue rep = json_parse(ss.str());
  EXPECT_EQ(rep.at("schema_version").num, 5.0);
  EXPECT_FALSE(rep.has("resources"));  // sampler off — block absent
  fs::remove_all(dir);
}

TEST(Cli, EndToEndEmitsReportAndTrace) {
  Logger::set_level(LogLevel::Error);
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rp_cli_telemetry";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path report = dir / "run.report.json";
  const fs::path trace = dir / "run.trace.json";
  CliConfig c = parse_cli_args(
      {"--gen", "300", "--seed", "5", "--rounds", "1",
       "--out", (dir / "gen.pl").string(),
       "--report-json", report.string(), "--trace-json", trace.string()});
  EXPECT_EQ(run_cli(c), 0);

  const auto slurp = [](const fs::path& p) {
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  // Report: schema-valid and self-consistent.
  const JsonValue rep = json_parse(slurp(report));
  EXPECT_EQ(rep.at("schema_version").num, 5.0);
  EXPECT_FALSE(rep.has("profile"));  // off by default — the block is absent
  // v5: the resource sampler is on by default; the timeline always keeps
  // at least the forced first + final samples.
  ASSERT_TRUE(rep.has("resources"));
  EXPECT_GT(rep.at("resources").at("tick_ms").num, 0.0);
  EXPECT_GE(rep.at("resources").at("samples").arr.size(), 2u);
  EXPECT_GT(rep.at("resources").at("peak_rss_kb").num, 0.0);
  EXPECT_EQ(rep.at("design").at("name").str, "gen300");
  EXPECT_GT(rep.at("eval").at("hpwl").num, 0.0);
  EXPECT_GE(rep.at("eval").at("scaled_hpwl").num, rep.at("eval").at("hpwl").num);
  EXPECT_TRUE(rep.at("eval").at("legality").at("ok").b);
  EXPECT_GT(rep.at("counters").at("gp.outer_iters").num, 0.0);
  EXPECT_GT(rep.at("stage_total_sec").num, 0.0);
  EXPECT_GE(rep.at("parallel").at("threads").num, 1.0);
  EXPECT_GE(rep.at("parallel").at("hardware_threads").num, 1.0);
  EXPECT_GT(rep.at("parallel").at("regions").num, 0.0);

  // Trace: loadable event buffer with spans for every flow stage ("M" rows
  // are the thread-naming metadata for the per-worker lanes).
  const JsonValue tr = json_parse(slurp(trace));
  std::set<std::string> names;
  for (const JsonValue& e : tr.at("traceEvents").arr) {
    EXPECT_TRUE(e.at("ph").str == "X" || e.at("ph").str == "M");
    if (e.at("ph").str == "X") names.insert(e.at("name").str);
  }
  for (const char* stage :
       {"flow", "global", "macro_legal", "legal", "detailed", "eval",
        "gp/level0", "gp/routability/round1"})
    EXPECT_TRUE(names.count(stage)) << "missing span '" << stage << "'";
  fs::remove_all(dir);
}

TEST(Cli, EndToEndOnBookshelfInput) {
  Logger::set_level(LogLevel::Error);
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rp_cli_test";
  fs::remove_all(dir);
  {
    const Design d = generate_benchmark(tiny_spec(71));
    write_bookshelf(d, dir, "cli");
  }
  const fs::path out = dir / "cli.out.pl";
  CliConfig c = parse_cli_args({"--aux", (dir / "cli.aux").string(), "--out",
                                out.string(), "--rounds", "1"});
  EXPECT_EQ(run_cli(c), 0);
  EXPECT_TRUE(fs::exists(out));
  // The written solution loads back cleanly.
  Design d = read_bookshelf(dir / "cli.aux");
  read_pl_into(d, out);
  EXPECT_GT(d.hpwl(), 0.0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rp
