// Hardened input/numeric pipeline: error taxonomy & exit-code contract,
// strict-vs-lenient Bookshelf parsing (with repair counters), numeric guard
// rails around the CG solver, GP watchdogs, and the validator's per-row
// alignment fix. Every malformed-input case here is a regression test: each
// either crashed, was silently accepted, or was misreported before the
// taxonomy landed.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/global_placer.hpp"
#include "db/bookshelf.hpp"
#include "db/validate.hpp"
#include "gen/generator.hpp"
#include "solver/cg.hpp"
#include "util/error.hpp"
#include "util/logger.hpp"
#include "util/telemetry.hpp"

namespace fs = std::filesystem;

namespace rp {
namespace {

long counter_value(const std::string& name) {
  for (const auto& [n, v] : telemetry::Registry::instance().counters())
    if (n == name) return v;
  return 0;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Error taxonomy & exit-code contract.

TEST(ErrorTaxonomy, ExitCodeContract) {
  EXPECT_EQ(error_exit_code(ErrorCode::ParseError), 3);
  EXPECT_EQ(error_exit_code(ErrorCode::ValidationError), 4);
  EXPECT_EQ(error_exit_code(ErrorCode::NumericError), 5);
  EXPECT_EQ(error_exit_code(ErrorCode::ResourceError), 6);
  EXPECT_STREQ(error_code_name(ErrorCode::ParseError), "ParseError");
  EXPECT_STREQ(error_code_name(ErrorCode::ValidationError), "ValidationError");
  EXPECT_STREQ(error_code_name(ErrorCode::NumericError), "NumericError");
  EXPECT_STREQ(error_code_name(ErrorCode::ResourceError), "ResourceError");
}

TEST(ErrorTaxonomy, CarriesWhereAndStage) {
  const Error e(ErrorCode::ParseError, "bad token", "x.nodes:12", "parse");
  EXPECT_EQ(e.code(), ErrorCode::ParseError);
  EXPECT_EQ(e.exit_code(), 3);
  EXPECT_EQ(e.where(), "x.nodes:12");
  EXPECT_EQ(e.stage(), "parse");
  EXPECT_EQ(e.message(), "bad token");
  const std::string what = e.what();
  EXPECT_NE(what.find("ParseError"), std::string::npos);
  EXPECT_NE(what.find("x.nodes:12"), std::string::npos);
  EXPECT_NE(what.find("bad token"), std::string::npos);
}

TEST(ErrorTaxonomy, SetStageOnlyFillsEmpty) {
  Error e(ErrorCode::NumericError, "nan", "cg.cpp:guard");
  EXPECT_EQ(e.stage(), "");
  e.set_stage("gp/level2");
  EXPECT_EQ(e.stage(), "gp/level2");
  e.set_stage("legal");  // throw site already knew better; keep it
  EXPECT_EQ(e.stage(), "gp/level2");
}

TEST(ErrorTaxonomy, IsARuntimeError) {
  // Pre-taxonomy catch sites (and tests) keep working unchanged.
  EXPECT_THROW(throw Error(ErrorCode::ValidationError, "x"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Malformed Bookshelf corpus: strict rejects with ParseError + file:line,
// lenient repairs-and-counts where the damage is repairable.

class MalformedBookshelf : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::set_level(LogLevel::Error);
    dir_ = fs::temp_directory_path() / "rp_robustness_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    write_base();
  }
  void TearDown() override { fs::remove_all(dir_); }

  void w(const char* name, const std::string& text) {
    std::ofstream(dir_ / name) << text;
  }

  /// A minimal valid benchmark; tests overwrite one file to inject damage.
  void write_base() {
    w("m.aux", "RowBasedPlacement : m.nodes m.nets m.wts m.pl m.scl\n");
    w("m.nodes",
      "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n"
      "  a 4 8\n  b 6 8\n  p 1 1 terminal\n");
    w("m.nets",
      "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\n"
      "NetDegree : 3 n0\n  a I : 0.0 0.0\n  b O : 1.0 -1.0\n  p I : 0 0\n");
    w("m.wts", "UCLA wts 1.0\nn0 2.0\n");
    w("m.pl", "UCLA pl 1.0\na 0 0 : N\nb 20 8 : N\np 50 0 : N /FIXED\n");
    w("m.scl",
      "UCLA scl 1.0\nNumRows : 2\n"
      "CoreRow Horizontal\n Coordinate : 0\n Height : 8\n Sitewidth : 1\n"
      " SubrowOrigin : 0 NumSites : 100\nEnd\n"
      "CoreRow Horizontal\n Coordinate : 8\n Height : 8\n Sitewidth : 1\n"
      " SubrowOrigin : 0 NumSites : 100\nEnd\n");
  }

  Design parse_strict() { return read_bookshelf(dir_ / "m.aux"); }

  Design parse_lenient(ParseRepairs* rep) {
    BookshelfOptions opt;
    opt.mode = ParseMode::Lenient;
    opt.repairs = rep;
    return read_bookshelf(dir_ / "m.aux", opt);
  }

  /// Expect a strict parse to throw ParseError whose `where` names `file`.
  void expect_parse_error(const std::string& file) {
    try {
      parse_strict();
      FAIL() << "strict parse accepted malformed " << file;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::ParseError) << e.what();
      EXPECT_NE(e.where().find(file), std::string::npos)
          << "where '" << e.where() << "' should name " << file;
      EXPECT_NE(e.where().find(':'), std::string::npos) << "missing :line";
      EXPECT_EQ(e.stage(), "parse");
    }
  }

  fs::path dir_;
};

TEST_F(MalformedBookshelf, BaseIsValid) {
  const Design d = parse_strict();
  EXPECT_EQ(d.num_cells(), 3);
  EXPECT_EQ(d.num_nets(), 1);
}

TEST_F(MalformedBookshelf, NetDegreeZeroStrictRejects) {
  // Regression: a pinless "NetDegree : 0" net used to be accepted silently.
  w("m.nets",
    "UCLA nets 1.0\nNumNets : 2\nNumPins : 3\n"
    "NetDegree : 0 junk\n"
    "NetDegree : 3 n0\n  a I : 0.0 0.0\n  b O : 1.0 -1.0\n  p I : 0 0\n");
  expect_parse_error("m.nets");
}

TEST_F(MalformedBookshelf, NetDegreeZeroLenientDropsAndCounts) {
  w("m.nets",
    "UCLA nets 1.0\nNumNets : 2\nNumPins : 3\n"
    "NetDegree : 0 junk\n"
    "NetDegree : 3 n0\n  a I : 0.0 0.0\n  b O : 1.0 -1.0\n  p I : 0 0\n");
  telemetry::Registry::instance().reset();
  ParseRepairs rep;
  const Design d = parse_lenient(&rep);
  EXPECT_EQ(d.num_nets(), 1);  // the empty net is gone
  EXPECT_EQ(rep.empty_nets, 1);
  EXPECT_EQ(rep.total(), 1);
  EXPECT_EQ(counter_value("parse.repair.empty_nets"), 1);
}

TEST_F(MalformedBookshelf, DuplicateNodeStrictRejects) {
  // Regression: a re-defined node name used to be accepted; find_cell then
  // resolved the name arbitrarily and mis-wired its nets.
  w("m.nodes",
    "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n"
    "  a 4 8\n  a 6 8\n  p 1 1 terminal\n");
  expect_parse_error("m.nodes");
}

TEST_F(MalformedBookshelf, DuplicateNodeLenientFirstWins) {
  w("m.nodes",
    "UCLA nodes 1.0\nNumNodes : 4\nNumTerminals : 1\n"
    "  a 4 8\n  b 6 8\n  a 2 8\n  p 1 1 terminal\n");
  ParseRepairs rep;
  const Design d = parse_lenient(&rep);
  EXPECT_EQ(rep.duplicate_nodes, 1);
  EXPECT_EQ(d.num_cells(), 3);
  EXPECT_DOUBLE_EQ(d.cell(d.find_cell("a")).w, 4.0);  // first definition wins
}

TEST_F(MalformedBookshelf, NumNetsMismatchStrictRejects) {
  // Regression: only NumNodes was verified; NumNets/NumPins lies passed.
  w("m.nets",
    "UCLA nets 1.0\nNumNets : 5\nNumPins : 3\n"
    "NetDegree : 3 n0\n  a I : 0.0 0.0\n  b O : 1.0 -1.0\n  p I : 0 0\n");
  expect_parse_error("m.nets");
}

TEST_F(MalformedBookshelf, NumPinsMismatchStrictRejects) {
  w("m.nets",
    "UCLA nets 1.0\nNumNets : 1\nNumPins : 9\n"
    "NetDegree : 3 n0\n  a I : 0.0 0.0\n  b O : 1.0 -1.0\n  p I : 0 0\n");
  expect_parse_error("m.nets");
}

TEST_F(MalformedBookshelf, CountMismatchLenientCounts) {
  w("m.nets",
    "UCLA nets 1.0\nNumNets : 5\nNumPins : 9\n"
    "NetDegree : 3 n0\n  a I : 0.0 0.0\n  b O : 1.0 -1.0\n  p I : 0 0\n");
  ParseRepairs rep;
  const Design d = parse_lenient(&rep);
  EXPECT_EQ(d.num_nets(), 1);
  EXPECT_EQ(rep.count_mismatches, 2);  // NumNets and NumPins both lied
}

TEST_F(MalformedBookshelf, NetWithFewerPinsThanDegreeStrictRejects) {
  w("m.nets",
    "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\n"
    "NetDegree : 3 n0\n  a I : 0.0 0.0\n  b O : 1.0 -1.0\n");
  expect_parse_error("m.nets");
}

TEST_F(MalformedBookshelf, DanglingPinStrictRejectsLenientDrops) {
  w("m.nets",
    "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\n"
    "NetDegree : 3 n0\n  a I : 0.0 0.0\n  ghost O : 1.0 -1.0\n  p I : 0 0\n");
  expect_parse_error("m.nets");
  ParseRepairs rep;
  const Design d = parse_lenient(&rep);
  EXPECT_EQ(rep.dangling_pins, 1);
  EXPECT_EQ(d.num_pins(), 2);
}

TEST_F(MalformedBookshelf, MissingNetNameStrictRejectsLenientSynthesizes) {
  w("m.nets",
    "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\n"
    "NetDegree : 3\n  a I : 0.0 0.0\n  b O : 1.0 -1.0\n  p I : 0 0\n");
  expect_parse_error("m.nets");
  ParseRepairs rep;
  const Design d = parse_lenient(&rep);
  EXPECT_EQ(rep.synthesized_net_names, 1);
  EXPECT_EQ(d.num_nets(), 1);
  EXPECT_FALSE(d.net(0).name.empty());
}

TEST_F(MalformedBookshelf, NonNumericFieldRejected) {
  w("m.nodes",
    "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n"
    "  a four 8\n  b 6 8\n  p 1 1 terminal\n");
  expect_parse_error("m.nodes");
}

TEST_F(MalformedBookshelf, NanFieldRejected) {
  // std::from_chars happily parses "nan"; the reader must not let it through.
  w("m.pl", "UCLA pl 1.0\na nan 0 : N\nb 20 8 : N\np 50 0 : N /FIXED\n");
  expect_parse_error("m.pl");
}

TEST_F(MalformedBookshelf, InfSizeRejected) {
  w("m.nodes",
    "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n"
    "  a inf 8\n  b 6 8\n  p 1 1 terminal\n");
  expect_parse_error("m.nodes");
}

TEST_F(MalformedBookshelf, TruncatedNodesRejected) {
  w("m.nodes", "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n  a 4\n");
  expect_parse_error("m.nodes");
}

TEST_F(MalformedBookshelf, EmptySclRejected) {
  w("m.scl", "UCLA scl 1.0\n");
  try {
    parse_strict();
    FAIL() << "empty .scl accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::ParseError) << e.what();
    EXPECT_NE(e.where().find("m.scl"), std::string::npos);
  }
}

TEST_F(MalformedBookshelf, MissingAuxIsResourceError) {
  try {
    read_bookshelf(dir_ / "nope.aux");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::ResourceError);
    EXPECT_EQ(e.exit_code(), 6);
  }
}

TEST_F(MalformedBookshelf, UnknownPlNodeLenientSkips) {
  w("m.pl",
    "UCLA pl 1.0\na 0 0 : N\nb 20 8 : N\nzz 1 1 : N\np 50 0 : N /FIXED\n");
  expect_parse_error("m.pl");
  ParseRepairs rep;
  const Design d = parse_lenient(&rep);
  EXPECT_EQ(rep.unknown_pl_nodes, 1);
  EXPECT_EQ(d.num_cells(), 3);
}

TEST_F(MalformedBookshelf, OffDieFixedCellClampedInLenient) {
  // "blk" is a fixed non-terminal block parked far outside the die: strict
  // keeps it (and the design still finalizes), lenient clamps it back on.
  w("m.nodes",
    "UCLA nodes 1.0\nNumNodes : 4\nNumTerminals : 1\n"
    "  a 4 8\n  b 6 8\n  blk 10 8\n  p 1 1 terminal\n");
  w("m.pl",
    "UCLA pl 1.0\na 0 0 : N\nb 20 8 : N\nblk 5000 0 : N /FIXED\n"
    "p 50 0 : N /FIXED\n");
  const Design ds = parse_strict();
  EXPECT_GT(ds.cell(ds.find_cell("blk")).pos.x, 1000.0);  // untouched

  ParseRepairs rep;
  const Design dl = parse_lenient(&rep);
  EXPECT_EQ(rep.clamped_fixed_cells, 1);
  const Cell& blk = dl.cell(dl.find_cell("blk"));
  EXPECT_LE(blk.pos.x + blk.w, dl.die().hx + 1e-9);
  EXPECT_GE(blk.pos.x, dl.die().lx - 1e-9);
  // IO-pad terminals outside the die are deliberately NOT clamped.
  EXPECT_DOUBLE_EQ(dl.cell(dl.find_cell("p")).pos.x, 50.0);
}

TEST_F(MalformedBookshelf, StrictParseLeavesRepairsZero) {
  ParseRepairs rep;
  rep.dangling_pins = 99;  // stale values must be cleared by the parse
  BookshelfOptions opt;
  opt.repairs = &rep;
  read_bookshelf(dir_ / "m.aux", opt);
  EXPECT_EQ(rep.total(), 0);
}

// ---------------------------------------------------------------------------
// run_cli integration: exit codes + the report's "error" block.

class CliErrors : public MalformedBookshelf {};

TEST_F(CliErrors, ParseErrorExitsThreeAndWritesErrorBlock) {
  w("m.nodes", "UCLA nodes 1.0\nNumNodes : 3\n  a 4\n");  // truncated record
  CliConfig cfg;
  cfg.aux = (dir_ / "m.aux").string();
  cfg.report_json = (dir_ / "report.json").string();
  cfg.out_pl = (dir_ / "out.pl").string();
  EXPECT_EQ(run_cli(cfg), 3);
  const std::string report = slurp(dir_ / "report.json");
  EXPECT_NE(report.find("\"error\""), std::string::npos);
  EXPECT_NE(report.find("\"code\": \"ParseError\""), std::string::npos);
  EXPECT_NE(report.find("\"exit_code\": 3"), std::string::npos);
  EXPECT_NE(report.find("m.nodes"), std::string::npos);  // failing file:line
  EXPECT_NE(report.find("\"schema_version\": 6"), std::string::npos);
}

TEST_F(CliErrors, MissingAuxExitsSix) {
  CliConfig cfg;
  cfg.aux = (dir_ / "missing.aux").string();
  cfg.out_pl = (dir_ / "out.pl").string();
  EXPECT_EQ(run_cli(cfg), 6);
}

TEST_F(CliErrors, LenientModeReportsRepairCounters) {
  w("m.nets",
    "UCLA nets 1.0\nNumNets : 2\nNumPins : 3\n"
    "NetDegree : 0 junk\n"
    "NetDegree : 3 n0\n  a I : 0.0 0.0\n  b O : 1.0 -1.0\n  p I : 0 0\n");
  CliConfig cfg;
  cfg.aux = (dir_ / "m.aux").string();
  cfg.lenient = true;
  cfg.report_json = (dir_ / "report.json").string();
  cfg.out_pl = (dir_ / "out.pl").string();
  cfg.skip_dp = true;
  const int rc = run_cli(cfg);
  EXPECT_TRUE(rc == 0 || rc == 1) << rc;  // flow completed either way
  const std::string report = slurp(dir_ / "report.json");
  EXPECT_NE(report.find("\"parse\""), std::string::npos);
  EXPECT_NE(report.find("\"mode\": \"lenient\""), std::string::npos);
  EXPECT_NE(report.find("\"empty_nets\": 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Numeric guard rails around the CG solver.

TEST(NumericGuard, CleanSolveTakesNoRetries) {
  const CgObjective quad = [](std::span<const double> z, std::span<double> g) {
    double f = 0;
    for (std::size_t i = 0; i < z.size(); ++i) {
      f += z[i] * z[i];
      g[i] = 2 * z[i];
    }
    return f;
  };
  std::vector<double> z{3.0, -2.0, 7.0};
  CgOptions opt;
  GuardStats gs;
  const CgResult r = minimize_cg_guarded(quad, z, opt, "test", &gs);
  EXPECT_EQ(gs.retries, 0);
  EXPECT_FALSE(gs.degraded);
  EXPECT_LT(r.f, 1e-6);
}

TEST(NumericGuard, TransientNaNRestoresAndRetries) {
  // The first objective call poisons the gradient with NaNs (as a density
  // kernel overflow would); every later call is a clean quadratic. The guard
  // must detect the non-finite state, restore the pre-solve coordinates,
  // halve the step, and succeed on the retry.
  int calls = 0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const CgObjective f = [&](std::span<const double> z, std::span<double> g) {
    ++calls;
    double fx = 0;
    for (std::size_t i = 0; i < z.size(); ++i) {
      fx += z[i] * z[i];
      g[i] = (calls == 1) ? nan : 2 * z[i];
    }
    return (calls == 1) ? nan : fx;
  };
  std::vector<double> z{3.0, -2.0};
  CgOptions opt;
  opt.max_iters = 50;
  GuardStats gs;
  const CgResult r = minimize_cg_guarded(f, z, opt, "gp/level0", &gs);
  EXPECT_EQ(gs.retries, 1);
  EXPECT_TRUE(gs.degraded);
  for (const double v : z) EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(std::isfinite(r.f));
}

TEST(NumericGuard, PersistentNaNAbortsWithNumericError) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const CgObjective f = [&](std::span<const double> z, std::span<double> g) {
    for (std::size_t i = 0; i < z.size(); ++i) g[i] = nan;
    (void)z;
    return nan;
  };
  std::vector<double> z{1.0, 2.0};
  const std::vector<double> z0 = z;
  CgOptions opt;
  GuardStats gs;
  try {
    minimize_cg_guarded(f, z, opt, "gp/level3", &gs);
    FAIL() << "persistent NaN must abort";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::NumericError);
    EXPECT_EQ(e.exit_code(), 5);
    EXPECT_EQ(e.stage(), "gp/level3");
  }
  EXPECT_EQ(z, z0);  // coordinates restored to the last good snapshot
  EXPECT_EQ(gs.retries, 1);
}

// ---------------------------------------------------------------------------
// GP watchdogs: graceful early stop, deterministic for --max-gp-iters.

TEST(Watchdog, MaxGpItersCapsOuterIterations) {
  Logger::set_level(LogLevel::Error);
  Design d1 = generate_benchmark(tiny_spec(7));
  GpOptions base;
  base.routability.enable = false;
  GlobalPlacer free_gp(base);
  const GpStats free_run = free_gp.run(d1);
  ASSERT_GT(free_run.total_outer, 2);

  telemetry::Registry::instance().reset();
  Design d2 = generate_benchmark(tiny_spec(7));
  GpOptions capped = base;
  capped.max_gp_iters = 2;
  GlobalPlacer gp(capped);
  const GpStats r = gp.run(d2);
  EXPECT_LE(r.total_outer, 2);
  EXPECT_LT(r.total_outer, free_run.total_outer);
  EXPECT_GE(counter_value("guard.watchdog_gp_iters"), 1);
}

TEST(Watchdog, MaxGpItersIsDeterministic) {
  Logger::set_level(LogLevel::Error);
  const auto place = [] {
    Design d = generate_benchmark(tiny_spec(7));
    GpOptions o;
    o.routability.enable = false;
    o.max_gp_iters = 3;
    GlobalPlacer gp(o);
    gp.run(d);
    std::vector<Point> pos;
    for (CellId c = 0; c < d.num_cells(); ++c) pos.push_back(d.cell(c).pos);
    return pos;
  };
  const auto a = place();
  const auto b = place();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << i;  // bitwise, not approximate
    EXPECT_EQ(a[i].y, b[i].y) << i;
  }
}

// ---------------------------------------------------------------------------
// Validator row/site alignment regression (satellite bugfix).

TEST(ValidatorRows, ChecksEachCellAgainstItsOwnRow) {
  // Two rows with different site origins and widths. The old validator used
  // row(0)'s geometry for every cell, so 'b' (perfectly legal in row 1) was
  // flagged site-misaligned and 'c' (illegal in row 1) passed.
  Design d;
  d.set_name("rows");
  d.set_die({0, 0, 100, 20});
  d.add_row(Row{0.0, 10.0, 0.0, 100.0, 4.0});   // y=0:  origin 0, site 4
  d.add_row(Row{10.0, 10.0, 5.0, 95.0, 2.0});   // y=10: origin 5, site 2
  const CellId a = d.add_cell("a", 4, 10, CellKind::StdCell);
  const CellId b = d.add_cell("b", 4, 10, CellKind::StdCell);
  const CellId c = d.add_cell("c", 4, 10, CellKind::StdCell);
  const NetId n = d.add_net("n");
  d.connect(a, n, {0, 0});
  d.connect(b, n, {0, 0});
  d.connect(c, n, {0, 0});
  d.finalize();
  d.cell(a).pos = {8, 0};    // row 0: (8-0)/4 integral -> aligned
  d.cell(b).pos = {9, 10};   // row 1: (9-5)/2 integral -> aligned
                             //   (old check vs row 0: 9/4 -> false positive)
  d.cell(c).pos = {20, 10};  // row 1: (20-5)/2 = 7.5 -> MISALIGNED
                             //   (old check vs row 0: 20/4 -> false negative)
  LegalityOptions lo;
  lo.check_sites = true;
  const LegalityReport rep = check_legality(d, lo);
  EXPECT_EQ(rep.row_misaligned, 0);
  EXPECT_EQ(rep.site_misaligned, 1) << "only 'c' is off-grid in its own row";
}

TEST(ValidatorRows, ZeroSiteWidthRowDoesNotDivide) {
  Design d;
  d.set_name("zsw");
  d.set_die({0, 0, 100, 10});
  d.add_row(Row{0.0, 10.0, 0.0, 100.0, 0.0});  // site_w 0: no site grid
  const CellId a = d.add_cell("a", 4, 10, CellKind::StdCell);
  const NetId n = d.add_net("n");
  d.connect(a, n, {0, 0});
  d.finalize();
  d.cell(a).pos = {3.7, 0};  // arbitrary x must be fine without a site grid
  LegalityOptions lo;
  lo.check_sites = true;
  const LegalityReport rep = check_legality(d, lo);
  EXPECT_EQ(rep.site_misaligned, 0);
  EXPECT_EQ(rep.row_misaligned, 0);
}

}  // namespace
}  // namespace rp
