// Campaign orchestration unit tests (core/sweep.hpp): spec parsing and
// validation against the error taxonomy, deterministic grid expansion,
// exit-code -> status mapping, manifest serialization (byte-determinism,
// failed-run error blocks), and the status.json resume predicate. Process
// fan-out itself is covered end to end by the sweep_smoke ctest.

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "util/error.hpp"

namespace rp {
namespace {

int thrown_exit_code(const char* text) {
  try {
    parse_sweep_spec(text, "spec.json");
  } catch (const Error& e) {
    return e.exit_code();
  }
  return 0;
}

// ------------------------------------------------------------ spec parsing

TEST(SweepSpecParse, MinimalSpecGetsDefaults) {
  const SweepSpec s = parse_sweep_spec("{}", "spec.json");
  EXPECT_EQ(s.name, "campaign");
  EXPECT_TRUE(s.base.empty());
  EXPECT_TRUE(s.axes.empty());
  ASSERT_EQ(s.seeds.size(), 1u);  // defaulted
  EXPECT_EQ(s.seeds[0], 1u);
}

TEST(SweepSpecParse, FullSpecRoundTrips) {
  const SweepSpec s = parse_sweep_spec(
      R"({"name": "ablation",
          "base": {"gen": 2000, "rounds": 3},
          "axes": {"mode": ["routability", "wirelength"],
                   "threads": [1, 4],
                   "skip-dp": [null, true]},
          "seeds": [3, 1, 2]})",
      "spec.json");
  EXPECT_EQ(s.name, "ablation");
  ASSERT_EQ(s.base.size(), 2u);  // sorted by flag
  EXPECT_EQ(s.base[0].first, "gen");
  EXPECT_EQ(s.base[0].second.text, "2000");
  EXPECT_EQ(s.base[1].first, "rounds");
  ASSERT_EQ(s.axes.size(), 3u);  // sorted by flag: mode, skip-dp, threads
  EXPECT_EQ(s.axes[0].flag, "mode");
  EXPECT_EQ(s.axes[1].flag, "skip-dp");
  EXPECT_EQ(s.axes[2].flag, "threads");
  // Kind resolution: null -> Omit "off", true -> Flag "on".
  EXPECT_EQ(s.axes[1].values[0].kind, AxisValue::Kind::Omit);
  EXPECT_EQ(s.axes[1].values[0].label, "off");
  EXPECT_EQ(s.axes[1].values[1].kind, AxisValue::Kind::Flag);
  EXPECT_EQ(s.axes[1].values[1].label, "on");
  // Seeds keep spec order.
  EXPECT_EQ(s.seeds, (std::vector<std::uint64_t>{3, 1, 2}));
}

TEST(SweepSpecParse, MalformedJsonIsParseError) {
  EXPECT_EQ(thrown_exit_code("{not json"), 3);
  EXPECT_EQ(thrown_exit_code(""), 3);
}

TEST(SweepSpecParse, IllegalSpecsAreValidationErrors) {
  // Reserved orchestrator flag.
  EXPECT_EQ(thrown_exit_code(R"({"base": {"out": "x.pl"}})"), 4);
  EXPECT_EQ(thrown_exit_code(R"({"axes": {"report-json": ["a"]}})"), 4);
  // Unknown placer flag.
  EXPECT_EQ(thrown_exit_code(R"({"base": {"frobnicate": 1}})"), 4);
  // Retired placer flags are unknown too.
  EXPECT_EQ(thrown_exit_code(R"({"base": {"sample-resources": 5}})"), 4);
  EXPECT_EQ(thrown_exit_code(R"({"base": {"profile": true}})"), 4);
  EXPECT_EQ(thrown_exit_code(R"({"base": {"snapshot-svg": true}})"), 4);
  EXPECT_EQ(thrown_exit_code(R"({"base": {"progress-ndjson": "p"}})"), 4);
  // Empty axis, duplicate seeds, negative seed.
  EXPECT_EQ(thrown_exit_code(R"({"axes": {"mode": []}})"), 4);
  EXPECT_EQ(thrown_exit_code(R"({"seeds": [1, 1]})"), 4);
  EXPECT_EQ(thrown_exit_code(R"({"seeds": [-2]})"), 4);
  // A flag cannot be both fixed and varied.
  EXPECT_EQ(thrown_exit_code(
                R"({"base": {"mode": "routability"},
                    "axes": {"mode": ["wirelength"]}})"),
            4);
  // Unknown top-level key (typo protection).
  EXPECT_EQ(thrown_exit_code(R"({"sseeds": [1]})"), 4);
}

// ---------------------------------------------------------- grid expansion

TEST(SweepGrid, ExpansionOrderAndArgs) {
  const SweepSpec s = parse_sweep_spec(
      R"({"base": {"gen": 100},
          "axes": {"mode": ["routability", "wirelength"], "threads": [1, 2]},
          "seeds": [1, 2]})",
      "spec.json");
  const std::vector<SweepRun> runs = expand_grid(s);
  ASSERT_EQ(runs.size(), 8u);  // 2 x 2 x 2
  // First axis slowest, seeds innermost.
  EXPECT_EQ(runs[0].id, "mode-routability_threads-1__s1");
  EXPECT_EQ(runs[1].id, "mode-routability_threads-1__s2");
  EXPECT_EQ(runs[2].id, "mode-routability_threads-2__s1");
  EXPECT_EQ(runs[4].id, "mode-wirelength_threads-1__s1");
  EXPECT_EQ(runs[7].id, "mode-wirelength_threads-2__s2");
  // Args: base flags first, then axes, then --seed; no orchestrator flags.
  EXPECT_EQ(runs[0].args,
            (std::vector<std::string>{"--gen", "100", "--mode", "routability",
                                      "--threads", "1", "--seed", "1"}));
  // Deterministic: a second expansion is identical.
  const std::vector<SweepRun> again = expand_grid(s);
  ASSERT_EQ(again.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(again[i].id, runs[i].id);
    EXPECT_EQ(again[i].args, runs[i].args);
  }
}

TEST(SweepGrid, OmitAndBareFlagCells) {
  const SweepSpec s = parse_sweep_spec(
      R"({"axes": {"skip-dp": [null, true]}, "seeds": [7]})", "spec.json");
  const std::vector<SweepRun> runs = expand_grid(s);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].id, "skip-dp-off__s7");
  EXPECT_EQ(runs[0].args, (std::vector<std::string>{"--seed", "7"}));
  EXPECT_EQ(runs[1].id, "skip-dp-on__s7");
  EXPECT_EQ(runs[1].args,
            (std::vector<std::string>{"--skip-dp", "--seed", "7"}));
}

TEST(SweepGrid, NoAxesIsSingleCell) {
  const SweepSpec s =
      parse_sweep_spec(R"({"base": {"gen": 50}, "seeds": [1, 2]})", "spec.json");
  const std::vector<SweepRun> runs = expand_grid(s);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].cell, "all");
  EXPECT_EQ(runs[0].id, "all__s1");
}

// ------------------------------------------------------------- status names

TEST(SweepStatus, ExitCodeContractMapping) {
  EXPECT_EQ(sweep_status_name(0), "ok");
  EXPECT_EQ(sweep_status_name(1), "not_legal");
  EXPECT_EQ(sweep_status_name(2), "usage_error");
  EXPECT_EQ(sweep_status_name(3), "ParseError");
  EXPECT_EQ(sweep_status_name(4), "ValidationError");
  EXPECT_EQ(sweep_status_name(5), "NumericError");
  EXPECT_EQ(sweep_status_name(6), "ResourceError");
  EXPECT_EQ(sweep_status_name(7), "Interrupted");
  EXPECT_EQ(sweep_status_name(128 + 9), "signal_9");
  EXPECT_EQ(sweep_status_name(42), "failed_42");
}

// ----------------------------------------------------------------- manifest

std::vector<SweepRunResult> fake_results(const SweepSpec& spec) {
  std::vector<SweepRunResult> results;
  for (const SweepRun& run : expand_grid(spec)) {
    SweepRunResult r;
    r.run = run;
    r.exit_code = 0;
    r.status = "ok";
    r.has_report = true;
    results.push_back(std::move(r));
  }
  return results;
}

TEST(SweepManifest, ByteDeterministicAndTimestampFree) {
  const SweepSpec s = parse_sweep_spec(
      R"({"name": "det",
          "axes": {"mode": ["routability", "wirelength"]}, "seeds": [1, 2]})",
      "spec.json");
  const auto results = fake_results(s);
  const std::string a = campaign_manifest_json(s, results);
  const std::string b = campaign_manifest_json(s, results);
  EXPECT_EQ(a, b);  // pure function of (spec, results)
  EXPECT_NE(a.find("\"schema\": \"rp_campaign\""), std::string::npos);
  // No wall-clock state may leak into the manifest.
  for (const char* banned : {"time", "date", "duration", "elapsed", "host"})
    EXPECT_EQ(a.find(banned), std::string::npos)
        << "manifest contains volatile-looking key '" << banned << "'";
  // A resumed result serializes identically to an executed one — resume
  // must not change the manifest bytes.
  auto resumed = results;
  for (auto& r : resumed) r.skipped = true;
  EXPECT_EQ(campaign_manifest_json(s, resumed), a);
}

TEST(SweepManifest, FailedRunCarriesErrorBlock) {
  const SweepSpec s =
      parse_sweep_spec(R"({"seeds": [1]})", "spec.json");
  auto results = fake_results(s);
  results[0].exit_code = 3;
  results[0].status = sweep_status_name(3);
  results[0].has_error = true;
  results[0].error_code = "ParseError";
  results[0].error_message = "bad token";
  results[0].error_where = "m.nodes:5";
  results[0].error_stage = "parse";
  results[0].has_flight = true;
  const std::string m = campaign_manifest_json(s, results);
  EXPECT_NE(m.find("\"status\": \"ParseError\""), std::string::npos);
  EXPECT_NE(m.find("\"code\": \"ParseError\""), std::string::npos);
  EXPECT_NE(m.find("\"where\": \"m.nodes:5\""), std::string::npos);
  EXPECT_NE(m.find("\"flight\": true"), std::string::npos);
}

// ------------------------------------------------------------------- resume

TEST(SweepResume, StatusRoundTripMatches) {
  const SweepSpec s = parse_sweep_spec(
      R"({"base": {"gen": 100}, "axes": {"threads": [1, 2]}, "seeds": [5]})",
      "spec.json");
  const auto results = fake_results(s);
  ASSERT_EQ(results.size(), 2u);
  const std::string status = run_status_json(results[0]);
  EXPECT_TRUE(run_status_matches(status, results[0].run));
  // A different run of the same campaign must NOT match.
  EXPECT_FALSE(run_status_matches(status, results[1].run));
  // Same id but different args (spec changed underneath) must not match.
  SweepRun edited = results[0].run;
  edited.args.push_back("--verbose");
  EXPECT_FALSE(run_status_matches(status, edited));
  // Garbage and truncated documents are a clean "no match", not a throw.
  EXPECT_FALSE(run_status_matches("", results[0].run));
  EXPECT_FALSE(run_status_matches("{malformed", results[0].run));
  EXPECT_FALSE(run_status_matches("[]", results[0].run));
}

TEST(SweepResume, StatusRecordsExitCode) {
  const SweepSpec s = parse_sweep_spec(R"({"seeds": [1]})", "spec.json");
  auto results = fake_results(s);
  results[0].exit_code = 6;
  results[0].status = sweep_status_name(6);
  const std::string status = run_status_json(results[0]);
  EXPECT_NE(status.find("\"exit_code\": 6"), std::string::npos);
  EXPECT_NE(status.find("\"rp_run_status\""), std::string::npos);
  EXPECT_TRUE(run_status_matches(status, results[0].run));
}

// --------------------------------------------------- waitpid EINTR contract

TEST(SweepCampaign, WaitLoopSurvivesSignalStorm) {
  // Regression: run_campaign's reap loop used to treat an EINTR'd waitpid()
  // as a vanished child. Park children in sleep(2) so the campaign thread
  // is INSIDE waitpid() while a storm of no-op SIGUSR1s (handler installed
  // WITHOUT SA_RESTART, so the syscall really returns EINTR) hits it; the
  // campaign must still reap every child and record every result.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rp_sweep_eintr_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path fake = dir / "fake_routplace";
  {
    std::ofstream out(fake);
    out << "#!/bin/sh\nsleep 0.3\nexit 0\n";
  }
  fs::permissions(fake, fs::perms::owner_all, fs::perm_options::add);
  const fs::path spec = dir / "spec.json";
  {
    std::ofstream out(spec);
    out << R"({"name": "eintr", "base": {"gen": 100}, "seeds": [1, 2, 3, 4]})";
  }

  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  std::atomic<bool> done{false};
  const pthread_t victim = pthread_self();
  std::thread storm([&] {
    while (!done.load()) {
      pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  SweepOptions opt;
  opt.spec_path = spec.string();
  opt.out_dir = (dir / "campaign").string();
  opt.routplace = fake.string();
  opt.jobs = 2;
  SweepOutcome outcome;
  try {
    outcome = run_campaign(opt);
  } catch (const Error& e) {
    done.store(true);
    storm.join();
    ::sigaction(SIGUSR1, &old, nullptr);
    FAIL() << "run_campaign threw under signal storm: " << e.what();
  }
  done.store(true);
  storm.join();
  ::sigaction(SIGUSR1, &old, nullptr);

  EXPECT_EQ(outcome.executed, 4);
  ASSERT_EQ(outcome.results.size(), 4u);
  for (const SweepRunResult& r : outcome.results) {
    EXPECT_FALSE(r.skipped);
    EXPECT_EQ(r.exit_code, 0) << r.run.id;  // every child reaped, none lost
    EXPECT_EQ(r.status, "ok");
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rp
