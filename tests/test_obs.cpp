// Observability-context tests: the re-entrancy gate.
//
// The contract under test (util/obs_context.hpp): every flow.run observes
// into its own ObsContext — the caller's FlowOptions::obs or a fresh one —
// never process globals, so (a) sequential runs in one process and (b) two
// concurrent runs on separate contexts all produce run reports identical —
// under rp_report_diff's default volatile ignores with ZERO numeric
// tolerance — to a fresh-context baseline run. Plus unit coverage for the
// thread-bound current context, the epoch-stamped macro slot caches, the
// event bus ring/stream/flight recorder and its fd writer, and the
// cooperative interrupt path.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "core/report_diff.hpp"
#include "core/run_report.hpp"
#include "gen/generator.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/telemetry.hpp"

namespace rp {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::set_level(LogLevel::Error);
    tmp_ = fs::temp_directory_path() / "rp_obs_test";
    fs::create_directories(tmp_);
  }
  fs::path tmp_;
};

// One complete placement run observing into its own context; returns the
// full run-report JSON. Everything volatile in the report is covered by the
// differ's default ignore set, so two calls must diff clean at tolerance 0.
std::string run_with_context(const std::shared_ptr<obs::ObsContext>& ctx,
                             std::uint64_t seed) {
  obs::ScopedBind bind(ctx.get());
  Design d = generate_benchmark(tiny_spec(seed));
  FlowOptions opt = routability_driven_options();
  opt.obs = ctx;
  PlacementFlow flow(opt);
  const FlowResult r = flow.run(d);
  RunReportMeta meta = make_report_meta(d, "generated", "routability", seed);
  return run_report_json(meta, opt, r);
}

void expect_reports_match(const std::string& a, const std::string& b,
                          const char* what) {
  const ReportDiffResult diff =
      diff_json_values(json_parse(a), json_parse(b), ReportDiffOptions{});
  EXPECT_TRUE(diff.clean()) << what << ":\n" << diff.format();
  EXPECT_GT(diff.values_compared, 50) << what << ": diff compared too little";
}

// ---------------------------------------------------------- re-entrancy gate

TEST_F(ObsTest, SequentialRunsInOneProcessMatchFreshBaseline) {
  // Baseline: a fresh context, exactly what a fresh process would observe.
  const std::string baseline =
      run_with_context(std::make_shared<obs::ObsContext>(), 91);
  // Two more full runs in the SAME process, each on its own context. Without
  // per-run contexts the second run would inherit (or have to reset) the
  // first run's counters; with them, every report matches the baseline.
  const std::string second =
      run_with_context(std::make_shared<obs::ObsContext>(), 91);
  const std::string third =
      run_with_context(std::make_shared<obs::ObsContext>(), 91);
  expect_reports_match(baseline, second, "sequential run 2 vs fresh baseline");
  expect_reports_match(baseline, third, "sequential run 3 vs fresh baseline");
}

TEST_F(ObsTest, ConcurrentRunsOnSeparateContextsMatchFreshBaseline) {
  const std::string baseline =
      run_with_context(std::make_shared<obs::ObsContext>(), 92);
  // Two full flows at once, each thread bound to its own context. The shared
  // thread pool serializes whole parallel jobs (util/parallel.hpp), and
  // every RP_COUNT/RP_GAUGE/event resolves through the thread's binding —
  // so neither run can see the other's observability state.
  std::string a, b;
  std::thread ta([&] { a = run_with_context(std::make_shared<obs::ObsContext>(), 92); });
  std::thread tb([&] { b = run_with_context(std::make_shared<obs::ObsContext>(), 92); });
  ta.join();
  tb.join();
  expect_reports_match(baseline, a, "concurrent run A vs fresh baseline");
  expect_reports_match(baseline, b, "concurrent run B vs fresh baseline");
}

TEST_F(ObsTest, EventCountsAreDeterministicAcrossRuns) {
  auto c1 = std::make_shared<obs::ObsContext>();
  auto c2 = std::make_shared<obs::ObsContext>();
  run_with_context(c1, 93);
  run_with_context(c2, 93);
  EXPECT_GT(c1->events().events_emitted(), 0u);
  EXPECT_EQ(c1->events().events_emitted(), c2->events().events_emitted());
}

// ------------------------------------------------- thread-bound current ctx

TEST_F(ObsTest, CurrentFallsBackToProcessDefault) {
  ASSERT_EQ(obs::bound(), nullptr);
  EXPECT_EQ(&obs::current(), &obs::process_default());
  obs::ObsContext ctx;
  {
    obs::ScopedBind bind(&ctx);
    EXPECT_EQ(&obs::current(), &ctx);
    {
      obs::ScopedBind inner(nullptr);  // nested unbind
      EXPECT_EQ(&obs::current(), &obs::process_default());
    }
    EXPECT_EQ(&obs::current(), &ctx);
  }
  EXPECT_EQ(obs::bound(), nullptr);
}

TEST_F(ObsTest, BindingIsPerThread) {
  obs::ObsContext ctx;
  obs::ScopedBind bind(&ctx);
  obs::ObsContext* seen = &ctx;
  std::thread t([&] { seen = obs::bound() == nullptr ? nullptr : obs::bound(); });
  t.join();
  EXPECT_EQ(seen, nullptr);  // a fresh thread starts unbound
  EXPECT_EQ(obs::bound(), &ctx);
}

TEST_F(ObsTest, MacroSlotCachesFollowTheBoundContext) {
  // The same RP_COUNT call site (one static thread_local slot cache) must
  // land in whichever registry is current — the epoch check re-resolves the
  // slot on every context switch, including back to a previous context.
  obs::ObsContext a, b;
  for (int round = 0; round < 2; ++round) {
    {
      obs::ScopedBind bind(&a);
      RP_COUNT("obs.test.hits", 1);
      RP_GAUGE("obs.test.level", 1.0);
    }
    {
      obs::ScopedBind bind(&b);
      RP_COUNT("obs.test.hits", 10);
      RP_GAUGE("obs.test.level", 2.0);
    }
  }
  EXPECT_EQ(a.registry().counter_value("obs.test.hits"), 2);
  EXPECT_EQ(b.registry().counter_value("obs.test.hits"), 20);
  EXPECT_DOUBLE_EQ(a.registry().gauge_value("obs.test.level"), 1.0);
  EXPECT_DOUBLE_EQ(b.registry().gauge_value("obs.test.level"), 2.0);
}

TEST_F(ObsTest, ResetPreservesSlotAddresses) {
  obs::ObsContext ctx;
  obs::ScopedBind bind(&ctx);
  RP_COUNT("obs.test.reset", 5);
  telemetry::Counter* slot = &ctx.registry().counter("obs.test.reset");
  ctx.reset();
  EXPECT_EQ(slot->value, 0);
  RP_COUNT("obs.test.reset", 3);  // cached slot still valid after reset()
  EXPECT_EQ(ctx.registry().counter_value("obs.test.reset"), 3);
}

// ------------------------------------------------------------- event bus

TEST_F(ObsTest, EventBusStampsMonotoneSeqAndKeepsLastN) {
  obs::EventBus bus;
  const int total = obs::EventBus::kFlightCapacity + 17;
  for (int i = 0; i < total; ++i) {
    obs::Event e = bus.make(obs::EventKind::GpIter, "tick");
    e.i1 = i;
    bus.emit(e);
  }
  EXPECT_EQ(bus.events_emitted(), static_cast<std::uint64_t>(total));
  std::vector<obs::Event> got(obs::EventBus::kFlightCapacity + 8);
  const int n = bus.flight_events(got.data(), static_cast<int>(got.size()));
  ASSERT_EQ(n, obs::EventBus::kFlightCapacity);  // ring keeps the last N
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].seq,
              static_cast<std::uint64_t>(total - n + i));  // oldest first
    EXPECT_EQ(got[static_cast<std::size_t>(i)].i1,
              static_cast<std::int64_t>(total - n + i));
  }
}

TEST_F(ObsTest, EventLabelTruncatesSafely) {
  obs::Event e;
  e.set_label("0123456789012345678901234567890123456789012345678901234567");
  EXPECT_EQ(std::string(e.label).size(),
            static_cast<std::size_t>(obs::Event::kLabelCap - 1));
}

TEST_F(ObsTest, NdjsonStreamIsSchemaVersionedAndParsable) {
  const fs::path out = tmp_ / "stream.ndjson";
  obs::EventBus bus;
  ASSERT_TRUE(bus.open_stream(out.string()));
  EXPECT_TRUE(bus.streaming());
  obs::Event e = bus.make(obs::EventKind::RunBegin, "design\"x\\y");  // escaping
  e.i0 = 12;
  bus.emit(e);
  obs::Event g = bus.make(obs::EventKind::GpIter, "level0");
  g.d0 = 1234.5;
  bus.emit(g);
  bus.close_stream();
  EXPECT_FALSE(bus.streaming());

  std::istringstream lines(slurp(out));
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    const JsonValue v = json_parse(line);  // throws on malformed JSON
    EXPECT_EQ(v.at("schema").str, "rp_progress");
    EXPECT_EQ(v.at("v").num, 1.0);
    EXPECT_EQ(v.at("seq").num, static_cast<double>(n));
    ++n;
  }
  EXPECT_EQ(n, 2);
}

TEST_F(ObsTest, DumpFlightWritesValidDocument) {
  obs::ObsContext ctx;
  {
    obs::ScopedBind bind(&ctx);
    RP_COUNT("obs.test.flight", 7);
    RP_GAUGE("obs.test.depth", 2.5);
  }
  obs::Event e = ctx.events().make(obs::EventKind::Watchdog, "gp_iters");
  e.d0 = 40.0;
  ctx.events().emit(e);

  const fs::path out = tmp_ / "flight.json";
  ASSERT_TRUE(ctx.events().dump_flight(out.string(), "UnitTest",
                                       &ctx.registry()));
  const JsonValue v = json_parse(slurp(out));
  EXPECT_EQ(v.at("schema").str, "rp_flight");
  EXPECT_EQ(v.at("reason").str, "UnitTest");
  EXPECT_EQ(v.at("events_total").num, 1.0);
  EXPECT_EQ(v.at("events").arr.size(), 1u);
  EXPECT_EQ(v.at("events").arr[0].at("event").str, "watchdog");
  EXPECT_EQ(v.at("events").arr[0].at("label").str, "gp_iters");
  EXPECT_EQ(v.at("counters").at("obs.test.flight").num, 7.0);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("obs.test.depth").num, 2.5);
}

TEST_F(ObsTest, EveryEventKindHasAStableWireName) {
  for (int k = 0; k < obs::kEventKinds; ++k) {
    const char* name = obs::event_kind_name(static_cast<obs::EventKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

TEST_F(ObsTest, WriteAllFdSurvivesSignalStormAndFullPipe) {
  // A pipe shrunk to one page, a deliberately slow reader, and a SIGUSR1
  // storm (handler installed WITHOUT SA_RESTART) at the writer: write()
  // must hit both short writes and EINTR, and write_all_fd must deliver
  // every byte in order anyway.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
#ifdef F_SETPIPE_SZ
  ::fcntl(fds[1], F_SETPIPE_SZ, 4096);
#endif
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: write() really returns EINTR
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  const std::size_t total = 256 * 1024;
  std::string payload(total, '\0');
  for (std::size_t i = 0; i < total; ++i)
    payload[i] = static_cast<char>('a' + (i % 23));

  std::atomic<bool> write_done{false};
  std::atomic<bool> ok{false};
  std::thread writer([&] {
    ok.store(obs::write_all_fd(fds[1], payload.data(), payload.size()));
    write_done.store(true);
    ::close(fds[1]);
  });
  std::thread storm([&] {
    while (!write_done.load()) {
      pthread_kill(writer.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::string got;
  char buf[512];  // small reads keep the pipe full -> short writes upstream
  for (;;) {
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof(buf))) < 0 && errno == EINTR) {
    }
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
    if (got.size() < total / 2)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  writer.join();
  storm.join();
  ::close(fds[0]);
  ::sigaction(SIGUSR1, &old, nullptr);
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(got.size(), total);
  EXPECT_EQ(got, payload);
  // And the documented failure mode: a closed read end is a real error.
  int dead[2];
  ASSERT_EQ(::pipe(dead), 0);
  ::close(dead[0]);
  signal(SIGPIPE, SIG_IGN);
  EXPECT_FALSE(obs::write_all_fd(dead[1], "x", 1));
  ::close(dead[1]);
}

// ------------------------------------------------------------- interrupts

TEST_F(ObsTest, CheckInterruptThrowsInterruptedOnce) {
  obs::clear_interrupt();
  EXPECT_NO_THROW(obs::check_interrupt());
  obs::request_interrupt();
  EXPECT_TRUE(obs::interrupt_requested());
  try {
    obs::check_interrupt();
    FAIL() << "check_interrupt did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Interrupted);
    EXPECT_EQ(e.exit_code(), 7);
  }
  obs::clear_interrupt();
  EXPECT_NO_THROW(obs::check_interrupt());
}

TEST_F(ObsTest, InterruptedFlowUnwindsWithPartialState) {
  auto ctx = std::make_shared<obs::ObsContext>();
  obs::ScopedBind bind(ctx.get());
  Design d = generate_benchmark(tiny_spec(94));
  FlowOptions opt = routability_driven_options();
  opt.obs = ctx;
  PlacementFlow flow(opt);
  obs::request_interrupt();
  try {
    flow.run(d);
    obs::clear_interrupt();
    FAIL() << "flow.run ignored the interrupt flag";
  } catch (const Error& e) {
    obs::clear_interrupt();
    EXPECT_EQ(e.code(), ErrorCode::Interrupted);
  }
  // The flight recorder captured the events leading up to the unwind.
  EXPECT_GT(ctx->events().events_emitted(), 0u);
}

}  // namespace
}  // namespace rp
