// The serve subsystem end to end: strict request validation, the
// admission-controlled service answering from the shared plan cache with
// bit-identical streams, the observability plane (flight recorder, stats
// v2, structured logging, Prometheus scrape, drain-aware health), and the
// socket transport with graceful drain.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/comm/optimizer.h"
#include "src/comm/plan.h"
#include "src/driver/driver.h"
#include "src/driver/report.h"
#include "src/exec/plan_cache.h"
#include "src/machine/model.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/support/json.h"
#include "src/support/log.h"

namespace zc::serve {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- protocol

TEST(Protocol, ParsesAFullOptimizeRequest) {
  const Request req = parse_request(
      R"({"v":1,"cmd":"optimize","id":"r7","bench":"tomcatv",
          "experiment":["pl","cc"],"procs":[4,16],"machine":"paragon",
          "config":{"n":32,"iters":2},"run":true,"trace":false,
          "blame":true,"critical_path":false})");
  EXPECT_EQ(req.cmd, Request::Cmd::kOptimize);
  EXPECT_EQ(req.id, "r7");
  const OptimizeRequest& o = req.optimize;
  EXPECT_EQ(o.bench, "tomcatv");
  EXPECT_EQ(o.experiments, (std::vector<std::string>{"pl", "cc"}));
  EXPECT_EQ(o.procs, (std::vector<int>{4, 16}));
  EXPECT_EQ(o.machine, "paragon");
  EXPECT_EQ(o.config_overrides.at("n"), 32);
  EXPECT_EQ(o.config_overrides.at("iters"), 2);
  EXPECT_TRUE(o.blame);
  EXPECT_TRUE(o.trace) << "blame implies trace";
  EXPECT_EQ(o.label(), "tomcatv/pl,cc/p4,p16");
}

TEST(Protocol, AppliesDocumentedDefaults) {
  const Request req =
      parse_request(R"({"v":1,"cmd":"optimize","bench":"jacobi"})");
  const OptimizeRequest& o = req.optimize;
  EXPECT_EQ(o.experiments, std::vector<std::string>{"pl"});
  EXPECT_EQ(o.procs, std::vector<int>{16});
  EXPECT_EQ(o.machine, "t3d");
  EXPECT_TRUE(o.run);
  EXPECT_TRUE(o.plan_text);
  EXPECT_FALSE(o.trace);
}

TEST(Protocol, RejectsMalformedRequestsWithStructuredCodes) {
  // One entry per distinct validation rule; every rejection must be a
  // RequestError carrying kBadRequest plus a fragment naming the culprit.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "unexpected end of input"},
      {"not json", "offset"},
      {"[1,2,3]", "must be a JSON object"},
      {R"({"cmd":"ping"})", "missing required member 'v'"},
      {R"({"v":2,"cmd":"ping"})", "unsupported protocol version"},
      {R"({"v":1})", "missing required member 'cmd'"},
      {R"({"v":1,"cmd":"frobnicate"})", "unknown cmd"},
      {R"({"v":1,"cmd":"ping","bench":"x"})", "unknown member 'bench'"},
      {R"({"v":1,"cmd":"optimize"})", "exactly one of 'bench' or 'source'"},
      {R"({"v":1,"cmd":"optimize","bench":"a","source":"b"})",
       "exactly one of 'bench' or 'source'"},
      {R"({"v":1,"cmd":"optimize","bench":""})", "must not be empty"},
      {R"({"v":1,"cmd":"optimize","bench":"a","procs":0})", "between 1 and"},
      {R"({"v":1,"cmd":"optimize","bench":"a","procs":2.5})",
       "must be an integer"},
      {R"({"v":1,"cmd":"optimize","bench":"a","procs":[]})",
       "at least one processor count"},
      {R"({"v":1,"cmd":"optimize","bench":"a","machine":"cm5"})",
       "must be \"t3d\" or \"paragon\""},
      {R"({"v":1,"cmd":"optimize","bench":"a","experiment":[]})",
       "at least one experiment"},
      {R"({"v":1,"cmd":"optimize","bench":"a","config":[1]})",
       "'config' must be an object"},
      {R"({"v":1,"cmd":"optimize","bench":"a","mystery":1})",
       "unknown member 'mystery'"},
      {R"({"v":1,"cmd":"optimize","bench":"a","run":false,"trace":true})",
       "requires 'run'"},
      {R"({"v":1,"cmd":"optimize","bench":"a","plan_text":1})",
       "'plan_text' must be true or false"},
  };
  for (const auto& [line, fragment] : cases) {
    try {
      (void)parse_request(line);
      FAIL() << "accepted: " << line;
    } catch (const RequestError& e) {
      EXPECT_EQ(e.code, ErrorCode::kBadRequest) << line;
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << line << " -> " << e.what();
    }
  }
}

TEST(Protocol, SyntaxErrorsCarryTheByteOffset) {
  try {
    (void)parse_request(R"({"v":1,"cmd":)");
    FAIL();
  } catch (const RequestError& e) {
    EXPECT_GE(e.offset, 0);
  }
  const json::Value err = error_response("r", ErrorCode::kOverloaded, "busy", -1, 75);
  EXPECT_EQ(err.at("error").at("code").string, "overloaded");
  EXPECT_EQ(static_cast<int>(err.at("error").at("retry_after_ms").number), 75);
  EXPECT_FALSE(err.at("error").has("offset"));
}

// ----------------------------------------------------------------- service

/// Collects one client's response lines; wait_for_lines blocks until a
/// predicate-matching count arrives (worker threads answer asynchronously).
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> lines;

  Service::Emit emit() {
    return [this](const std::string& line) {
      // Notify under the lock: a waiter may see its predicate satisfied and
      // destroy this Collector the instant the mutex is released, so the cv
      // must not be touched after unlock.
      const std::lock_guard<std::mutex> lk(mu);
      lines.push_back(line);
      cv.notify_all();
    };
  }

  bool wait_for(const std::string& fragment) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, 30s, [&] {
      for (const std::string& line : lines) {
        if (line.find(fragment) != std::string::npos) return true;
      }
      return false;
    });
  }

  std::vector<std::string> snapshot() {
    const std::lock_guard<std::mutex> lk(mu);
    return lines;
  }
};

constexpr std::string_view kOptimizeJacobi =
    R"({"v":1,"cmd":"optimize","id":"r1","bench":"jacobi","experiment":"pl","procs":4})";

TEST(Service, AnswersPingStatsAndStreamsAnOptimizeRun) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.plan_cache = &cache;
  Service service(sopts);

  Collector c;
  EXPECT_TRUE(service.handle_line("t", R"({"v":1,"cmd":"ping","id":"p"})", c.emit()));
  ASSERT_TRUE(c.wait_for(R"("kind":"pong")"));

  EXPECT_TRUE(service.handle_line("t", kOptimizeJacobi, c.emit()));
  ASSERT_TRUE(c.wait_for(R"("kind":"done")"));

  const std::vector<std::string> lines = c.snapshot();
  ASSERT_EQ(lines.size(), 4u);  // pong, plan, report, done
  const json::Value plan_line = json::parse(lines[1]);
  EXPECT_EQ(plan_line.at("kind").string, "plan");
  EXPECT_EQ(plan_line.at("cache").string, "miss");
  EXPECT_EQ(plan_line.at("item").string, "jacobi/pl");
  EXPECT_GT(plan_line.at("static_count").number, 0);
  const json::Value report_line = json::parse(lines[2]);
  EXPECT_EQ(report_line.at("kind").string, "report");
  EXPECT_EQ(static_cast<int>(report_line.at("report").at("schema_version").number), 5);
  EXPECT_EQ(report_line.at("report").at("procs").number, 4);
  EXPECT_FALSE(report_line.at("report").has("metrics"))
      << "serve reports must not embed volatile registry snapshots";

  // The stats surface: request counts, the latency histogram, cache stats.
  Collector s;
  EXPECT_TRUE(service.handle_line("t", R"({"v":1,"cmd":"stats","id":"s"})", s.emit()));
  ASSERT_TRUE(s.wait_for(R"("kind":"stats")"));
  const json::Value stats = json::parse(s.snapshot().at(0));
  EXPECT_EQ(stats.at("plan_cache").at("misses").number, 1);
  const json::Value& counters = stats.at("serve").at("counters");
  EXPECT_EQ(counters.at("serve.requests.optimize").number, 1);
  EXPECT_EQ(counters.at("serve.completed").number, 1);
  EXPECT_GE(counters.at("serve.client.t.requests").number, 2);
  const json::Value& hist =
      stats.at("serve").at("histograms").at("serve.request_seconds");
  EXPECT_EQ(hist.at("count").number, 1);
  EXPECT_TRUE(hist.has("p50"));
  EXPECT_TRUE(hist.has("p99"));
}

TEST(Service, PlanTextOptOutDropsTheDumpButKeepsTheCounts) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.plan_cache = &cache;
  Service service(sopts);

  Collector with;
  EXPECT_TRUE(service.handle_line("t", kOptimizeJacobi, with.emit()));
  ASSERT_TRUE(with.wait_for(R"("kind":"done")"));
  const json::Value default_plan = json::parse(with.snapshot().at(0));
  EXPECT_TRUE(default_plan.has("plan_text")) << "plan_text is opt-out";

  Collector without;
  EXPECT_TRUE(service.handle_line(
      "t",
      R"({"v":1,"cmd":"optimize","id":"r2","bench":"jacobi","experiment":"pl","procs":4,"plan_text":false})",
      without.emit()));
  ASSERT_TRUE(without.wait_for(R"("kind":"done")"));
  const json::Value lean_plan = json::parse(without.snapshot().at(0));
  EXPECT_EQ(lean_plan.at("kind").string, "plan");
  EXPECT_FALSE(lean_plan.has("plan_text"));
  EXPECT_EQ(lean_plan.at("cache").string, "hit")
      << "plan_text is presentation only — both spellings share one cache entry";
  EXPECT_EQ(lean_plan.at("static_count").number,
            default_plan.at("static_count").number);
}

TEST(Service, FourConcurrentClientsShareOnePlanAndGetIdenticalStreams) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 4;
  sopts.plan_cache = &cache;
  Service service(sopts);

  std::vector<Collector> clients(4);
  {
    std::vector<std::thread> senders;
    for (int i = 0; i < 4; ++i) {
      senders.emplace_back([&, i] {
        EXPECT_TRUE(service.handle_line("client" + std::to_string(i),
                                        kOptimizeJacobi, clients[i].emit()));
      });
    }
    for (std::thread& t : senders) t.join();
  }
  for (Collector& c : clients) ASSERT_TRUE(c.wait_for(R"("kind":"done")"));

  // Exactly one planning run: 1 miss, 3 hits, whichever worker got there
  // first.
  const exec::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 3);

  // All four streams are identical apart from the hit/miss label on the
  // plan line (exactly one says "miss"), and every other byte agrees.
  int misses = 0;
  std::vector<std::vector<std::string>> streams;
  for (Collector& c : clients) streams.push_back(c.snapshot());
  for (std::vector<std::string>& stream : streams) {
    ASSERT_EQ(stream.size(), 3u);  // plan, report, done
    const std::size_t at = stream[0].find(R"("cache":")");
    ASSERT_NE(at, std::string::npos);
    if (stream[0].compare(at, 14, R"("cache":"miss")") == 0) ++misses;
    // Neutralize the one legitimately divergent byte-range before the
    // stream comparison.
    const std::size_t end = stream[0].find('"', at + 9);
    stream[0].replace(at, end + 1 - at, R"("cache":"*")");
  }
  EXPECT_EQ(misses, 1);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(streams[0], streams[i]) << "client " << i;

  // Bit-identity against a direct, serve-free run of the same
  // configuration: the streamed report document and plan text must match
  // what the library produces first-hand.
  const zir::Program program =
      parser::parse_program(programs::kernel_source("jacobi"));
  const driver::Experiment e = *driver::find_experiment("pl");
  const comm::CommPlan plan = comm::plan_communication(program, e.opts);
  sim::RunConfig config;
  config.machine = machine::t3d_model();
  config.library = e.library;
  config.procs = 4;
  const driver::Metrics m = driver::run_planned(program, plan, e, std::move(config));
  driver::ReportOptions ropts;
  ropts.benchmark = "jacobi";
  ropts.provenance = false;
  ropts.metrics_snapshot = false;
  const json::Value expected = driver::build_report(m, e, 4, nullptr, ropts);

  const json::Value plan_line = json::parse(streams[0][0]);
  EXPECT_EQ(plan_line.at("plan_text").string, comm::to_string(plan, program));
  const json::Value report_line = json::parse(streams[0][1]);
  EXPECT_EQ(report_line.at("report").dump(0), expected.dump(0));
}

TEST(Service, OverloadedAndMalformedRequestsGetStructuredErrorsWhileServing) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool released = false;

  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.max_queue_depth = 2;
  sopts.retry_after_ms = 75;
  sopts.plan_cache = &cache;
  sopts.on_job_start = [&] {
    std::unique_lock<std::mutex> lk(gate_mu);
    gate_cv.wait(lk, [&] { return released; });
  };
  Service service(sopts);

  Collector c1, c2, c3, cbad, cping;
  // Two requests fill the admission window (one executing at the gate, one
  // queued); the third must be refused with retry-after.
  service.handle_line("a", kOptimizeJacobi, c1.emit());
  service.handle_line("b", kOptimizeJacobi, c2.emit());
  service.handle_line("c", kOptimizeJacobi, c3.emit());
  ASSERT_TRUE(c3.wait_for(R"("code":"overloaded")"));
  const json::Value err = json::parse(c3.snapshot().at(0));
  EXPECT_EQ(static_cast<int>(err.at("error").at("retry_after_ms").number), 75);

  // The daemon stays responsive while saturated: malformed input answers
  // structurally, control commands answer synchronously.
  service.handle_line("d", "{{{{", cbad.emit());
  ASSERT_TRUE(cbad.wait_for(R"("code":"bad_request")"));
  service.handle_line("e", R"({"v":1,"cmd":"ping"})", cping.emit());
  ASSERT_TRUE(cping.wait_for(R"("kind":"pong")"));

  {
    const std::lock_guard<std::mutex> lk(gate_mu);
    released = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(c1.wait_for(R"("kind":"done")"));
  ASSERT_TRUE(c2.wait_for(R"("kind":"done")"));
  EXPECT_EQ(service.registry().counter("serve.errors.overloaded"), 1);
}

TEST(Service, ShutdownDrainsAdmittedWorkAndRefusesNewWork) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.plan_cache = &cache;
  Service service(sopts);

  Collector work, shut, late;
  service.handle_line("a", kOptimizeJacobi, work.emit());
  EXPECT_FALSE(
      service.handle_line("a", R"({"v":1,"cmd":"shutdown","id":"bye"})", shut.emit()))
      << "a shutdown request tells the transport to stop serving";
  ASSERT_TRUE(shut.wait_for(R"("kind":"shutdown")"));

  service.handle_line("b", kOptimizeJacobi, late.emit());
  ASSERT_TRUE(late.wait_for(R"("code":"shutting_down")"));

  service.drain();
  EXPECT_TRUE(work.wait_for(R"("kind":"done")"))
      << "admitted work finishes and answers through the drain";
  EXPECT_EQ(service.in_flight(), 0);
}

TEST(Service, SurvivesAdversarialInputAndKeepsServing) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.max_line_bytes = 4096;
  sopts.max_depth = 16;
  sopts.plan_cache = &cache;
  Service service(sopts);

  std::vector<std::string> nasty = {
      std::string(100, '['),                     // nesting bomb -> depth limit
      std::string(8192, 'x'),                    // over the line byte limit
      std::string("{\"v\":1,\x01\x02", 10),      // control bytes
      R"({"v":1,"cmd":"optimize","bench":"jacobi","procs":999999999})",
      R"({"v":1,"cmd":"optimize","source":"program broken;"})",
  };
  for (const std::string& line : nasty) {
    Collector c;
    service.handle_line("f", line, c.emit());
    ASSERT_TRUE(c.wait_for(R"("kind":"error")")) << line.substr(0, 40);
  }
  // procs cap and parse failures are reported per-request...
  EXPECT_GE(service.registry().counter("serve.errors.bad_request"), 4);
  // ...and the service still serves real work afterwards.
  Collector ok;
  service.handle_line("f", kOptimizeJacobi, ok.emit());
  EXPECT_TRUE(ok.wait_for(R"("kind":"done")"));
}

TEST(Service, OutOfStorageReadEndsTheRequestInAnErrorAndServingGoesOn) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.plan_cache = &cache;
  Service service(sopts);

  // `[R] A := B` reads B over R, but B only exists over I: the run stops
  // with a structured error naming B, not with an abort of the daemon.
  Collector c;
  service.handle_line(
      "t",
      R"({"v":1,"cmd":"optimize","id":"oob","run":true,"procs":4,"source":)"
      R"("program oob; config n : integer = 8; region R = [0..n+1, 0..n+1]; )"
      R"(region I = [1..n, 1..n]; var A : [R] double; var B : [I] double; )"
      R"(procedure main() { [R] A := B; }"})",
      c.emit());
  ASSERT_TRUE(c.wait_for(R"("kind":"error")"));
  const json::Value err = json::parse(c.snapshot().back());
  EXPECT_EQ(err.at("id").string, "oob");
  EXPECT_NE(err.at("error").at("message").string.find("read of 'B' outside its declared region"),
            std::string::npos)
      << err.dump(0);

  Collector ping;
  EXPECT_TRUE(service.handle_line("t", R"({"v":1,"cmd":"ping","id":"after"})", ping.emit()));
  ASSERT_TRUE(ping.wait_for(R"("kind":"pong")"));
  Collector ok;
  service.handle_line("t", kOptimizeJacobi, ok.emit());
  EXPECT_TRUE(ok.wait_for(R"("kind":"done")"));
}

// ----------------------------------------------------------- observability

TEST(Protocol, ParsesTheFlightCommand) {
  const Request req = parse_request(R"({"v":1,"cmd":"flight","id":"f1"})");
  EXPECT_EQ(req.cmd, Request::Cmd::kFlight);
  EXPECT_EQ(req.id, "f1");
  // Strictness holds for the new command too: no optimize members allowed.
  try {
    (void)parse_request(R"({"v":1,"cmd":"flight","bench":"jacobi"})");
    FAIL() << "flight with an optimize member parsed";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code, ErrorCode::kBadRequest);
  }
}

TEST(Service, StatsV2CarriesUptimeAndPerErrorCodeCounts) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.plan_cache = &cache;
  Service service(sopts);

  Collector bad;
  service.handle_line("t", "not json", bad.emit());
  ASSERT_TRUE(bad.wait_for(R"("code":"bad_request")"));

  Collector s;
  service.handle_line("t", R"({"v":1,"cmd":"stats","id":"s"})", s.emit());
  ASSERT_TRUE(s.wait_for(R"("kind":"stats")"));
  const json::Value stats = json::parse(s.snapshot().at(0));
  EXPECT_EQ(static_cast<int>(stats.at("stats_version").number), 2);
  EXPECT_GT(stats.at("uptime_seconds").number, 0.0);
  const json::Value& errors = stats.at("errors");
  EXPECT_EQ(errors.at("bad_request").number, 1);
  EXPECT_EQ(errors.at("overloaded").number, 0);
  EXPECT_EQ(errors.at("shutting_down").number, 0);
  EXPECT_EQ(errors.at("internal").number, 0);
}

TEST(Service, FlightRecorderCapturesPhaseAttributedEntries) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.plan_cache = &cache;
  sopts.flight_capacity = 4;
  sopts.slow_request_seconds = 0.001;  // the sleep below always qualifies
  sopts.debug_sleep_ms = 15;           // deterministic slow phase
  Service service(sopts);

  Collector work;
  service.handle_line("t", kOptimizeJacobi, work.emit());
  ASSERT_TRUE(work.wait_for(R"("kind":"done")"));

  Collector f;
  service.handle_line("t", R"({"v":1,"cmd":"flight","id":"f"})", f.emit());
  ASSERT_TRUE(f.wait_for(R"("kind":"flight")"));
  const json::Value dump = json::parse(f.snapshot().at(0));
  const json::Value& flight = dump.at("flight");
  EXPECT_EQ(static_cast<int>(flight.at("capacity").number), 4);
  EXPECT_EQ(static_cast<int>(flight.at("recorded").number), 1);
  ASSERT_EQ(flight.at("recent").array.size(), 1u);
  ASSERT_EQ(flight.at("slowest").array.size(), 1u);

  const json::Value& entry = flight.at("recent").array[0];
  EXPECT_EQ(static_cast<long long>(entry.at("request_number").number), 1);
  EXPECT_EQ(entry.at("id").string, "r1");
  EXPECT_EQ(entry.at("client").string, "t");
  EXPECT_EQ(entry.at("label").string, "jacobi/pl/p4");
  EXPECT_EQ(entry.at("cache").string, "miss");
  EXPECT_EQ(entry.at("error_code").string, "");
  EXPECT_EQ(static_cast<int>(entry.at("cache_misses").number), 1);
  EXPECT_GE(entry.at("latency_ms").number, 15.0);

  // The phase breakdown attributes the injected sleep and the real work.
  bool saw_sleep = false, saw_plan = false;
  double sleep_ms = 0.0;
  for (const json::Value& phase : entry.at("phases").array) {
    const std::string& path = phase.at("path").string;
    if (path == "debug_sleep") {
      saw_sleep = true;
      sleep_ms = phase.at("ms").number;
    }
    if (path == "plan") saw_plan = true;
  }
  EXPECT_TRUE(saw_sleep) << "injected sleep missing from the phase breakdown";
  EXPECT_TRUE(saw_plan) << "planning phase missing from the phase breakdown";
  EXPECT_GE(sleep_ms, 14.0) << "the sleep phase carries its real duration";
}

TEST(Service, FlightSlowestRingOrdersByLatencyAndRecentByArrival) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.plan_cache = &cache;
  sopts.flight_capacity = 2;  // 3 requests overflow both rings
  Service service(sopts);

  for (int i = 1; i <= 3; ++i) {
    Collector c;
    service.handle_line(
        "t",
        R"({"v":1,"cmd":"optimize","id":"q)" + std::to_string(i) +
            R"(","bench":"jacobi","experiment":"pl","procs":4,"plan_text":false})",
        c.emit());
    ASSERT_TRUE(c.wait_for(R"("kind":"done")"));
  }

  Collector f;
  service.handle_line("t", R"({"v":1,"cmd":"flight"})", f.emit());
  ASSERT_TRUE(f.wait_for(R"("kind":"flight")"));
  const json::Value dump = json::parse(f.snapshot().at(0));
  const json::Value& flight = dump.at("flight");
  EXPECT_EQ(static_cast<int>(flight.at("recorded").number), 3);
  ASSERT_EQ(flight.at("recent").array.size(), 2u) << "recent ring is bounded";
  ASSERT_EQ(flight.at("slowest").array.size(), 2u) << "slowest set is bounded";
  // Recent is newest-first; slowest is descending latency.
  EXPECT_EQ(flight.at("recent").array[0].at("id").string, "q3");
  EXPECT_EQ(flight.at("recent").array[1].at("id").string, "q2");
  EXPECT_GE(flight.at("slowest").array[0].at("latency_ms").number,
            flight.at("slowest").array[1].at("latency_ms").number);
}

TEST(Service, FlightDisabledAnswersWithTheEmptyShape) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.plan_cache = &cache;
  sopts.flight_capacity = 0;  // recorder AND per-request profiler off
  Service service(sopts);

  Collector work;
  service.handle_line("t", kOptimizeJacobi, work.emit());
  ASSERT_TRUE(work.wait_for(R"("kind":"done")"));

  Collector f;
  service.handle_line("t", R"({"v":1,"cmd":"flight","id":"f"})", f.emit());
  ASSERT_TRUE(f.wait_for(R"("kind":"flight")"));
  const json::Value dump = json::parse(f.snapshot().at(0));
  const json::Value& flight = dump.at("flight");
  EXPECT_EQ(static_cast<int>(flight.at("capacity").number), 0);
  EXPECT_EQ(static_cast<int>(flight.at("recorded").number), 0);
  EXPECT_TRUE(flight.at("recent").array.empty());
  EXPECT_TRUE(flight.at("slowest").array.empty());
}

TEST(Service, ResponsesAreBitIdenticalWithObservabilityOnAndOff) {
  // The PR 6 determinism contract extended to the observability plane:
  // logging at debug and the flight recorder (with its per-request
  // profiler) must not perturb a single response byte. Log lines go to a
  // capture buffer here so the comparison also proves they carry the
  // request's correlation id without leaking into the stream.
  const auto run_once = [](bool observed) {
    std::string captured;
    if (observed) {
      log::Logger::global().set_level(log::Level::kDebug);
      log::Logger::global().set_capture(&captured);
    } else {
      log::Logger::global().set_level(log::Level::kOff);
    }
    exec::PlanCache cache;
    ServiceOptions sopts;
    sopts.jobs = 1;
    sopts.plan_cache = &cache;
    sopts.flight_capacity = observed ? 8 : 0;
    Service service(sopts);
    Collector c;
    service.handle_line("t", kOptimizeJacobi, c.emit());
    EXPECT_TRUE(c.wait_for(R"("kind":"done")"));
    service.drain();
    log::Logger::global().set_capture(nullptr);
    log::Logger::global().set_level(log::Level::kInfo);
    return std::make_pair(c.snapshot(), captured);
  };

  const auto [observed_lines, log_text] = run_once(true);
  const auto [plain_lines, no_log] = run_once(false);
  EXPECT_EQ(observed_lines, plain_lines)
      << "observability must never change a response byte";
  EXPECT_TRUE(no_log.empty());
  // The completion log line correlates the request: number, id, outcome.
  EXPECT_NE(log_text.find("msg=\"request finished\""), std::string::npos);
  EXPECT_NE(log_text.find("req=1"), std::string::npos);
  EXPECT_NE(log_text.find("id=\"r1\""), std::string::npos);
  EXPECT_NE(log_text.find("cache=\"miss\""), std::string::npos);
}

TEST(Service, PrometheusExpositionReflectsServedRequests) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.plan_cache = &cache;
  Service service(sopts);

  Collector c;
  service.handle_line("t", kOptimizeJacobi, c.emit());
  ASSERT_TRUE(c.wait_for(R"("kind":"done")"));

  const std::string text = service.metrics_prometheus();
  EXPECT_NE(text.find("# TYPE serve_requests counter\nserve_requests 1"),
            std::string::npos);
  EXPECT_NE(text.find("serve_completed 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_request_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find(R"(serve_request_seconds_bucket{le="+Inf"} 1)"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_count 1"), std::string::npos);
  // Scrape-time derived gauges.
  EXPECT_NE(text.find("# TYPE serve_uptime_seconds gauge"), std::string::npos);
  EXPECT_NE(text.find("serve_plan_cache_hit_ratio 0"), std::string::npos);
  EXPECT_NE(text.find("serve_queue_depth 0"), std::string::npos);
  EXPECT_NE(text.find("serve_draining 0"), std::string::npos);
  EXPECT_NE(text.find("serve_flight_recorded 1"), std::string::npos);
  // Identity metrics: the build-info gauge (constant 1, identity in the
  // labels) and the daemon's wall-clock start time.
  EXPECT_NE(text.find("# TYPE zcomm_build_info gauge"), std::string::npos);
  EXPECT_NE(text.find("zcomm_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find(",compiler=\""), std::string::npos);
  EXPECT_NE(text.find(",build_type=\""), std::string::npos);
  EXPECT_NE(text.find(",sanitizer=\""), std::string::npos);
  EXPECT_NE(text.find("\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE zcomm_start_time_seconds gauge"), std::string::npos);
  const auto start_pos = text.find("\nzcomm_start_time_seconds ");
  ASSERT_NE(start_pos, std::string::npos);
  const long long started =
      std::atoll(text.c_str() + start_pos + std::string("\nzcomm_start_time_seconds ").size());
  EXPECT_GT(started, 1600000000LL) << "start time must be a plausible epoch second";
}

// ------------------------------------------------------------------ server

/// A minimal blocking JSON-lines client for the socket tests.
class LineClient {
 public:
  explicit LineClient(int fd) : fd_(fd) {}
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) {
    std::string out = line;
    out += '\n';
    ASSERT_EQ(::send(fd_, out.data(), out.size(), 0),
              static_cast<ssize_t>(out.size()));
  }

  /// Blocks until one full line arrives (gtest-fails on EOF).
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed mid-read";
        return "";
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

TEST(Server, UnixSocketRoundTripWithConcurrentClientsAndGracefulStop) {
  const std::string path =
      "/tmp/zc_serve_test_" + std::to_string(::getpid()) + ".sock";
  ServerOptions opts;
  opts.unix_socket_path = path;
  opts.service.jobs = 2;
  exec::PlanCache cache;
  opts.service.plan_cache = &cache;
  Server server(opts);
  std::thread runner([&] { server.run(); });

  const auto connect_unix = [&]() -> int {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  };

  {
    LineClient a(connect_unix());
    LineClient b(connect_unix());
    a.send_line(R"({"v":1,"cmd":"ping","id":"a"})");
    b.send_line(std::string(kOptimizeJacobi));
    EXPECT_NE(a.read_line().find(R"("kind":"pong")"), std::string::npos);
    EXPECT_NE(b.read_line().find(R"("kind":"plan")"), std::string::npos);
    EXPECT_NE(b.read_line().find(R"("kind":"report")"), std::string::npos);
    EXPECT_NE(b.read_line().find(R"("kind":"done")"), std::string::npos);
    // Malformed input on a live socket answers without dropping the peer.
    a.send_line("garbage");
    EXPECT_NE(a.read_line().find(R"("code":"bad_request")"), std::string::npos);
    a.send_line(R"({"v":1,"cmd":"ping","id":"again"})");
    EXPECT_NE(a.read_line().find(R"("kind":"pong")"), std::string::npos);
  }

  server.request_stop();
  runner.join();
  EXPECT_EQ(::access(path.c_str(), F_OK), -1) << "socket file is unlinked on stop";
}

TEST(Server, TcpEphemeralPortServesAndShutdownCommandStopsRun) {
  ServerOptions opts;
  opts.tcp_port = 0;  // kernel-chosen
  opts.service.jobs = 1;
  exec::PlanCache cache;
  opts.service.plan_cache = &cache;
  Server server(opts);
  ASSERT_GT(server.tcp_port(), 0);
  std::thread runner([&] { server.run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.tcp_port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  LineClient client(fd);
  client.send_line(std::string(kOptimizeJacobi));
  EXPECT_NE(client.read_line().find(R"("kind":"plan")"), std::string::npos);
  EXPECT_NE(client.read_line().find(R"("kind":"report")"), std::string::npos);
  EXPECT_NE(client.read_line().find(R"("kind":"done")"), std::string::npos);
  client.send_line(R"({"v":1,"cmd":"shutdown"})");
  EXPECT_NE(client.read_line().find(R"("kind":"shutdown")"), std::string::npos);
  runner.join();  // the shutdown request ends run() on its own
}

// ------------------------------------------------------------- http plane

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

/// One HTTP/1.0 exchange: sends `GET target`, returns the full response
/// (head + body; the server closes after writing).
std::string http_get(int port, const std::string& target) {
  const int fd = connect_loopback(port);
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(Server, HttpPlaneServesMetricsHealthAndFlight) {
  ServerOptions opts;
  opts.tcp_port = 0;
  opts.http_port = 0;  // kernel-chosen
  opts.service.jobs = 1;
  exec::PlanCache cache;
  opts.service.plan_cache = &cache;
  Server server(opts);
  ASSERT_GT(server.http_port(), 0);
  std::thread runner([&] { server.run(); });

  {
    LineClient client(connect_loopback(server.tcp_port()));
    client.send_line(std::string(kOptimizeJacobi));
    EXPECT_NE(client.read_line().find(R"("kind":"plan")"), std::string::npos);
    EXPECT_NE(client.read_line().find(R"("kind":"report")"), std::string::npos);
    EXPECT_NE(client.read_line().find(R"("kind":"done")"), std::string::npos);
  }

  const std::string health = http_get(server.http_port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = http_get(server.http_port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE serve_requests counter"), std::string::npos);
  EXPECT_NE(metrics.find("serve_completed 1"), std::string::npos);
  EXPECT_NE(metrics.find(R"(serve_request_seconds_bucket{le="+Inf"} 1)"),
            std::string::npos);

  const std::string flight = http_get(server.http_port(), "/flight");
  EXPECT_NE(flight.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(flight.find("application/json"), std::string::npos);
  EXPECT_NE(flight.find(R"("kind":"flight")"), std::string::npos);
  EXPECT_NE(flight.find(R"("label":"jacobi/pl/p4")"), std::string::npos);

  const std::string timeseries = http_get(server.http_port(), "/timeseries");
  EXPECT_NE(timeseries.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(timeseries.find("application/json"), std::string::npos);
  EXPECT_NE(timeseries.find(R"("kind":"zc-wall-timeline")"), std::string::npos);
  EXPECT_NE(timeseries.find(R"("requests")"), std::string::npos);

  EXPECT_NE(http_get(server.http_port(), "/nope").find("HTTP/1.0 404"),
            std::string::npos);

  server.request_stop();
  runner.join();
}

TEST(Server, HealthzReports503WhileTheDrainRuns) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool released = false;

  ServerOptions opts;
  opts.tcp_port = 0;
  opts.http_port = 0;
  opts.service.jobs = 1;
  exec::PlanCache cache;
  opts.service.plan_cache = &cache;
  // Hold the worker at pickup so one request is deterministically
  // executing when the stop lands.
  opts.service.on_job_start = [&] {
    std::unique_lock<std::mutex> lk(gate_mu);
    gate_cv.wait(lk, [&] { return released; });
  };
  Server server(opts);
  std::thread runner([&] { server.run(); });

  LineClient client(connect_loopback(server.tcp_port()));
  client.send_line(std::string(kOptimizeJacobi));
  // Wait until the worker holds the job (draining starts only after that).
  while (server.service().in_flight() == 0) std::this_thread::sleep_for(1ms);

  server.request_stop();
  while (!server.service().draining()) std::this_thread::sleep_for(1ms);

  // The JSON listeners are gone but the HTTP plane still answers: health
  // says draining (503), metrics still scrape and show the in-flight work.
  const std::string health = http_get(server.http_port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 503"), std::string::npos);
  EXPECT_NE(health.find("draining"), std::string::npos);
  const std::string metrics = http_get(server.http_port(), "/metrics");
  EXPECT_NE(metrics.find("serve_draining 1"), std::string::npos);
  EXPECT_NE(metrics.find("serve_executing 1"), std::string::npos);

  {
    const std::lock_guard<std::mutex> lk(gate_mu);
    released = true;
  }
  gate_cv.notify_all();
  // The held request still answers its client through the drain.
  EXPECT_NE(client.read_line().find(R"("kind":"plan")"), std::string::npos);
  EXPECT_NE(client.read_line().find(R"("kind":"report")"), std::string::npos);
  EXPECT_NE(client.read_line().find(R"("kind":"done")"), std::string::npos);
  runner.join();
}

TEST(Service, TimeseriesTracksRequestsErrorsAndLatency) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.plan_cache = &cache;
  Service service(sopts);

  Collector bad;
  service.handle_line("t", "not json", bad.emit());
  ASSERT_TRUE(bad.wait_for(R"("code":"bad_request")"));
  Collector work;
  service.handle_line("t", kOptimizeJacobi, work.emit());
  ASSERT_TRUE(work.wait_for(R"("kind":"done")"));

  const json::Value doc = service.timeseries_json();
  EXPECT_EQ(doc.at("kind").string, "zc-wall-timeline");
  EXPECT_GT(doc.at("uptime_seconds").number, 0.0);
  const json::Value& channels = doc.at("channels");
  const auto channel_sum = [&channels](const char* name) {
    double total = 0.0;
    for (const json::Value& row : channels.at(name).array) {
      for (const json::Value& v : row.array) total += v.number;
    }
    return total;
  };
  // One executed optimize; the parse failure lands in errors only (pings
  // and parse rejects never reach the execution path that counts requests).
  EXPECT_EQ(channel_sum("requests"), 1.0);
  EXPECT_EQ(channel_sum("errors"), 1.0);
  // The admission-time depth sample includes the job itself: an empty
  // queue admits at depth 1.
  EXPECT_EQ(channel_sum("queue_depth"), 1.0);
  EXPECT_GT(channel_sum("latency"), 0.0);
}

TEST(Service, PlanCacheHitRateIsExposedOnBothStatSurfaces) {
  exec::PlanCache cache;
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.plan_cache = &cache;
  Service service(sopts);

  // Same request twice: one miss, then one hit -> rate 0.5 on both the
  // JSON stats block and the Prometheus exposition.
  for (int i = 0; i < 2; ++i) {
    Collector work;
    service.handle_line("t", kOptimizeJacobi, work.emit());
    ASSERT_TRUE(work.wait_for(R"("kind":"done")"));
  }
  Collector s;
  service.handle_line("t", R"({"v":1,"cmd":"stats","id":"s"})", s.emit());
  ASSERT_TRUE(s.wait_for(R"("kind":"stats")"));
  const json::Value stats = json::parse(s.snapshot().at(0));
  EXPECT_EQ(stats.at("plan_cache").at("hits").number, 1.0);
  EXPECT_EQ(stats.at("plan_cache").at("misses").number, 1.0);
  EXPECT_DOUBLE_EQ(stats.at("plan_cache").at("hit_rate").number, 0.5);

  const std::string prom = service.metrics_prometheus();
  EXPECT_NE(prom.find("serve_plan_cache_hit_ratio 0.5"), std::string::npos);
  EXPECT_NE(prom.find("serve_plan_cache_entries 1"), std::string::npos);
}

}  // namespace
}  // namespace zc::serve
