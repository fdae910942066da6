// serve_mix: zcomm_serve's engine in-process. An open-loop generator (this
// thread) offers requests at a fixed rate to a serve::Service with jobs = 2
// and the default flight recorder; each request is timed from its due time
// to its terminal line. The seeded mix:
//   80%  plan-only "experiment":"all" on a built-in benchmark (cache hits)
//   15%  plan-only "all" on a built-in source under a unique program name
//        (a parse, 6 plans and cache inserts: the write path)
//    5%  "run":true under pl at 16 procs on a built-in benchmark
// The seed fixes the draw order and the unique names.
//
// The traced run takes the service's own per-request phase breakdown from
// Service::flight_json(), polled while the generator has slack.
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <set>

#include "pipebench/src/harness.h"
#include "src/exec/plan_cache.h"
#include "src/programs/programs.h"
#include "src/serve/service.h"

namespace pb {

namespace {

namespace json = zc::json;
namespace serve = zc::serve;

constexpr double kFailedLatencyMs = 1e9;  ///< a failed request misses any limit

enum class Kind { kHit, kUnique, kRun };

struct Request {
  Kind kind = Kind::kHit;
  std::string bench;
  std::string line;
};

/// One request's outcome, written by whichever thread emits its lines.
struct Slot {
  double due = 0.0;
  double sent = 0.0;
  double done = -1.0;
  bool error = false;
  bool refused = false;
  std::size_t hash = 0;  ///< folded over every line
  std::vector<std::pair<std::string, long long>> statics;  ///< per plan line
  long long report_bytes = 0;
  int reports = 0;
};

std::string field_string(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return "";
  const std::size_t from = at + std::strlen(key);
  return line.substr(from, line.find('"', from) - from);
}

/// Emit callback body: cheap enough to run on the service's worker.
void on_line(Slot& s, const std::string& line) {
  const bool done = line.find("\"kind\":\"done\"") != std::string::npos;
  const bool error = !done && line.find("\"kind\":\"error\"") != std::string::npos;
  if (done || error) s.done = now();
  s.hash = s.hash * 1099511628211ULL ^ std::hash<std::string>{}(line);
  if (line.find("\"kind\":\"plan\"") != std::string::npos) {
    const std::size_t at = line.find("\"static_count\":");
    const long long count = at == std::string::npos ? -1 : std::atoll(line.c_str() + at + 15);
    s.statics.emplace_back(field_string(line, "\"experiment\":\""), count);
  } else if (line.find("\"kind\":\"report\"") != std::string::npos) {
    s.report_bytes += static_cast<long long>(line.size());
    ++s.reports;
  } else if (error) {
    s.error = true;
    s.refused = line.find("\"code\":\"overloaded\"") != std::string::npos;
  }
}

std::string optimize_line(const std::string& id, const std::string& bench,
                          const std::string& source, bool run) {
  json::Value v = json::Value::make_object();
  v["v"] = json::Value::make_int(1);
  v["cmd"] = json::Value::make_str("optimize");
  v["id"] = json::Value::make_str(id);
  if (source.empty()) {
    v["bench"] = json::Value::make_str(bench);
  } else {
    v["source"] = json::Value::make_str(source);
  }
  v["experiment"] = json::Value::make_str(run ? "pl" : "all");
  v["run"] = json::Value::make_bool(run);
  if (run) v["procs"] = json::Value::make_int(16);
  return v.dump(0);
}

/// Reference requests: every repeat must return these exact bytes.
std::string hit_line(const std::string& bench) {
  return optimize_line("hit:" + bench, bench, "", false);
}
std::string run_line(const std::string& bench) {
  return optimize_line("run:" + bench, bench, "", true);
}

/// The seeded request stream. Every block of 20 requests opens with 1 run,
/// then holds 16 hits and 3 unique sources in seeded order, and each kind
/// cycles through the 4 benchmarks in seeded order. p99 falls among the run
/// requests: exact proportions and evenly spaced runs keep it from moving
/// with how the seed happens to count or cluster them.
std::vector<Request> make_requests(unsigned long long seed, std::size_t n) {
  std::mt19937_64 rng(seed);
  const auto shuffle = [&rng](auto v) {
    for (std::size_t i = v.size() - 1; i > 0; --i) std::swap(v[i], v[rng() % (i + 1)]);
    return v;
  };
  std::map<Kind, std::vector<std::string>> cycles;
  const auto next_bench = [&](Kind kind) {
    std::vector<std::string>& cycle = cycles[kind];
    if (cycle.empty()) cycle = shuffle(bench_names());
    std::string bench = cycle.back();
    cycle.pop_back();
    return bench;
  };
  std::vector<Kind> rest(16, Kind::kHit);
  rest.insert(rest.end(), 3, Kind::kUnique);

  std::vector<Request> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = i % (rest.size() + 1);
    if (slot == 0) rest = shuffle(rest);
    Request& r = out[i];
    r.kind = slot == 0 ? Kind::kRun : rest[slot - 1];
    r.bench = next_bench(r.kind);
    if (r.kind == Kind::kHit) {
      r.line = hit_line(r.bench);
    } else if (r.kind == Kind::kUnique) {
      const std::string name = r.bench + "_u" + std::to_string(seed) + "_" + std::to_string(i);
      std::string source(zc::programs::benchmark(r.bench).source);
      const std::string header = "program " + r.bench + ";";
      source.replace(source.find(header), header.size(), "program " + name + ";");
      r.line = optimize_line("src:" + name, r.bench, source, false);
    } else {
      r.line = run_line(r.bench);
    }
  }
  return out;
}

/// Sends one request and waits for its terminal line.
Slot send_and_wait(serve::Service& svc, const std::string& line, std::vector<std::string>& lines) {
  std::mutex mu;
  std::condition_variable cv;
  Slot slot;
  svc.handle_line("prewarm", line, [&](const std::string& l) {
    const std::lock_guard<std::mutex> lk(mu);
    on_line(slot, l);
    lines.push_back(l);
    if (slot.done >= 0) cv.notify_all();
  });
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return slot.done >= 0; });
  return slot;
}

long long pinned_static(const std::string& bench, const std::string& experiment) {
  const json::Value& p = pins();
  if (!p.has("serve_mix") || !p.at("serve_mix").at("static").has(bench) ||
      !p.at("serve_mix").at("static").at(bench).has(experiment)) {
    return -1;
  }
  return static_cast<long long>(p.at("serve_mix").at("static").at(bench).at(experiment).number);
}

/// Checks a request's plan lines against the pinned static counts.
std::string check_statics(const std::string& bench, const Slot& s) {
  if (s.statics.size() != 6) return " expected 6 plan lines";
  std::string why;
  for (const auto& [experiment, count] : s.statics) {
    observed()["serve_mix"]["static"][bench][experiment] = json::Value::make_int(count);
    if (count != pinned_static(bench, experiment)) why += " wrong static count for " + experiment;
  }
  return why;
}

struct Served {
  std::unique_ptr<serve::Service> svc;
  std::map<std::string, std::size_t> reference;  ///< request line -> response hash
};

/// Builds the service and pre-warms the built-in plans: a first round of
/// plan requests fills the cache, a second records the reference bytes
/// (and runs each benchmark once) and checks them.
void prewarm(Served& s, Result& result) {
  zc::exec::PlanCache::process().clear();
  s.svc.reset();
  s.svc = std::make_unique<serve::Service>(serve::ServiceOptions{});
  s.reference.clear();
  std::vector<std::string> lines;
  for (const std::string& bench : bench_names()) send_and_wait(*s.svc, hit_line(bench), lines);
  for (const std::string& bench : bench_names()) {
    for (const std::string& line : {hit_line(bench), run_line(bench)}) {
      lines.clear();
      const Slot slot = send_and_wait(*s.svc, line, lines);
      s.reference[line] = slot.hash;
      result.attempt();
      std::string why;
      if (slot.error) why = " error " + lines.back();
      if (line == hit_line(bench)) {
        if (why.empty()) why = check_statics(bench, slot);
      } else if (why.empty()) {
        // The run's report must carry the pinned counts.
        const json::Value report = json::parse(lines.at(1)).at("report");
        const auto stat = static_cast<long long>(report.at("static_count").number);
        const auto dyn = static_cast<long long>(report.at("dynamic_count").number);
        observed()["serve_mix"]["dynamic_p16"][bench] = json::Value::make_int(dyn);
        const json::Value& p = pins();
        if (stat != pinned_static(bench, "pl")) why += " wrong report static count";
        if (!p.has("serve_mix") || !p.at("serve_mix").at("dynamic_p16").has(bench) ||
            dyn != static_cast<long long>(p.at("serve_mix").at("dynamic_p16").at(bench).number)) {
          why += " wrong report dynamic count";
        }
      }
      if (!why.empty()) result.fail("prewarm " + bench + ":" + why);
    }
  }
}

/// The service's own per-request phase breakdown, polled from the flight
/// recorder's recent ring (request numbers above `first`).
struct Flight {
  long long first = 0;
  std::set<long long> seen;
  std::vector<double> queue_wait_ms;
  std::vector<double> exec_ms;
  std::map<std::string, double> phase_ms;
  std::map<std::string, long long> phase_count;

  void poll(const serve::Service& svc) {
    const json::Value v = svc.flight_json();
    for (const json::Value& e : v.at("flight").at("recent").array) {
      const auto number = static_cast<long long>(e.at("request_number").number);
      if (number <= first || !seen.insert(number).second) continue;
      queue_wait_ms.push_back(e.at("queue_wait_ms").number);
      exec_ms.push_back(e.at("latency_ms").number);
      for (const json::Value& p : e.at("phases").array) {
        phase_ms[p.at("path").string] += p.at("ms").number;
        phase_count[p.at("path").string] += static_cast<long long>(p.at("count").number);
      }
    }
  }
};

/// Offers requests [begin, end) at `rate` per second from now on, then
/// waits until the service is idle.
void drive(serve::Service& svc, const std::vector<Request>& requests, std::vector<Slot>& slots,
           std::size_t begin, std::size_t end, double rate, Tracer& tracer, Flight* flight) {
  const double t0 = now() + 0.005;
  std::size_t last_poll = begin;
  for (std::size_t i = begin; i < end; ++i) {
    Slot& slot = slots[i];
    slot.due = t0 + static_cast<double>(i - begin) / rate;
    // The flight ring holds 16 requests: poll every 8 when there is slack,
    // and at the latest every 14.
    const bool slack = slot.due - now() > 1e-3;
    if (flight != nullptr && (i - last_poll >= 14 || (i - last_poll >= 8 && slack))) {
      flight->poll(svc);
      last_poll = i;
    }
    sleep_until(slot.due);
    slot.sent = now();
    Scope s(tracer, "serve.admit", static_cast<long long>(i));
    svc.handle_line("loadgen", requests[i].line,
                    [&slot](const std::string& l) { on_line(slot, l); });
  }
  while (svc.in_flight() > 0) sleep_until(now() + 1e-3);
  if (flight != nullptr) flight->poll(svc);
}

/// Checks requests [begin, end); returns each one's latency in ms.
std::vector<double> check(const Served& s, const std::vector<Request>& requests,
                          const std::vector<Slot>& slots, std::size_t begin, std::size_t end,
                          Result& result) {
  std::vector<double> latency_ms;
  for (std::size_t i = begin; i < end; ++i) {
    const Slot& slot = slots[i];
    const Request& r = requests[i];
    result.attempt();
    std::string why;
    if (slot.done < 0) {
      why = " no terminal line";
    } else if (slot.error) {
      why = slot.refused ? " refused (overloaded)" : " error response";
    } else if (r.kind == Kind::kUnique) {
      why = check_statics(r.bench, slot);
    } else if (s.reference.at(r.line) != slot.hash) {
      why = " response bytes differ from the first answer";
    }
    if (!why.empty()) result.fail("request " + std::to_string(i) + " (" + r.bench + "):" + why);
    latency_ms.push_back(why.empty() ? (slot.done - slot.due) * 1e3 : kFailedLatencyMs);
  }
  return latency_ms;
}

std::vector<double> lateness_ms(const std::vector<Slot>& slots, std::size_t begin,
                                std::size_t end) {
  std::vector<double> out;
  for (std::size_t i = begin; i < end; ++i) out.push_back((slots[i].sent - slots[i].due) * 1e3);
  return out;
}

void end_to_end(const Options& o, Result& result) {
  Served s;
  // A set-up takes tens of milliseconds: repeat it enough for a steady median.
  const double setup = timed_setups(o.smoke ? 1 : 11, [&] { prewarm(s, result); });

  const auto n = static_cast<std::size_t>(std::max(o.rate * o.seconds, o.smoke ? 20.0 : 1000.0));
  const std::vector<Request> requests = make_requests(o.seed, n);
  std::vector<Slot> slots(n);
  Tracer off(false);
  drive(*s.svc, requests, slots, 0, n, o.rate, off, nullptr);
  s.svc->drain();

  const std::vector<double> latency = check(s, requests, slots, 0, n, result);
  double last_done = slots.front().due;
  long long ok = 0;
  for (std::size_t i = 0; i < n; ++i) {
    last_done = std::max(last_done, slots[i].done);
    if (latency[i] < kFailedLatencyMs) ++ok;
  }
  const std::string count = std::to_string(n);
  result.set("setup_s", setup, "s",
             "median of set-ups: service start, pre-warm of the built-in plans");
  result.set("ops_per_s", static_cast<double>(ok) / (last_done - slots.front().due), "1/s",
             "req_per_s: " + std::to_string(ok) + " completed of " + count + " offered at " +
                 std::to_string(o.rate) + "/s");
  result.set("op_p50_ms", median(latency), "ms", "req_p50_ms, due to done, n=" + count);
  // Bursts of host noise land in whichever seconds they hit; the median
  // over 2-second windows of each window's p99 keeps one burst from moving
  // the whole run's tail. The whole-run p99 is printed beside it.
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = static_cast<std::size_t>((slots[i].due - slots.front().due) / 2.0);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency[i]);
  }
  std::vector<double> window_p99;
  for (const std::vector<double>& w : windows) window_p99.push_back(quantile(w, 0.99));
  result.set("op_tail_ms", median(window_p99), "ms",
             "req_p99_ms: median over " + std::to_string(windows.size()) +
                 " 2-s windows of the window p99; whole-run p99 " +
                 std::to_string(quantile(latency, 0.99)) + " ms, n=" + count);
  result.say("loadgen late p99 " + std::to_string(quantile(lateness_ms(slots, 0, n), 0.99)) +
             " ms");
}

void traced(const Options& o, Result& result, Tracer& tracer) {
  Served s;
  prewarm(s, result);
  serve::Service& svc = *s.svc;
  const double rss_after_prewarm = current_rss_mb();

  // Untraced, then traced, at the same rate: the latency difference is the
  // tracing overhead.
  const auto n_a = static_cast<std::size_t>(std::max(o.rate * o.seconds / 3, 10.0));
  const auto n_b = static_cast<std::size_t>(std::max(o.rate * o.seconds * 2 / 3, 20.0));
  const std::vector<Request> requests = make_requests(o.seed, n_a + n_b);
  std::vector<Slot> slots(n_a + n_b);
  Tracer off(false);
  drive(svc, requests, slots, 0, n_a, o.rate, off, nullptr);
  const std::vector<double> untraced = check(s, requests, slots, 0, n_a, result);

  Flight flight;
  flight.first = static_cast<long long>(svc.flight_recorder()->recorded());
  const json::Value cache_before = svc.stats_json().at("plan_cache");
  const long long messages_before = svc.registry().counter("sim.messages");
  const long long dynamic_before = svc.registry().counter("sim.communications");
  const std::size_t mark = tracer.size();
  drive(svc, requests, slots, n_a, n_a + n_b, o.rate, tracer, &flight);
  const std::vector<double> latency = check(s, requests, slots, n_a, n_a + n_b, result);
  const json::Value cache = svc.stats_json().at("plan_cache");
  const double rss_end = current_rss_mb();
  report_overhead(result, median(untraced), median(latency));

  const double ops = static_cast<double>(n_b);
  const auto captured = static_cast<double>(std::max<std::size_t>(1, flight.exec_ms.size()));
  const auto phase = [&](const char* path) {
    const auto it = flight.phase_ms.find(path);
    return it == flight.phase_ms.end() ? 0.0 : it->second / captured;
  };
  const auto phase_count = [&](const char* path) {
    const auto it = flight.phase_count.find(path);
    return it == flight.phase_count.end() ? 0.0 : static_cast<double>(it->second);
  };
  const char* kFrontend = "parse/frontend";
  const char* kPlanning = "plan/plan_communication";
  const char* kRun = "sim/driver/run_experiment";
  const std::vector<double> late = lateness_ms(slots, n_a, n_a + n_b);
  const double admit_ms = tracer.self_by_name(mark)["serve.admit"] * 1e3 / ops;
  const double queue_ms = mean(flight.queue_wait_ms);
  const double exec_ms = mean(flight.exec_ms);
  const double roots = phase("parse") + phase("plan") + phase("sim");

  // The per-request ledger: due -> sent -> admitted -> picked up ->
  // executed (parse / plan / sim phases) -> done.
  std::map<std::string, double> layer_ms;
  layer_ms["loadgen"] = mean(late);
  layer_ms["serve"] = admit_ms + queue_ms + (exec_ms - roots) + (phase("parse") - phase(kFrontend));
  layer_ms["parser"] = phase(kFrontend);
  layer_ms["comm"] = phase(kPlanning);
  // The plan phase's self time is cache lookups plus rendering and
  // emitting the plan lines; the flight phases do not split them.
  layer_ms["exec/render"] = phase("plan") - phase(kPlanning);
  layer_ms["sim"] = phase(kRun);
  layer_ms["driver"] = phase("sim") - phase(kRun);
  report_ledger(result, layer_ms, mean(latency));

  long long static_planned = 0;
  long long refused = 0;
  long long report_bytes = 0;
  long long reports = 0;
  for (std::size_t i = n_a; i < n_a + n_b; ++i) {
    if (requests[i].kind == Kind::kUnique) {
      for (const auto& [experiment, count] : slots[i].statics) static_planned += count;
    }
    refused += slots[i].refused ? 1 : 0;
    report_bytes += slots[i].report_bytes;
    reports += slots[i].reports;
  }
  const auto delta = [&](const char* key) {
    return cache.at(key).number - cache_before.at(key).number;
  };
  const double lookups = delta("hits") + delta("misses");
  const double messages =
      static_cast<double>(svc.registry().counter("sim.messages") - messages_before);
  const std::string per_req = "mean per request over " +
                              std::to_string(flight.exec_ms.size()) + " flight entries";

  result.set("bench.ops", ops, "count", "traced requests");
  result.set("parser.parse_ms", phase(kFrontend), "ms", per_req);
  result.set("parser.calls", phase_count(kFrontend), "count", "in flight entries");
  result.set("comm.plan_ms", phase(kPlanning), "ms", per_req);
  result.set("comm.plans", phase_count(kPlanning), "count", "in flight entries");
  result.set("comm.static_count", static_cast<double>(static_planned), "count",
             "plan lines of unique-source requests");
  result.set("exec.cache_lookups", lookups, "count");
  result.set("exec.cache_hit_ratio", lookups > 0 ? delta("hits") / lookups : 0.0, "ratio",
             "of " + std::to_string(static_cast<long long>(lookups)) + " lookups");
  result.set("exec.cache_evictions", delta("evictions"), "count");
  result.set("exec.cache_bytes", cache.at("bytes").number, "bytes", "at exit");
  result.set("sim.alloc_ms", phase("sim/driver/run_experiment/sim/alloc"), "ms", per_req);
  result.set("sim.run_ms", phase("sim/driver/run_experiment/sim/run"), "ms", per_req);
  result.set("sim.messages", messages, "count");
  result.set("sim.dynamic_count",
             static_cast<double>(svc.registry().counter("sim.communications") - dynamic_before),
             "count");
  result.set("sim.ns_per_msg",
             messages > 0 ? phase("sim/driver/run_experiment/sim/run") * ops * 1e6 / messages : 0.0,
             "ns",
             "sim/run time / " + std::to_string(static_cast<long long>(messages)) + " messages");
  result.set("driver.report_ms", phase("sim") - phase(kRun), "ms", per_req);
  result.set("driver.report_kb",
             reports > 0 ? static_cast<double>(report_bytes) / 1024.0 / static_cast<double>(reports)
                         : 0.0,
             "KiB", "mean report line, n=" + std::to_string(reports));
  result.set("serve.admit_us", admit_ms * 1e3, "us", "mean handle_line time");
  result.set("serve.queue_wait_ms", queue_ms, "ms", per_req);
  result.set("serve.exec_ms", exec_ms, "ms", per_req);
  result.set("serve.refused", static_cast<double>(refused), "count");
  result.set("serve.cache_entries", cache.at("entries").number, "count",
             std::to_string(static_cast<long long>(cache.at("bytes").number)) + " bytes at exit");
  result.set("serve.rss_growth_mb", rss_end - rss_after_prewarm, "MiB",
             "VmRSS at exit minus after pre-warm");
  result.set("serve.flight_coverage", static_cast<double>(flight.exec_ms.size()) / ops, "ratio",
             "flight entries captured of " + std::to_string(n_b) + " requests");
  result.set("loadgen.late_p99_ms", quantile(late, 0.99), "ms");
  result.set("loadgen.sent", ops, "count", "at " + std::to_string(o.rate) + "/s");
}

}  // namespace

void run_serve_mix(const Options& options, Result& result, Tracer& tracer) {
  if (options.rate <= 0) throw zc::Error("serve_mix needs --rate");
  if (options.trace) {
    traced(options, result, tracer);
  } else {
    end_to_end(options, result);
  }
}

}  // namespace pb
