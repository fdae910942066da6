// The price of every telemetry sink the toolchain can attach, as one
// table. Each row runs the work the sink observes with the sink off and
// on, and every row goes through the same paired method,
// bench::measure_paired: seven reps that interleave the two arms op by op,
// each arm's min-of-means, and up to three attempts for a gated row over
// its bound.
//
// Rows are timed on the CPU clock of the thread that does the work
// (CLOCK_THREAD_CPUTIME_ID), so time the thread spends preempted by other
// processes does not count. The serve row's work runs on a service's
// worker thread, which reads its own clock at two seams: when it picks a
// request up (ServiceOptions::on_job_start) and when it emits the
// request's terminal line, after all of the request's telemetry. The
// compared quantity is in-worker CPU time per request; the wake-ups
// between requests, whose cost depends on where the scheduler puts the
// client and the worker, stay out of it.
//
//   trace      jacobi/pl engine run, recorder off vs on
//   timeline   jacobi/pl engine run, timeline sink off vs on   gate <= 5%
//   prof_span  an empty loop vs a profiler span with nothing attached
//   prof_run   jacobi/pl engine run, unprofiled vs profiled
//   blame      a traced jacobi/pl run vs the same run plus blame, the
//              critical path and a blame diff against the baseline plan
//   serve      warm plan-mode requests to one single-worker service per
//              arm, telemetry (info logging + flight recorder and its
//              per-request profiler) off vs on               gate <= 5%
//
// jacobi runs at n=64 iters=4 on --procs processors. The recorder, the
// timeline sink and the profiler must also leave the run's results
// bit-identical. Exit status: bit-identity AND every gate AND no failed
// serve request. Writes BENCH_observability_cost.json.
#include <benchmark/benchmark.h>

#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/serve_load.h"
#include "src/analysis/blame.h"
#include "src/analysis/critpath.h"
#include "src/analysis/diff.h"
#include "src/comm/optimizer.h"
#include "src/exec/plan_cache.h"
#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/prof/prof.h"
#include "src/serve/service.h"
#include "src/sim/engine.h"
#include "src/support/json.h"
#include "src/support/log.h"
#include "src/support/str.h"
#include "src/trace/recorder.h"
#include "src/tseries/tseries.h"

namespace {

using namespace zc;

constexpr int kRunsPerRep = 30;
constexpr int kSpansPerOp = 100000;
constexpr int kSpanOpsPerRep = 10;
constexpr int kRequestsPerRep = 2000;

/// Calling-thread CPU seconds `work` takes.
template <typename Work>
double cpu_time(const Work& work) {
  const double t0 = bench::thread_cpu_seconds();
  work();
  return bench::thread_cpu_seconds() - t0;
}

struct Row {
  std::string name;
  std::string unit;
  double scale = 1.0;      ///< seconds per op -> unit
  double gate_pct = -1.0;  ///< < 0: ungated
  bench::Paired result;
};

Row price(const std::string& name, const std::string& unit, double scale, double gate_pct,
          int ops_per_rep, const std::function<double(bool on)>& op) {
  const double max_ratio = gate_pct < 0.0 ? std::numeric_limits<double>::infinity()
                                          : 1.0 + gate_pct / 100.0;
  return {name, unit, scale, gate_pct, bench::measure_paired(name, ops_per_rep, op, max_ratio)};
}

/// A warm plan-mode service with one worker, flight recorder on or off.
/// The worker reads its own CPU clock when it picks a request up and at
/// each line it emits; the last line is the terminal one, which follows
/// all of the request's telemetry. Requests run one at a time, and the
/// DoneWaiter's lock orders the worker's writes before request() reads
/// them.
struct ServeArm {
  ServeArm(bool observed, int procs)
      : line(bench::optimize_line(bench::serve_source("warmprog"), /*run=*/false, procs)) {
    serve::ServiceOptions sopts;
    sopts.jobs = 1;
    sopts.plan_cache = &cache;
    sopts.flight_capacity = observed ? 16 : 0;
    sopts.on_job_start = [this] { job_start = bench::thread_cpu_seconds(); };
    service.emplace(sopts);
    request();  // untimed: fills the program and plan caches
  }
  ServeArm(const ServeArm&) = delete;
  ServeArm& operator=(const ServeArm&) = delete;

  /// Worker CPU seconds inside one request.
  double request() {
    service->handle_line("client", line, emit);
    if (!waiter.wait()) ++failures;
    return last_line - job_start;
  }

  exec::PlanCache cache;
  bench::DoneWaiter waiter;
  double job_start = 0.0;
  double last_line = 0.0;
  long long failures = 0;
  const std::string line;
  const serve::Service::Emit emit = [this, done = waiter.emit()](const std::string& l) {
    last_line = bench::thread_cpu_seconds();
    done(l);
  };
  std::optional<serve::Service> service;  // last: its worker uses the members above
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::parse_options(argc, argv);
  const int procs = options.procs;

  const zir::Program program = parser::parse_program(programs::kernel_source("jacobi"));
  const comm::CommPlan plan = comm::plan_communication(
      program, comm::OptOptions::for_level(comm::OptLevel::kPL));
  sim::RunConfig base;
  base.procs = procs;
  base.config_overrides = {{"n", 64}, {"iters", 4}};
  const auto run = [&](const sim::RunConfig& cfg) {
    return sim::run_program(program, plan, cfg);
  };

  std::cout << "== Observability cost: every telemetry sink, priced one way ==\n"
            << "jacobi/pl n=64 iters=4 at procs=" << procs
            << "; serve: warm plan-mode requests, jobs=1\n"
            << "thread CPU time (serve: the worker's); min-of-means over reps that "
               "interleave the arms\n\n";

  // Attaching a sink must not change the simulation.
  const std::uint64_t untouched = exec::result_checksum(run(base));
  bool identical = true;
  {
    trace::Recorder recorder(procs);
    tseries::SimSeries series(procs);
    sim::RunConfig cfg = base;
    cfg.recorder = &recorder;
    identical = identical && exec::result_checksum(run(cfg)) == untouched;
    cfg = base;
    cfg.timeline = &series;
    identical = identical && exec::result_checksum(run(cfg)) == untouched;
    prof::Profiler profiler;
    prof::Attach attach(&profiler);
    identical = identical && exec::result_checksum(run(base)) == untouched;
  }
  std::cout << (identical ? "determinism: results bit-identical with the recorder, the "
                            "timeline sink and the profiler attached\n"
                          : "determinism: FAILED — an attached sink changed the results\n");

  std::vector<Row> rows;
  rows.push_back(price("trace", "us/run", 1e6, -1.0, kRunsPerRep, [&](bool on) {
    return cpu_time([&] {
      if (!on) {
        benchmark::DoNotOptimize(run(base));
        return;
      }
      trace::Recorder recorder(procs);
      sim::RunConfig traced = base;
      traced.recorder = &recorder;
      benchmark::DoNotOptimize(run(traced));
    });
  }));
  {
    // One series for the whole row: its windows fold across runs, the
    // shape of a long-lived sink.
    tseries::SimSeries series(procs);
    sim::RunConfig observed = base;
    observed.timeline = &series;
    rows.push_back(price("timeline", "us/run", 1e6, 5.0, kRunsPerRep, [&](bool on) {
      return cpu_time([&] { benchmark::DoNotOptimize(run(on ? observed : base)); });
    }));
  }
  rows.push_back(
      price("prof_span", "ns/span", 1e9 / kSpansPerOp, -1.0, kSpanOpsPerRep, [&](bool on) {
        if (!on) {
          return cpu_time([] {
            for (int i = 0; i < kSpansPerOp; ++i) benchmark::ClobberMemory();
          });
        }
        return cpu_time([] {
          for (int i = 0; i < kSpansPerOp; ++i) {
            ZC_PROF_SPAN("off");
            benchmark::ClobberMemory();
          }
        });
      }));
  {
    prof::Profiler profiler;
    prof::Attach attach(&profiler);
    rows.push_back(price("prof_run", "us/run", 1e6, -1.0, kRunsPerRep, [&](bool on) {
      return cpu_time([&] {
        std::optional<prof::Attach> unprofiled;
        if (!on) unprofiled.emplace(nullptr);
        ZC_PROF_SPAN("run");
        benchmark::DoNotOptimize(run(base));
      });
    }));
  }
  {
    const comm::CommPlan baseline_plan = comm::plan_communication(
        program, comm::OptOptions::for_level(comm::OptLevel::kBaseline));
    trace::Recorder baseline_trace(procs);
    sim::RunConfig cfg = base;
    cfg.recorder = &baseline_trace;
    sim::run_program(program, baseline_plan, cfg);
    const analysis::BlameReport before =
        analysis::compute_blame(baseline_trace, program, baseline_plan);
    rows.push_back(price("blame", "us/run", 1e6, -1.0, kRunsPerRep, [&](bool on) {
      return cpu_time([&] {
        trace::Recorder recorder(procs);
        sim::RunConfig traced = base;
        traced.recorder = &recorder;
        benchmark::DoNotOptimize(run(traced));
        if (!on) return;
        const analysis::BlameReport after = analysis::compute_blame(recorder, program, plan);
        benchmark::DoNotOptimize(analysis::compute_critical_path(recorder, program, plan));
        benchmark::DoNotOptimize(analysis::diff_blame(before, after));
      });
    }));
  }
  // Observed requests log at the daemon's production level; the lines do
  // their full formatting and write work without reaching the bench output.
  if (!log::Logger::global().set_file("/dev/null")) {
    log::Logger::global().set_level(log::Level::kOff);
  }
  long long failures = 0;
  {
    ServeArm plain(/*observed=*/false, procs);
    ServeArm observed(/*observed=*/true, procs);
    rows.push_back(price("serve", "us/req", 1e6, 5.0, kRequestsPerRep, [&](bool on) {
      log::Logger::global().set_level(on ? log::Level::kInfo : log::Level::kOff);
      return (on ? observed : plain).request();
    }));
    failures = plain.failures + observed.failures;
  }
  log::Logger::global().set_level(log::Level::kOff);

  bool accept = identical && failures == 0;
  std::cout << "\n";
  for (const Row& r : rows) {
    const bench::Paired& p = r.result;
    std::cout << "row " << r.name << ": off " << str::format_f(p.off_s * r.scale, 3) << " "
              << r.unit << ", on " << str::format_f(p.on_s * r.scale, 3) << " " << r.unit
              << ", delta " << str::format_f((p.on_s - p.off_s) * r.scale, 3) << " "
              << r.unit << ", overhead " << str::format_f(p.overhead_pct(), 2) << "%, "
              << p.reps << " reps, ";
    if (r.gate_pct < 0.0) {
      std::cout << "ungated\n";
    } else {
      std::cout << "gate <= " << r.gate_pct << "%: " << (p.within ? "pass" : "FAILED")
                << "\n";
      accept = accept && p.within;
    }
  }
  if (failures > 0) std::cout << "serve request failures: " << failures << " (expected 0)\n";
  std::cout << (accept ? "acceptance: every gated row within its bound\n"
                       : "acceptance: FAILED\n");

  if (options.bench_json_path.has_value()) {
    json::Value doc = json::Value::make_object();
    doc["schema"] = json::Value::make_str("zcomm-bench-observability-cost");
    doc["bench"] = json::Value::make_str(options.bench_name);
    doc["procs"] = json::Value::make_int(procs);
    doc["bit_identical"] = json::Value::make_bool(identical);
    json::Value arr = json::Value::make_array();
    for (const Row& r : rows) {
      json::Value row = json::Value::make_object();
      row["row"] = json::Value::make_str(r.name);
      row["unit"] = json::Value::make_str(r.unit);
      row["off"] = json::Value::make_num(r.result.off_s * r.scale);
      row["on"] = json::Value::make_num(r.result.on_s * r.scale);
      row["overhead_pct"] = json::Value::make_num(r.result.overhead_pct());
      row["reps"] = json::Value::make_int(r.result.reps);
      if (r.gate_pct >= 0.0) {
        row["gate_pct"] = json::Value::make_num(r.gate_pct);
        row["within"] = json::Value::make_bool(r.result.within);
      }
      arr.push_back(std::move(row));
    }
    doc["rows"] = std::move(arr);
    bench::write_bench_json(doc, options);
    std::cout << "(wrote " << *options.bench_json_path << ")\n";
  }
  return accept ? 0 : 1;
}
