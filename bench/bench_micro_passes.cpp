// Microbenchmarks of the compiler and simulator infrastructure itself:
// parsing, communication planning (per pass), geometry primitives, and a
// small end-to-end simulation step — these measure OUR code's speed, not
// the paper's machines.
//
// Two layers:
//
//   * the google-benchmark micros (--benchmark_* flags pass through), kept
//     for interactive profiling of individual passes;
//   * a phase-split section that times the pipeline's three phases — plan
//     (comm optimization), sim (the engine run), analysis (trace stats +
//     blame + critical path on a traced run) — and writes them to
//     BENCH_micro_passes.json through the shared envelope writer;
//     `zcomm_bench check` trend-gates each phase's median_ns per host class.
//
// The phase-split workload is a jacobi-style stencil with a scalar-heavy
// loop body, an inner loop of single-cell "control point" updates, and no
// global reduction, on a deliberately overdecomposed mesh (--procs
// processors on a 32x32 interior): per-statement scheduling overhead
// dominates per-element arithmetic there, which is exactly the regime the
// event-driven engine exists for. Its deferred-bump log and precomputed
// active-processor lists make scalar statements, loop bookkeeping and
// single-cell region statements O(1) / O(active) rather than O(procs).
// Reductions are deliberately absent: they cost O(procs) by their semantics
// (every processor contributes a combine and a barrier stage), so they would
// only dilute what the sim phase measures.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/analysis/blame.h"
#include "src/analysis/critpath.h"
#include "src/comm/optimizer.h"
#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/runtime/layout.h"
#include "src/sim/engine.h"
#include "src/support/json.h"
#include "src/trace/stats.h"

namespace {

using namespace zc;

void BM_ParseTomcatv(benchmark::State& state) {
  const auto& src = programs::benchmark("tomcatv").source;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser::parse_program(src));
  }
}
BENCHMARK(BM_ParseTomcatv);

void BM_ParseSp(benchmark::State& state) {
  const auto& src = programs::benchmark("sp").source;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser::parse_program(src));
  }
}
BENCHMARK(BM_ParseSp);

void BM_PlanCommunication(benchmark::State& state) {
  const zir::Program p = parser::parse_program(programs::benchmark("simple").source);
  const auto level = static_cast<comm::OptLevel>(state.range(0));
  const comm::OptOptions opts = comm::OptOptions::for_level(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm::plan_communication(p, opts));
  }
}
BENCHMARK(BM_PlanCommunication)->DenseRange(0, 3);  // baseline..pl

void BM_GenerateTransfers(benchmark::State& state) {
  const zir::Program p = parser::parse_program(programs::benchmark("simple").source);
  const auto blocks = comm::find_blocks(p);
  for (auto _ : state) {
    for (const comm::Block& b : blocks) {
      benchmark::DoNotOptimize(comm::generate_transfers(p, b));
    }
  }
}
BENCHMARK(BM_GenerateTransfers);

void BM_BoxSubtract(benchmark::State& state) {
  const rt::Box a = rt::Box::make(2, {0, 0, 0}, {63, 63, 0});
  const rt::Box b = rt::Box::make(2, {1, 1, 0}, {64, 64, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.subtract(a));
  }
}
BENCHMARK(BM_BoxSubtract);

void BM_EngineJacobiStep(benchmark::State& state) {
  const zir::Program p = parser::parse_program(programs::kernel_source("jacobi"));
  const comm::CommPlan plan =
      comm::plan_communication(p, comm::OptOptions::for_level(comm::OptLevel::kPL));
  for (auto _ : state) {
    sim::RunConfig cfg;
    cfg.procs = static_cast<int>(state.range(0));
    cfg.config_overrides = {{"n", 64}, {"iters", 2}};
    benchmark::DoNotOptimize(sim::run_program(p, plan, cfg));
  }
}
BENCHMARK(BM_EngineJacobiStep)->Arg(1)->Arg(16)->Arg(64);

// ---------------------------------------------------------------------------
// Phase split.

struct Phase {
  std::string name;
  std::vector<double> ns;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double pct(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * (static_cast<double>(v.size()) - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

template <typename F>
void sample(Phase& phase, int samples, F&& body) {
  for (int s = 0; s < samples; ++s) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    phase.ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
}

/// The scheduling-bound workload (see the header comment): one boundary
/// exchange and two small array assigns per iteration, surrounded by the
/// scalar statements and loop bookkeeping whose per-processor cost the
/// event core amortizes away.
constexpr std::string_view kSchedSource = R"zpl(
program sched;

config n     : integer = 32;
config iters : integer = 64;
config probe : integer = 8;

region R = [0..n+1, 0..n+1];
region I = [1..n, 1..n];

direction east = [0, 1], west = [0, -1], north = [-1, 0], south = [1, 0];

var A, B : [R] double;
var w, damp, relax, t, bias, gain : double;

procedure main() {
  [R] A := 0.0;
  [R] B := 0.0;
  [0..n+1, 0] A := 1.0;
  [0, 0..n+1] A := 1.0;
  w := 0.25;
  damp := 1.0;
  relax := 1.9;
  bias := 0.0;
  for it in 1..iters {
    damp := damp * 0.999;
    relax := relax * 0.9995;
    t := damp * relax;
    gain := t * (2.0 - t);
    bias := bias + 0.001 * gain;
    gain := gain * (1.0 - 0.0001 * bias);
    t := t + gain * 0.5;
    relax := relax + 0.0001 * (2.0 - relax);
    w := 0.25 * damp + 0.0 * bias + 0.0 * t;
    -- Control-cell pokes: single-element static regions, active on exactly
    -- one processor. The engine's cached active list makes each O(1)
    -- instead of a scan over every processor.
    for k in 1..probe {
      [0, 0] A := A + 0.0 * w;
      [0, n+1] A := A + 0.0 * t;
      [n+1, 0] A := A + 0.0 * gain;
      [n+1, n+1] A := A + 0.0 * bias;
    }
    [I] B := w * (A@east + A@west + A@north + A@south);
    [I] A := B;
  }
}
)zpl";

void run_phase_split(const bench::Options& options) {
  constexpr long long kN = 32;
  constexpr long long kIters = 64;
  const zir::Program p = parser::parse_program(kSchedSource);
  const comm::OptOptions opts = comm::OptOptions::for_level(comm::OptLevel::kPL);
  constexpr long long kProbe = 32;
  const std::map<std::string, long long> configs = {
      {"n", kN}, {"iters", kIters}, {"probe", kProbe}};

  sim::RunConfig cfg;
  cfg.procs = options.procs;
  cfg.config_overrides = configs;

  // Phase 1: communication planning (pure compiler work, engine-free).
  Phase plan_phase{"sched/plan", {}};
  sample(plan_phase, 16, [&] { benchmark::DoNotOptimize(comm::plan_communication(p, opts)); });
  const comm::CommPlan plan = comm::plan_communication(p, opts);

  // Phase 2: simulation. Every sample must compute the same answer.
  const int sim_samples = options.procs >= 1024 ? 3 : 5;
  std::vector<std::uint64_t> sums;
  Phase sim_phase{"sched/sim", {}};
  sample(sim_phase, sim_samples,
         [&] { sums.push_back(exec::result_checksum(sim::run_program(p, plan, cfg))); });

  // Phase 3: post-run analysis on a traced run (exact aggregates,
  // per-group blame, critical-path walk). Tracing must not perturb the run.
  trace::Recorder recorder(options.procs);
  sim::RunConfig traced = cfg;
  traced.recorder = &recorder;
  sums.push_back(exec::result_checksum(sim::run_program(p, plan, traced)));
  Phase analysis_phase{"sched/analysis", {}};
  sample(analysis_phase, 8, [&] {
    benchmark::DoNotOptimize(trace::compute_stats(recorder));
    benchmark::DoNotOptimize(analysis::compute_blame(recorder, p, plan));
    benchmark::DoNotOptimize(analysis::compute_critical_path(recorder, p, plan));
  });

  std::printf("\nphase split (sched, n=%lld, iters=%lld, procs=%d):\n", kN, kIters,
              options.procs);
  for (const Phase* ph : {&plan_phase, &sim_phase, &analysis_phase}) {
    std::printf("  %-22s %10.2f ms  (p10 %.2f, p90 %.2f, %zu samples)\n", ph->name.c_str(),
                median(ph->ns) / 1e6, pct(ph->ns, 0.1) / 1e6, pct(ph->ns, 0.9) / 1e6,
                ph->ns.size());
  }
  if (!std::all_of(sums.begin(), sums.end(), [&](std::uint64_t s) { return s == sums.front(); })) {
    std::printf("FAIL: phase-split runs disagree across samples or with tracing on\n");
    std::exit(1);
  }
  std::printf("determinism: phase-split checksums identical across samples and traced\n");

  json::Value results = json::Value::make_array();
  for (const Phase* ph : {&plan_phase, &sim_phase, &analysis_phase}) {
    json::Value r = json::Value::make_object();
    r["name"] = json::Value::make_str(ph->name);
    json::Value params = json::Value::make_object();
    params["procs"] = json::Value::make_int(options.procs);
    params["n"] = json::Value::make_int(kN);
    params["iters"] = json::Value::make_int(kIters);
    r["params"] = std::move(params);
    r["median_ns"] = json::Value::make_num(median(ph->ns));
    r["p10_ns"] = json::Value::make_num(pct(ph->ns, 0.1));
    r["p90_ns"] = json::Value::make_num(pct(ph->ns, 0.9));
    r["samples"] = json::Value::make_int(static_cast<long long>(ph->ns.size()));
    results.push_back(std::move(r));
  }
  json::Value doc = json::Value::make_object();
  doc["schema"] = json::Value::make_str("zcomm-bench-perf");
  doc["bench"] = json::Value::make_str(options.bench_name);
  doc["results"] = std::move(results);
  bench::write_bench_json(doc, options);
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark consumes its own --benchmark_* flags; the shared bench
  // flag parser ignores anything starting with --benchmark, so both see the
  // full command line without conflict.
  benchmark::Initialize(&argc, argv);
  const bench::Options options = bench::parse_options(argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  run_phase_split(options);
  return 0;
}
