// tables64: the paper's appendix grid — 4 benchmarks x 6 Figure 9
// experiments at 64 processors, bench scale — as someone reproducing the
// tables runs it: exec::run_sweep with jobs = 2 and a fresh PlanCache per
// pass, passes back to back (closed loop). The grid is the paper's, in
// paper order, so this workload has no seeded input: a seeded submission
// order would change the pool's schedule, and with it the timings.
//
// run_sweep offers no seam between layers, so the traced run drives the
// same 24 cells through the layer entry points on one thread (PlanCache,
// sim::compile_sim, sim::Engine construction, Engine::run) and adds one
// timed run_sweep pass for the pool's numbers.
#include "pipebench/src/harness.h"
#include "src/driver/driver.h"
#include "src/exec/sweep.h"
#include "src/sim/bytecode.h"
#include "src/support/metrics.h"

namespace pb {

namespace {

namespace exec = zc::exec;
namespace sim = zc::sim;

constexpr int kProcs = 64;
constexpr int kJobs = 2;

/// The bench-scale problem sizes (bench::scale_for's default in bench/:
/// the paper's spatial sizes with fewer iterations).
std::map<std::string, long long> bench_scale(const std::string& bench) {
  static const std::map<std::string, std::map<std::string, long long>> scales = {
      {"tomcatv", {{"n", 128}, {"iters", 30}}},
      {"swm", {{"n", 512}, {"iters", 6}}},
      {"simple", {{"n", 256}, {"iters", 8}}},
      {"sp", {{"n", 16}, {"iters", 30}}},
  };
  return scales.at(bench);
}

struct Cell {
  std::string bench;
  zc::driver::Experiment experiment;
  std::string label;  ///< "tomcatv/pl with shmem/p64"
};

struct Grid {
  std::map<std::string, std::shared_ptr<const zir::Program>> programs;
  std::vector<Cell> cells;  ///< in paper order
  std::vector<exec::SweepItem> items;
};

Grid make_grid() {
  Grid g;
  for (const std::string& bench : bench_names()) {
    g.programs[bench] = parse_bench(bench);
    for (const zc::driver::Experiment& e : zc::driver::paper_experiments()) {
      g.cells.push_back({bench, e, bench + "/" + e.name + "/p" + std::to_string(kProcs)});
    }
  }
  for (const Cell& c : g.cells) {
    exec::SweepItem item;
    item.label = c.label;
    item.program = g.programs.at(c.bench);
    item.experiment = c.experiment;
    item.procs = kProcs;
    item.config_overrides = bench_scale(c.bench);
    g.items.push_back(std::move(item));
  }
  return g;
}

/// The paper's premise: rr / cc / pl never change results. Every
/// experiment's array checksums must equal the baseline's.
void check_against_baseline(Result& result, const std::vector<Cell>& cells,
                            const std::vector<const sim::RunResult*>& runs) {
  std::map<std::string, const sim::RunResult*> baseline;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].experiment.name == "baseline") baseline[cells[i].bench] = runs[i];
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::RunResult* base = baseline[cells[i].bench];
    if (runs[i] == nullptr || base == nullptr || runs[i] == base) continue;
    for (const auto& [array, value] : base->checksums) {
      const auto it = runs[i]->checksums.find(array);
      if (it == runs[i]->checksums.end() || !close_rel(it->second, value, 1e-9)) {
        result.fail(cells[i].label + ": array " + array + " differs from baseline");
      }
    }
  }
}

/// One untraced sweep pass; returns its wall seconds and appends each
/// task's wall seconds.
double sweep_pass(const Grid& g, Result& result, std::vector<double>* task_ms) {
  exec::PlanCache cache;
  exec::SweepOptions options;
  options.jobs = kJobs;
  options.plan_cache = &cache;
  const double t0 = now();
  const std::vector<exec::SweepResult> out = exec::run_sweep(g.items, options);
  const double wall = now() - t0;

  std::vector<const sim::RunResult*> runs(out.size(), nullptr);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!out[i].ok) {
      result.attempt();
      result.fail(g.cells[i].label + ": " + out[i].error);
      continue;
    }
    check_run(result, "tables64", g.cells[i].label, out[i].metrics.static_count,
              out[i].metrics.run);
    runs[i] = &out[i].metrics.run;
    if (task_ms != nullptr) task_ms->push_back(out[i].wall_seconds * 1e3);
  }
  check_against_baseline(result, g.cells, runs);
  return wall;
}

/// What the serial layer path saw, summed over passes.
struct SerialTotals {
  long long ops = 0;
  long long static_planned = 0;
  long long messages = 0;
  long long dynamic = 0;
  exec::PlanCacheStats cache;
};

/// One pass over the grid through the layer entry points, on this thread.
void serial_pass(const Grid& g, Result& result, Tracer& tracer, SerialTotals& totals) {
  exec::PlanCache cache;
  std::vector<sim::RunResult> runs(g.cells.size());
  for (std::size_t i = 0; i < g.cells.size(); ++i) {
    const Cell& c = g.cells[i];
    const zir::Program& program = *g.programs.at(c.bench);
    const auto id = static_cast<long long>(i);

    std::shared_ptr<const zc::comm::CommPlan> plan;
    {
      Scope s(tracer, "exec.lookup", id);
      const long long misses = cache.stats().misses;
      plan = cache.get_or_plan(program, c.experiment.opts, g.items[i].machine.name);
      if (cache.stats().misses != misses) {
        s.rename("comm.plan");  // a miss is a planning run
        totals.static_planned += plan->static_count();
      }
    }
    sim::RunConfig config;
    config.machine = g.items[i].machine;
    config.library = c.experiment.library;
    config.procs = kProcs;
    config.config_overrides = g.items[i].config_overrides;
    {
      // Engine::run compiles internally; this separate call prices it.
      Scope s(tracer, "sim.compile", id);
      zir::IntEnv env = program.default_env();
      for (const auto& [name, value] : config.config_overrides) {
        env.config_values[program.find_config(name).index()] = value;
      }
      const sim::CompiledSim compiled = sim::compile_sim(program, *plan, env, config.machine);
    }
    std::unique_ptr<sim::Engine> engine;
    {
      Scope s(tracer, "sim.alloc", id);
      engine = std::make_unique<sim::Engine>(program, *plan, std::move(config));
    }
    {
      Scope s(tracer, "sim.run", id);
      runs[i] = engine->run();
    }
    {
      Scope s(tracer, "sim.free", id);
      engine.reset();
    }
    check_run(result, "tables64", c.label, plan->static_count(), runs[i]);
    totals.messages += runs[i].total_messages;
    totals.dynamic += runs[i].dynamic_count;
    ++totals.ops;
  }
  std::vector<const sim::RunResult*> ptrs;
  for (const sim::RunResult& r : runs) ptrs.push_back(&r);
  check_against_baseline(result, g.cells, ptrs);

  const exec::PlanCacheStats s = cache.stats();
  totals.cache.hits += s.hits;
  totals.cache.misses += s.misses;
  totals.cache.evictions += s.evictions;
  totals.cache.entries = s.entries;
  totals.cache.bytes = s.bytes;
}

void end_to_end(const Options& o, Result& result) {
  Grid grid;
  const double setup = timed_setups(o.smoke ? 1 : 3, [&] {
    grid = make_grid();
    sweep_pass(grid, result, nullptr);  // warm-up: first-touch and allocator growth
  });

  std::vector<double> pass_rates;
  std::vector<double> pass_mean_ms;
  std::vector<double> task_ms;
  const double start = now();
  while (pass_rates.empty() || now() - start < o.seconds) {
    const std::size_t first = task_ms.size();
    const double wall = sweep_pass(grid, result, &task_ms);
    pass_rates.push_back(static_cast<double>(grid.items.size()) / wall);
    pass_mean_ms.push_back(
        mean(std::vector<double>(task_ms.begin() + static_cast<long>(first), task_ms.end())));
  }
  const std::string n = std::to_string(task_ms.size());
  result.set("setup_s", setup, "s", "median of set-ups: parse, grid, one warm-up pass");
  result.set("ops_per_s", median(pass_rates), "1/s",
             "runs_per_s: median over " + std::to_string(pass_rates.size()) + " passes of " +
                 std::to_string(grid.items.size()) + " verified runs");
  // The 24 cells differ in cost, so a plain p50 would sit on the boundary
  // between two cells; the median pass's mean run latency is steady.
  result.set("op_p50_ms", median(pass_mean_ms), "ms",
             "mean run (plan + sim) latency of the median pass");
  result.set("op_tail_ms", quantile(task_ms, 0.9), "ms", "p90 run latency, n=" + n);
}

void traced(const Options& o, Result& result, Tracer& tracer) {
  const Grid grid = make_grid();
  sweep_pass(grid, result, nullptr);  // warm-up

  // The same serial path with spans off and on, pass by pass in ABBA order:
  // the difference is the tracing overhead, and alternating keeps host
  // drift and order effects out of it.
  Tracer off(false);
  SerialTotals untraced;
  serial_pass(grid, result, off, untraced);  // warm-up of this thread's heap
  untraced = {};
  SerialTotals t;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const std::size_t mark = tracer.size();
  const double start = now();
  for (int k = 0; t.ops == 0 || now() - start < o.seconds; ++k) {
    for (const bool on : {k % 2 == 1, k % 2 == 0}) {
      const double t0 = now();
      serial_pass(grid, result, on ? tracer : off, on ? t : untraced);
      (on ? traced_s : untraced_s) += now() - t0;
    }
  }
  const double traced_ms = traced_s * 1e3 / static_cast<double>(t.ops);
  report_overhead(result, untraced_s * 1e3 / static_cast<double>(untraced.ops), traced_ms);

  const double ops = static_cast<double>(t.ops);
  std::map<std::string, double> layer_ms;
  for (const auto& [layer, seconds] : tracer.self_by_layer(mark)) {
    layer_ms[layer] = seconds * 1e3 / ops;
  }
  report_ledger(result, layer_ms, traced_ms);

  const std::map<std::string, double> self = tracer.self_by_name(mark);
  const auto self_ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second * 1e3 / ops;
  };
  const std::string per_op = "mean per run, n=" + std::to_string(t.ops);
  result.set("bench.ops", ops, "count", "serially traced runs");
  result.set("comm.plan_ms", self_ms("comm.plan"), "ms", per_op);
  result.set("comm.plans", static_cast<double>(t.cache.misses), "count", "cache misses");
  result.set("comm.static_count", static_cast<double>(t.static_planned), "count",
             "summed over planned plans");
  result.set("exec.cache_lookups", static_cast<double>(t.cache.lookups()), "count",
             "fresh cache per pass");
  result.set("exec.cache_hit_ratio", t.cache.hit_rate(), "ratio",
             "of " + std::to_string(t.cache.lookups()) + " lookups");
  result.set("exec.cache_evictions", static_cast<double>(t.cache.evictions), "count");
  result.set("exec.cache_bytes", static_cast<double>(t.cache.bytes), "bytes",
             std::to_string(t.cache.entries) + " entries after a pass");
  result.set("sim.compile_ms", self_ms("sim.compile"), "ms", per_op);
  result.set("sim.alloc_ms", self_ms("sim.alloc"), "ms", per_op);
  result.set("sim.run_ms", self_ms("sim.run"), "ms", per_op);
  result.set("sim.messages", static_cast<double>(t.messages), "count");
  result.set("sim.dynamic_count", static_cast<double>(t.dynamic), "count");
  result.set("sim.ns_per_msg",
             t.messages > 0 ? self_ms("sim.run") * ops * 1e6 / static_cast<double>(t.messages)
                            : 0.0,
             "ns", "sim.run time / " + std::to_string(t.messages) + " messages");

  // One timed run_sweep pass for the pool's numbers.
  zc::metrics::Registry registry;
  std::vector<double> task_ms;
  double sweep_s = 0.0;
  {
    const zc::metrics::ScopedRegistry scoped(registry);
    Scope s(tracer, "exec.sweep");
    sweep_s = sweep_pass(grid, result, &task_ms);
  }
  double task_sum_ms = 0.0;
  for (const double ms : task_ms) task_sum_ms += ms;
  result.set("exec.sweep_ms", sweep_s * 1e3, "ms", "one run_sweep pass, jobs=2");
  result.set("exec.task_ms_sum", task_sum_ms, "ms",
             "summed over " + std::to_string(task_ms.size()) + " tasks");
  result.set("exec.pool_idle_frac", 1.0 - task_sum_ms / (kJobs * sweep_s * 1e3), "ratio",
             "1 - task time / (jobs x sweep wall)");
  result.set("exec.steals", static_cast<double>(registry.counter("exec.pool.steals")), "count",
             "of " + std::to_string(task_ms.size()) + " tasks");
}

}  // namespace

void run_tables64(const Options& options, Result& result, Tracer& tracer) {
  if (options.trace) {
    traced(options, result, tracer);
  } else {
    end_to_end(options, result);
  }
}

}  // namespace pb
