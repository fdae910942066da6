// explain1024: explaining a run at scale, as comm_explorer --blame
// --critical-path does. Round-robin over the 4 benchmarks under pl at 1024
// processors and test-scale configs, one serial closed loop of whole
// rounds. The seed fixes which benchmark the round-robin starts at.
//
// One explain is: a traced run whose recorder never drops a record,
// trace::compute_stats, analysis::compute_blame,
// analysis::compute_critical_path, then driver::build_report plus
// attach_attribution plus a JSON dump.
#include <limits>

#include "pipebench/src/harness.h"
#include "src/analysis/blame.h"
#include "src/analysis/critpath.h"
#include "src/driver/driver.h"
#include "src/driver/report.h"
#include "src/programs/programs.h"
#include "src/sim/bytecode.h"
#include "src/trace/stats.h"

namespace pb {

namespace {

namespace sim = zc::sim;
namespace trace = zc::trace;
namespace analysis = zc::analysis;

constexpr int kProcs = 1024;

struct Cell {
  std::string label;  ///< "tomcatv/pl/p1024"
  std::shared_ptr<const zir::Program> program;
  zc::comm::CommPlan plan;
  zc::driver::Experiment experiment;
  std::map<std::string, long long> configs;
};

std::vector<Cell> make_cells(unsigned long long seed) {
  const zc::driver::Experiment pl = *zc::driver::find_experiment("pl");
  std::vector<Cell> cells;
  const std::size_t n = bench_names().size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::string& bench = bench_names()[(seed + k) % n];
    Cell c;
    c.label = bench + "/pl/p" + std::to_string(kProcs);
    c.program = parse_bench(bench);
    c.plan = zc::comm::plan_communication(*c.program, pl.opts);
    c.experiment = pl;
    c.configs = zc::programs::benchmark(bench).test_configs;
    cells.push_back(std::move(c));
  }
  return cells;
}

sim::RunConfig config_for(const Cell& c, trace::Recorder* recorder) {
  sim::RunConfig config;
  config.library = c.experiment.library;
  config.procs = kProcs;
  config.config_overrides = c.configs;
  config.recorder = recorder;
  return config;
}

/// What the traced explains saw.
struct Totals {
  long long ops = 0;
  long long records = 0;
  long long dropped = 0;
  long long exact = 0;
  long long messages = 0;
  long long dynamic = 0;
  double report_kib = 0.0;
  std::map<std::size_t, std::vector<double>> run_ms;  ///< traced Engine::run, per cell
};

/// Everything one explain builds; released inside its own span.
struct Work {
  std::unique_ptr<trace::Recorder> recorder;
  std::unique_ptr<sim::Engine> engine;
  zc::driver::Metrics metrics;
  analysis::BlameReport blame;
  analysis::CriticalPathReport critical_path;
  zc::json::Value report;
  std::string text;
};

void explain(const Cell& c, long long id, Result& result, Tracer& tracer, Totals& t) {
  auto w = std::make_unique<Work>();
  {
    Scope s(tracer, "trace.alloc", id);
    trace::RecorderOptions sizing;  // sized so nothing drops
    sizing.max_events_per_proc = std::numeric_limits<std::size_t>::max();
    sizing.max_messages = std::numeric_limits<std::size_t>::max();
    w->recorder = std::make_unique<trace::Recorder>(kProcs, sizing);
  }
  sim::RunConfig config = config_for(c, w->recorder.get());
  if (tracer.on()) {
    // Engine::run compiles internally; this separate call prices it.
    Scope s(tracer, "sim.compile", id);
    zir::IntEnv env = c.program->default_env();
    for (const auto& [name, value] : c.configs) {
      env.config_values[c.program->find_config(name).index()] = value;
    }
    const sim::CompiledSim compiled = sim::compile_sim(*c.program, c.plan, env, config.machine);
  }
  {
    Scope s(tracer, "sim.alloc", id);
    w->engine = std::make_unique<sim::Engine>(*c.program, c.plan, std::move(config));
  }
  {
    Scope s(tracer, "sim.run", id);
    const double t0 = now();
    w->metrics.run = w->engine->run();
    if (tracer.on()) t.run_ms[static_cast<std::size_t>(id)].push_back((now() - t0) * 1e3);
  }
  {
    Scope s(tracer, "trace.stats", id);
    w->metrics.trace_stats = trace::compute_stats(*w->recorder);
  }
  {
    Scope s(tracer, "analysis.blame", id);
    w->blame = analysis::compute_blame(*w->recorder, *c.program, c.plan);
  }
  {
    Scope s(tracer, "analysis.critpath", id);
    w->critical_path = analysis::compute_critical_path(*w->recorder, *c.program, c.plan);
  }
  {
    Scope s(tracer, "driver.report", id);
    zc::driver::Metrics& m = w->metrics;
    m.static_count = c.plan.static_count();
    m.dynamic_count = m.run.dynamic_count;
    m.execution_time = m.run.elapsed_seconds;
    m.plan = c.plan;
    zc::driver::ReportOptions ropts;
    ropts.benchmark = c.label;
    w->report = zc::driver::build_report(m, c.experiment, kProcs, nullptr, ropts);
    zc::driver::attach_attribution(w->report, *w->recorder, *c.program, c.plan);
    w->text = w->report.dump();
  }

  // The oracle: pinned counts and checksum, a complete trace, an exact
  // critical path, and both conservation laws to 1e-9.
  const long long failed_before = result.failed();
  check_run(result, "explain1024", c.label, c.plan.static_count(), w->metrics.run);
  const trace::Recorder& rec = *w->recorder;
  const trace::Stats& stats = *w->metrics.trace_stats;
  const analysis::CriticalPathReport& cp = w->critical_path;
  std::string why;
  const long long dropped = rec.dropped_events() + rec.dropped_messages();
  if (dropped != 0) why += " dropped " + std::to_string(dropped) + " trace records;";
  if (!cp.exact) why += " critical path not exact;";
  double blame_sum = 0.0;
  for (const analysis::BlameRow& row : w->blame.rows) blame_sum += row.exposed_overhead_seconds();
  if (!close_rel(blame_sum, stats.exposed_overhead_seconds, 1e-9)) {
    why += " blame rows do not sum to the exposed overhead;";
  }
  const double path_sum = cp.compute_seconds + cp.call_cpu_seconds + cp.call_wait_seconds +
                          cp.wire_seconds + cp.barrier_seconds + cp.untracked_seconds;
  if (!close_rel(path_sum, cp.makespan, 1e-9)) {
    why += " critical-path decomposition does not sum to the makespan;";
  }
  if (!w->report.has("blame") || !w->report.has("critical_path")) {
    why += " report lacks attribution;";
  }
  if (!why.empty() && result.failed() == failed_before) result.fail(c.label + ":" + why);

  ++t.ops;
  for (int p = 0; p < rec.procs(); ++p) t.records += static_cast<long long>(rec.events(p).size());
  t.records += static_cast<long long>(rec.messages().size());
  t.dropped += dropped;
  t.exact += cp.exact ? 1 : 0;
  t.messages += w->metrics.run.total_messages;
  t.dynamic += w->metrics.run.dynamic_count;
  t.report_kib += static_cast<double>(w->text.size()) / 1024.0;
  {
    Scope s(tracer, "trace.free", id);
    w.reset();
  }
}

/// Whole rounds over the cells until `seconds` have passed and at least
/// `min_ops` explains ran. Returns each explain's latency in ms and, in
/// `round_s`, each round's wall seconds.
std::vector<double> explain_loop(const std::vector<Cell>& cells, double seconds,
                                 std::size_t min_ops, Result& result, Tracer& tracer,
                                 Totals& totals, std::vector<double>* round_s = nullptr) {
  std::vector<double> latency_ms;
  const double start = now();
  while (latency_ms.empty() || latency_ms.size() < min_ops || now() - start < seconds) {
    const double round_start = now();
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const double t0 = now();
      explain(cells[k], static_cast<long long>(k), result, tracer, totals);
      latency_ms.push_back((now() - t0) * 1e3);
    }
    if (round_s != nullptr) round_s->push_back(now() - round_start);
  }
  return latency_ms;
}

void end_to_end(const Options& o, Result& result) {
  std::vector<Cell> cells;
  Tracer off(false);
  Totals warm;
  const double setup = timed_setups(o.smoke ? 1 : 3, [&] {
    cells = make_cells(o.seed);
    for (std::size_t k = 0; k < cells.size(); ++k) {
      explain(cells[k], static_cast<long long>(k), result, off, warm);  // warm-up
    }
  });

  Totals totals;
  std::vector<double> round_s;
  const std::vector<double> latency =
      explain_loop(cells, o.seconds, o.smoke ? 4 : 100, result, off, totals, &round_s);
  const std::string n = std::to_string(latency.size());
  result.set("setup_s", setup, "s", "median of set-ups: parse, plan, one warm-up explain per cell");
  result.set("ops_per_s", static_cast<double>(cells.size()) / median(round_s), "1/s",
             "explains_per_s: " + std::to_string(cells.size()) + " / median round over " +
                 std::to_string(round_s.size()) + " rounds, " + n + " verified explains");
  // Whole rounds give each cell the same count, so the plain p50 would sit
  // on the boundary between two cells' latencies; the median round's mean
  // explain latency is the steady central value.
  result.set("op_p50_ms", median(round_s) * 1e3 / static_cast<double>(cells.size()), "ms",
             "mean explain latency of the median round");
  result.set("op_tail_ms", quantile(latency, 0.9), "ms", "explain_p90_ms, n=" + n);
}

void traced(const Options& o, Result& result, Tracer& tracer) {
  const std::vector<Cell> cells = make_cells(o.seed);
  Tracer off(false);
  Totals warm;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    explain(cells[k], static_cast<long long>(k), result, off, warm);
  }

  // Whole rounds with spans off and on in ABBA order: the difference is the
  // tracing overhead, and alternating keeps host drift and order effects
  // out of it.
  Totals t;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  long long untraced_ops = 0;
  const std::size_t mark = tracer.size();
  const double start = now();
  for (int k = 0; t.ops == 0 || now() - start < o.seconds; ++k) {
    for (const bool on : {k % 2 == 1, k % 2 == 0}) {
      const double t0 = now();
      explain_loop(cells, 0.0, 1, result, on ? tracer : off, on ? t : warm);
      (on ? traced_s : untraced_s) += now() - t0;
      if (!on) untraced_ops += static_cast<long long>(cells.size());
    }
  }
  const double ops = static_cast<double>(t.ops);
  const double traced_ms = traced_s * 1e3 / ops;
  report_overhead(result, untraced_s * 1e3 / static_cast<double>(untraced_ops), traced_ms);

  std::map<std::string, double> layer_ms;
  for (const auto& [layer, seconds] : tracer.self_by_layer(mark)) {
    layer_ms[layer] = seconds * 1e3 / ops;
  }
  report_ledger(result, layer_ms, traced_ms);

  // trace.record_ms: traced Engine::run minus an untraced Engine::run of
  // the same cell, averaged over cells (whole rounds weigh them equally).
  double record_ms = 0.0;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    std::vector<double> plain_ms;
    for (int rep = 0; rep < 3; ++rep) {
      sim::Engine engine(*cells[k].program, cells[k].plan, config_for(cells[k], nullptr));
      const double t0 = now();
      const sim::RunResult run = engine.run();
      plain_ms.push_back((now() - t0) * 1e3);
    }
    record_ms += mean(t.run_ms[k]) - median(plain_ms);
  }
  record_ms /= static_cast<double>(cells.size());

  const std::map<std::string, double> self = tracer.self_by_name(mark);
  const auto self_ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second * 1e3 / ops;
  };
  const std::string per_op = "mean per explain, n=" + std::to_string(t.ops);
  result.set("bench.ops", ops, "count", "traced explains");
  result.set("sim.compile_ms", self_ms("sim.compile"), "ms", per_op);
  result.set("sim.alloc_ms", self_ms("sim.alloc"), "ms", per_op);
  result.set("sim.run_ms", self_ms("sim.run"), "ms", per_op + ", recorder attached");
  result.set("sim.messages", static_cast<double>(t.messages), "count");
  result.set("sim.dynamic_count", static_cast<double>(t.dynamic), "count");
  result.set("sim.ns_per_msg",
             t.messages > 0 ? self_ms("sim.run") * ops * 1e6 / static_cast<double>(t.messages)
                            : 0.0,
             "ns", "traced sim.run time / " + std::to_string(t.messages) + " messages");
  result.set("trace.records", static_cast<double>(t.records), "count", "events + messages kept");
  result.set("trace.dropped", static_cast<double>(t.dropped), "count");
  result.set("trace.stats_ms", self_ms("trace.stats"), "ms", per_op);
  result.set("trace.record_ms", record_ms, "ms", "traced minus untraced Engine::run, per cell");
  result.set("analysis.blame_ms", self_ms("analysis.blame"), "ms", per_op);
  result.set("analysis.critpath_ms", self_ms("analysis.critpath"), "ms", per_op);
  result.set("analysis.critpath_exact_ratio", static_cast<double>(t.exact) / ops, "ratio",
             "of " + std::to_string(t.ops) + " explains");
  result.set("driver.report_ms", self_ms("driver.report"), "ms",
             per_op + "; attach_attribution recomputes blame and critical path");
  result.set("driver.report_kb", t.report_kib / ops, "KiB", "mean report size");
}

}  // namespace

void run_explain1024(const Options& options, Result& result, Tracer& tracer) {
  if (options.trace) {
    traced(options, result, tracer);
  } else {
    end_to_end(options, result);
  }
}

}  // namespace pb
