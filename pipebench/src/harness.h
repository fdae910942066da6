// pipebench's shared harness: options, the span tracer the traced run
// records around its own calls into each layer, the result a workload
// fills, statistics, the output oracle's pins and the provenance stamp.
//
// Spans come only from this benchmark's own code: a span wraps one call
// into a layer's public entry point (parser::parse_program,
// PlanCache::get_or_plan, sim::Engine, analysis::compute_blame, ...). Its
// name is "<layer>.<what>", and the layer is the part before the first '.'.
// Spans are kept in memory and written out at exit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/support/json.h"
#include "src/zir/program.h"

namespace pb {

namespace zir = zc::zir;

/// Seconds on the steady clock.
double now();

/// Sleeps until the steady-clock time `t` (seconds, as returned by now()).
void sleep_until(double t);

struct Options {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short run for the benchmark's own tests: lowers the sample minimums
  /// (100 explains, 1000 requests) and the set-up repeats.
  bool smoke = false;
  double rate = 0.0;  ///< serve_mix offered load, requests per second
  std::string pins_path = "pipebench/pins.json";
  std::string spans_path;  ///< where the traced run writes its spans
};

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* name = "";
  int parent = -1;  ///< index of the enclosing span, -1 = top level
  double t0 = 0.0;
  double t1 = 0.0;
  long long id = -1;  ///< cell or request id
};

/// Records nested spans on one thread. A Tracer that is off records
/// nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  int open(const char* name, long long id);
  void close(int index);
  void rename(int index, const char* name);

  /// Self seconds (duration minus the time direct children cover) summed
  /// per span name, over spans [from, size()).
  [[nodiscard]] std::map<std::string, double> self_by_name(std::size_t from) const;
  /// The same, summed per layer (the name up to its first '.').
  [[nodiscard]] std::map<std::string, double> self_by_layer(std::size_t from) const;

  /// Writes every span as one JSON document (times in microseconds).
  void write(const std::string& path, const std::string& workload) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span on a Tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, long long id = -1)
      : tracer_(tracer), index_(tracer.open(name, id)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void rename(const char* name) { tracer_.rename(index_, name); }

 private:
  Tracer& tracer_;
  int index_;
};

// ---- results ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value: sample count, base, alias
};

/// What one run reports: the attempted / failed operation counts the
/// output oracle keeps, the metrics, and human-readable lines.
class Result {
 public:
  void attempt(long long n = 1) { attempted_ += n; }
  /// Counts one failed or wrong operation; the first few are printed.
  void fail(const std::string& what);
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void say(const std::string& line) { lines_.push_back(line); }

  [[nodiscard]] long long attempted() const { return attempted_; }
  [[nodiscard]] long long failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::string>& lines() const { return lines_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> lines_;
};

/// The metric names a run prints in its last JSON line, with units:
/// end-to-end for untraced runs, per-layer for traced runs. BENCHMARK.json
/// lists the same names.
const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog();
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// Sets bench.untracked_frac from a per-operation ledger (layer -> ms per
/// operation, base = end-to-end ms per operation) and prints the table.
void report_ledger(Result& result, const std::map<std::string, double>& layer_ms,
                   double base_ms);

/// Sets bench.trace_overhead_frac: the traced mean operation time against
/// the untraced one, measured in the same process.
void report_overhead(Result& result, double untraced_ms, double traced_ms);

// ---- statistics ------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// |a - b| <= tol * max(|a|, |b|, 1e-300).
bool close_rel(double a, double b, double tol);

/// Median of `reps` timed calls of `setup` (seconds). The caller keeps the
/// state the last call built.
template <class F>
double timed_setups(int reps, F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now();
    setup();
    times.push_back(now() - t0);
  }
  return median(times);
}

// ---- programs, pins, provenance --------------------------------------------

/// The paper's four benchmarks, in paper order.
const std::vector<std::string>& bench_names();

/// Parses a built-in benchmark's embedded source.
std::shared_ptr<const zir::Program> parse_bench(const std::string& name);

/// The pinned oracle values (pins.json).
const zc::json::Value& pins();
void load_pins(const std::string& path);

/// The values the oracle saw, in pins.json's layout (--observed-out writes
/// them; that is how pins.json was made from the seed commit).
zc::json::Value& observed();

/// Checks one run against pins[table][label]: static count, dynamic count
/// and exec::result_checksum. Counts one attempt, and one failure on any
/// mismatch or missing pin.
void check_run(Result& result, const std::string& table, const std::string& label,
               int static_count, const zc::sim::RunResult& run);

std::string hex64(std::uint64_t v);

/// Resident and peak resident memory of this process, MiB.
double current_rss_mb();
double peak_rss_mb();

/// host class, nproc, build type and sanitizer of this binary.
std::string provenance();
bool sanitizer_build();

// ---- workloads -------------------------------------------------------------

void run_tables64(const Options& options, Result& result, Tracer& tracer);
void run_explain1024(const Options& options, Result& result, Tracer& tracer);
void run_serve_mix(const Options& options, Result& result, Tracer& tracer);

}  // namespace pb
