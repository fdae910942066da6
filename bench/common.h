// Shared infrastructure for the bench harnesses that regenerate the paper's
// tables and figures.
//
// Every harness accepts:
//   --paper        run at the paper's full problem scale (slower; the
//                  default uses the same spatial sizes with fewer
//                  iterations — counts scale linearly, shapes identical)
//   --procs=N      processor count (default 64, the paper's partitions)
//   --csv=PATH     also dump machine-readable results
//   --bench-json=PATH / --no-bench-json
//                  perf-sample JSON (default BENCH_<name>.json in the
//                  working directory, <name> from argv[0]); each run is
//                  sampled and written at exit as median/p10/p90 ns,
//                  wrapped in the perf-archive envelope (src/archive) so
//                  every harness's output is archive-ingestible
//   --archive=PATH also append the enveloped sample to the JSON-lines
//                  perf archive at PATH (the BENCH file bytes are
//                  identical with or without this flag)
//   --now=EPOCH    inject the envelope timestamp (seconds since the
//                  epoch; default: the current time) — the seam that
//                  keeps envelope output reproducible under test
//   --git-sha=SHA  stamp the envelope with the source revision
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/driver/driver.h"
#include "src/programs/programs.h"
#include "src/support/csv.h"
#include "src/support/json.h"

namespace zc::bench {

struct Options {
  bool paper_scale = false;
  int procs = 64;
  /// Worker contexts for the sweep scheduler the grid runs fan out on
  /// (--jobs=N; 1 = serial, 0 = hardware concurrency). Results are
  /// bit-identical at any value — see src/exec/sweep.h.
  int jobs = 1;
  std::optional<std::string> csv_path;
  std::string bench_name;                     ///< argv[0] basename, "bench_" stripped
  std::optional<std::string> bench_json_path; ///< none = --no-bench-json
  std::optional<std::string> archive_path;    ///< --archive: append envelope here too
  long long now_unix = 0;                     ///< --now override (0 = wall clock)
  std::string git_sha;                        ///< --git-sha, "" = unstamped
};

/// Parses the common flags; exits with a usage message on unknown flags.
Options parse_options(int argc, char** argv);

/// The problem configuration a harness should run: paper scale or the
/// bench default (paper sizes, reduced iteration counts).
std::map<std::string, long long> scale_for(const programs::BenchmarkInfo& info,
                                           const Options& options);

/// A short human-readable label like "128x128, 30 iterations".
std::string scale_label(const programs::BenchmarkInfo& info, const Options& options);

/// One benchmark x experiment result row.
struct Row {
  std::string benchmark;
  std::string experiment;
  int static_count = 0;
  long long dynamic_count = 0;
  double execution_time = 0.0;
};

/// Runs the named paper experiments (Figure 9 keys) for one benchmark
/// through the sweep scheduler (options.jobs workers; plans memoized in the
/// process-wide PlanCache). Results are cached per (benchmark, experiment)
/// within the process, and the source parses once per benchmark no matter
/// how many figures run it.
std::vector<Row> run_experiments(const programs::BenchmarkInfo& info,
                                 const std::vector<std::string>& experiment_names,
                                 const Options& options);

/// The per-process parsed program for `info` (parse once, reuse across
/// every figure and option set in the binary).
std::shared_ptr<const zir::Program> parsed_program(const programs::BenchmarkInfo& info);

/// Prints the standard harness header: what this binary reproduces.
void print_header(const std::string& figure, const std::string& caption,
                  const Options& options);

/// Writes rows as CSV if --csv was given.
void maybe_write_csv(const std::vector<Row>& rows, const Options& options);

/// The shared envelope writer every harness's --bench-json path routes
/// through: wraps `payload` in a perf-archive envelope (host + build
/// fingerprints, --now/--git-sha stamps), writes it to
/// options.bench_json_path, and — when --archive was given — appends the
/// same envelope to the archive. The BENCH file bytes do not depend on
/// whether archiving is on. No-op when --no-bench-json.
void write_bench_json(const json::Value& payload, const Options& options);

/// value / baseline as a fraction; NaN if baseline is missing or zero.
double scaled(const std::vector<Row>& rows, const std::string& experiment, double Row::*field);

/// Seconds of CPU time the calling thread has used
/// (CLOCK_THREAD_CPUTIME_ID). It does not advance while the thread is
/// preempted, so other processes on a busy host cannot inflate it.
double thread_cpu_seconds();

/// The result of one paired measurement: each arm's min-of-means in
/// seconds per operation.
struct Paired {
  double off_s = 0.0;
  double on_s = 0.0;
  int reps = 0;         ///< reps per arm, over every attempt
  bool within = true;   ///< on / off <= the gate's bound (ungated: true)

  [[nodiscard]] double ratio() const { return off_s > 0.0 ? on_s / off_s : 0.0; }
  [[nodiscard]] double overhead_pct() const { return (ratio() - 1.0) * 100.0; }
};

/// The one paired method every timing gate and telemetry price in bench/
/// goes through. `op(on)` runs one operation of one arm and returns the
/// seconds it took, on whatever clock suits where the work runs. Each of
/// seven reps interleaves the arms op by op, `ops_per_rep` ops each, so
/// both arms see the same host conditions, and alternates which arm leads
/// (order effects cancel). Each arm's estimate is the minimum of its rep
/// means: noise on a shared host only ever adds time, so the minimum is
/// the least-contaminated rep. A gated pairing passes when on / off <=
/// max_ratio. A busy stretch can still contaminate every rep of one
/// attempt, so a failing verdict is re-measured, up to three attempts with
/// minima accumulated across all of them: a genuine regression stays above
/// the bound in every window, a noise spike clears. An ungated pairing
/// (max_ratio infinite) takes one attempt. `name` labels the re-measure
/// notes.
Paired measure_paired(const std::string& name, int ops_per_rep,
                      const std::function<double(bool on)>& op,
                      double max_ratio = std::numeric_limits<double>::infinity());

}  // namespace zc::bench
