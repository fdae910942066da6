// The simulated multicomputer's state, shared by both execution cores: the
// processor mesh and its block distribution, per-processor virtual clocks,
// local arrays and communication counters, the replicated scalars, and the
// transport that prices every IRONMAN call.
//
// Two cores run on it. sim::Engine (src/sim/engine.h) is the compiled,
// event-driven core every product path runs. sim::reference
// (src/sim/reference.h) is the plain tree-walking specification it is
// tested against bit for bit; only tests and benches link it.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/comm/plan.h"
#include "src/ironman/ironman.h"
#include "src/machine/model.h"
#include "src/runtime/darray.h"
#include "src/runtime/eval.h"
#include "src/runtime/layout.h"
#include "src/sim/transport.h"
#include "src/trace/recorder.h"
#include "src/zir/program.h"

namespace zc::sim {

struct RunConfig {
  machine::MachineModel machine = machine::t3d_model();
  ironman::CommLibrary library = ironman::CommLibrary::kPVM;
  int procs = 64;
  /// Override config constants by name (e.g. problem size / iterations).
  std::map<std::string, long long> config_overrides;
  /// Optional trace recorder (see src/trace). nullptr — the default — means
  /// tracing is off and the run does no event recording at all; the
  /// recorder, when given, must cover at least `procs` processors. Tracing
  /// never changes timing or numerics (golden-checked).
  trace::Recorder* recorder = nullptr;
  /// Optional windowed time-series sink (see src/tseries). nullptr — the
  /// default — means no per-event accumulation at all, the same
  /// zero-overhead-off contract as the recorder. When given, it must cover
  /// at least `procs` rows; memory stays O(procs x windows) no matter how
  /// many events the run produces, and the windowed sums reconcile with
  /// trace::Stats / RunResult exactly. Never changes timing or numerics
  /// (golden-checked, like tracing).
  tseries::SimSeries* timeline = nullptr;
};

/// Per-processor communication counters.
struct CommCounters {
  /// Communications (group executions) in which this processor actually
  /// sent or received data (a subset of the SPMD-wide dynamic count).
  long long communications = 0;
  long long messages_sent = 0;
  long long messages_received = 0;
  long long bytes_sent = 0;
  long long bytes_received = 0;
};

struct RunResult {
  double elapsed_seconds = 0.0;  ///< max processor clock at completion

  /// The paper's dynamic count: communications (IRONMAN call sets) executed
  /// by the SPMD program — identical on every processor, as in the paper's
  /// "number of communications performed ... on a single processor".
  long long dynamic_count = 0;
  int center_proc = 0;

  long long total_messages = 0;
  long long total_bytes = 0;
  long long reduction_count = 0;  ///< reductions executed (reported separately)

  rt::Mesh mesh;
  std::vector<CommCounters> per_proc;

  /// Final scalar values and per-array checksums (sum over the declared
  /// region), for verifying optimized runs against the reference.
  std::map<std::string, double> scalars;
  std::map<std::string, double> checksums;
};

/// One run's machine state. Construction builds the mesh, allocates every
/// processor's arrays and wires the optional recorder / timeline; the cores
/// then mutate the fields directly.
struct SimState {
  SimState(const zir::Program& prog, const comm::CommPlan& comm_plan, RunConfig run_config);

  /// Evaluation context over one processor's arrays and the replicated
  /// scalars.
  [[nodiscard]] rt::EvalContext context_for(int proc) const;
  /// Log-tree allreduce: every clock advances to the latest clock plus
  /// `barrier_stages(procs) x (extra_per_stage + wire_latency)`.
  void allreduce_clocks(double extra_per_stage);
  /// Assembles the RunResult and publishes the per-run metrics.
  [[nodiscard]] RunResult finish() const;

  const zir::Program& program;
  const comm::CommPlan& plan;
  RunConfig config;

  rt::Mesh mesh;
  zir::IntEnv env;
  rt::BlockDist dist;
  Transport transport;
  rt::Evaluator evaluator;

  std::vector<double> clocks;                       // per proc
  std::vector<std::vector<rt::LocalArray>> arrays;  // [proc][array]
  std::vector<rt::Box> declared;                    // per array
  std::vector<double> scalars;                      // replicated
  std::vector<CommCounters> counters;               // per proc
  long long reduction_count = 0;
  long long dynamic_count = 0;  // communications executed (SPMD-wide)
};

}  // namespace zc::sim
