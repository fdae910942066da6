// The SPMD execution engine: runs a compiled (program + comm plan) on a
// simulated multicomputer, producing real numerical results, virtual
// execution time, and the paper's static/dynamic communication counts.
//
// Mini-ZPL has no processor-divergent control flow (loop bounds and branch
// conditions are replicated scalars), so every processor executes the same
// instruction sequence. The engine lowers the program + plan to flat
// bytecode (src/sim/bytecode.h) and runs it with a single walker that
// touches, per instruction, only the processors it concerns; clock advances
// common to every processor go through a deferred-bump log, so they cost
// O(1) and idle processors cost nothing until observed. This is exact for
// this language class, single-threaded, and deterministic — the
// substitution for the paper's 64-node T3D runs — and it makes 4096+
// simulated processors practical.
//
// The executable specification lives apart, in the test-only
// zc_sim_reference library (src/sim/reference.h): a plain tree walk over the
// same SimState. tests/engine_event_test.cpp holds the two bit-identical —
// RunResult scalars/checksums, communication counts, trace::Stats, and
// windowed timelines. DESIGN.md §15 explains why.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/bytecode.h"
#include "src/sim/state.h"

namespace zc::sim {

class Engine {
 public:
  Engine(const zir::Program& program, const comm::CommPlan& plan, RunConfig config);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes the program's entry procedure once. Single-use.
  RunResult run();

 private:
  /// The instruction loop, from pc 0 to kHalt.
  void execute();
  void exec_assign(CompiledAssign& ca);
  void exec_reduce(CompiledReduce& cr);
  void comm_dr(CompiledGroup& cg);
  void comm_sr(CompiledGroup& cg);
  void comm_dn(CompiledGroup& cg);
  void comm_sv(CompiledGroup& cg);
  /// Resolves (building / caching) the group's message geometry for the
  /// current loop bindings and marks it outstanding.
  CommGeometry& resolve_geometry(CompiledGroup& cg);
  void build_geometry(const CompiledGroup& cg, const std::vector<rt::Box>& member_boxes,
                      CommGeometry& geom);
  /// Appends a uniform all-processor clock bump to the deferred log.
  void bump(double amount);
  /// Replays a processor's pending deferred bumps so its clock is current.
  void touch(int proc);
  void materialize_all();
  void compact_bumps();
  void advance_pristine();
  /// Resets the bump log after a barrier left every clock equal to `t`.
  void barrier_reset(double t);

  SimState st_;
  CompiledSim compiled_;
  ExprScratch scratch_;

  // Deferred uniform clock bumps. Scalar statements, branch evaluations and
  // loop bookkeeping advance every processor's clock by the same amount.
  // Instead of paying O(procs) per such statement, the engine appends the
  // amount to bump_log_ and replays a processor's pending entries only when
  // that clock is next observed (touch). Replay is strictly sequential per
  // processor — never coalesced — because float addition is not
  // associative: (c+a)+b generally differs from c+(a+b) in the last bit, and
  // the contract is bit-identity with the reference.
  //
  // Pristine memoization: a processor untouched since the last barrier
  // (cursor 0, clock bit-equal to pristine_base_) would replay exactly the
  // shared prefix every other pristine processor replays. pristine_value_
  // caches that rolling sum (extended incrementally through pristine_len_),
  // so materializing P idle processors at a barrier costs
  // O(P + log entries) instead of O(P · log entries).
  std::vector<double> bump_log_;
  std::vector<std::size_t> bump_cursor_;  // per proc: log entries replayed
  double pristine_base_ = 0.0;   // clock value of an untouched processor
  double pristine_value_ = 0.0;  // pristine_base_ + bump_log_[0..pristine_len_)
  std::size_t pristine_len_ = 0;

  /// Runtime frame of an active counted loop (kForInit..kForNext).
  struct ForFrame {
    std::int32_t loop = 0;  ///< index into CompiledSim::loops
    long long i = 0;
    long long hi = 0;
    long long step = 1;
    long long old_value = 0;  ///< saved binding of the loop variable
    bool was_bound = false;
  };
  std::vector<ForFrame> for_stack_;

  // Reusable scratch (fully rewritten before each use).
  std::vector<View> views_;  ///< the operand views of one evaluation
  std::vector<int> owners_;  ///< a region's candidate processors
  std::vector<double> reduce_acc_;
  std::vector<rt::Box> member_boxes_;
  std::vector<long long> geom_key_;

  bool ran_ = false;
};

/// Convenience: construct an Engine and run it. The standard entry point for
/// benches / examples; see also src/driver for the experiment-level API.
RunResult run_program(const zir::Program& program, const comm::CommPlan& plan, RunConfig config);

}  // namespace zc::sim
