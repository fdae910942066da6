// The executable specification of the SPMD engine: a plain tree-walking
// interpreter over the same SimState as sim::Engine. Every statement runs
// for every processor in turn, each communication's messages are rebuilt
// from the plan at every execution, and nothing is compiled, cached or
// pooled. It is written to be read, not to be fast.
//
// Test-only: it lives in the zc_sim_reference library, which only
// tests/engine_event_test.cpp and bench/bench_engine_scaling.cpp link. The
// product engine must match it bit for bit — RunResult scalars, checksums
// and clocks, communication counts, trace::Stats and windowed timelines.
// DESIGN.md §15 explains why that equality holds.
#pragma once

#include "src/comm/plan.h"
#include "src/sim/state.h"
#include "src/zir/program.h"

namespace zc::sim::reference {

/// Executes the program's entry procedure once under `config`.
RunResult run_program(const zir::Program& program, const comm::CommPlan& plan, RunConfig config);

}  // namespace zc::sim::reference
