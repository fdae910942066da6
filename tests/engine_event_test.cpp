// Golden bit-identity suite for the event-driven engine: every observable
// of a run — RunResult scalars/checksums/clock, the paper's communication
// counts, per-processor counters, exact trace aggregates, and the windowed
// timeline — must match the tree-walking reference interpreter
// (src/sim/reference.h) bit for bit, across all four paper benchmarks, a
// program exercising every control construct, the full option matrix, and
// every IRONMAN library binding.
//
// The reference is the executable specification, the engine the
// optimization every product path runs, and this suite is the proof
// obligation between them (DESIGN.md §15 has the argument for why equality
// is achievable at all).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/comm/optimizer.h"
#include "src/exec/sweep.h"
#include "src/machine/model.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/sim/engine.h"
#include "src/sim/reference.h"
#include "src/trace/stats.h"
#include "src/tseries/tseries.h"

namespace {

using namespace zc;

constexpr int kProcs = 16;

/// Bitwise double equality: the contract is bit-identity, and operator==
/// would wave -0.0 == 0.0 and NaN != NaN through.
bool bits_eq(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

std::vector<std::string> bench_names() { return {"tomcatv", "swm", "simple", "sp"}; }

/// The control constructs none of the benchmarks contains: an if / else if
/// / else chain on a scalar that changes every iteration, with
/// communication inside the branches; a repeat; a procedure called from two
/// sites; and a region bounded by the loop variable.
constexpr std::string_view kConstructsSource = R"zpl(
program constructs;

config n     : integer = 12;
config iters : integer = 7;

region R = [0..n+1, 0..n+1];
region I = [1..n, 1..n];

direction east = [0, 1], west = [0, -1], north = [-1, 0], south = [1, 0];

var A, B : [R] double;
var phase, total : double;

procedure relax() {
  [I] B := 0.25 * (A@east + A@west + A@north + A@south);
  [I] A := B;
}

procedure main() {
  [R] A := 0.0;
  [R] B := 0.0;
  [0..n+1, 0] A := 1.0;
  [0, 0..n+1] A := 1.0;
  phase := 0.0;
  for it in 1..iters {
    phase := phase + 1.0;
    if phase < 2.5 {
      [I] B := A@east + A@west;
      [I] A := 0.5 * B;
    } else if phase < 4.5 {
      relax();
    } else {
      [I] A := A + 0.125 * A@north;
      phase := 0.0;
    }
    repeat 2 {
      [1..it, 1..n] B := A@south - A;
      [1..it, 1..n] A := A + 0.0625 * B;
    }
    [I] total := +<< A;
  }
  relax();
}
)zpl";

/// One program under test: a paper benchmark at its test-scale configs, or
/// the control-construct program at its defaults.
struct ProgramCase {
  std::string name;
  std::string_view source;
  std::map<std::string, long long> configs;
};

ProgramCase benchmark_case(const std::string& bench) {
  const programs::BenchmarkInfo& info = programs::benchmark(bench);
  return {bench, info.source, info.test_configs};
}

ProgramCase constructs_case() { return {"constructs", kConstructsSource, {}}; }

/// The seven optimization configurations report_test pins pass provenance
/// on: the four levels plus inter-block, max-latency, and hybrid variants.
std::vector<std::pair<std::string, comm::OptOptions>> option_matrix() {
  using comm::CombineHeuristic;
  using comm::OptLevel;
  using comm::OptOptions;

  std::vector<std::pair<std::string, comm::OptOptions>> v;
  v.emplace_back("baseline", OptOptions::for_level(OptLevel::kBaseline));
  v.emplace_back("rr", OptOptions::for_level(OptLevel::kRR));
  v.emplace_back("cc", OptOptions::for_level(OptLevel::kCC));
  v.emplace_back("pl", OptOptions::for_level(OptLevel::kPL));

  OptOptions inter = OptOptions::for_level(OptLevel::kPL);
  inter.inter_block = true;
  v.emplace_back("pl+inter", inter);

  OptOptions maxlat = OptOptions::for_level(OptLevel::kPL);
  maxlat.heuristic = CombineHeuristic::kMaxLatency;
  v.emplace_back("pl/maxlat", maxlat);

  OptOptions hybrid = OptOptions::for_level(OptLevel::kPL);
  hybrid.heuristic = CombineHeuristic::kHybrid;
  v.emplace_back("pl/hybrid", hybrid);
  return v;
}

/// Every (machine, library) pair the bindings admit: both T3D libraries
/// and all three Paragon NX variants.
struct LibraryCase {
  const char* name;
  machine::MachineModel model;
  ironman::CommLibrary library;
};

std::vector<LibraryCase> library_cases() {
  return {
      {"t3d/pvm", machine::t3d_model(), ironman::CommLibrary::kPVM},
      {"t3d/shmem", machine::t3d_model(), ironman::CommLibrary::kSHMEM},
      {"paragon/nx-sync", machine::paragon_model(), ironman::CommLibrary::kNXSync},
      {"paragon/nx-async", machine::paragon_model(), ironman::CommLibrary::kNXAsync},
      {"paragon/nx-callback", machine::paragon_model(), ironman::CommLibrary::kNXCallback},
  };
}

/// Which core runs: the reference interpreter or the engine.
using Core = sim::RunResult (*)(const zir::Program&, const comm::CommPlan&, sim::RunConfig);
constexpr Core kReference = &sim::reference::run_program;
constexpr Core kEvent = &sim::run_program;

sim::RunResult run_once(const zir::Program& program, const comm::CommPlan& plan,
                        const LibraryCase& lc, Core core, int procs,
                        const std::map<std::string, long long>& configs,
                        trace::Recorder* recorder = nullptr,
                        tseries::SimSeries* timeline = nullptr) {
  sim::RunConfig cfg;
  cfg.machine = lc.model;
  cfg.library = lc.library;
  cfg.procs = procs;
  cfg.config_overrides = configs;
  cfg.recorder = recorder;
  cfg.timeline = timeline;
  return core(program, plan, cfg);
}

void expect_bit_identical(const sim::RunResult& lock, const sim::RunResult& event,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_TRUE(bits_eq(lock.elapsed_seconds, event.elapsed_seconds))
      << lock.elapsed_seconds << " vs " << event.elapsed_seconds;
  EXPECT_EQ(lock.dynamic_count, event.dynamic_count);
  EXPECT_EQ(lock.total_messages, event.total_messages);
  EXPECT_EQ(lock.total_bytes, event.total_bytes);
  EXPECT_EQ(lock.reduction_count, event.reduction_count);
  EXPECT_EQ(lock.center_proc, event.center_proc);

  ASSERT_EQ(lock.per_proc.size(), event.per_proc.size());
  for (std::size_t p = 0; p < lock.per_proc.size(); ++p) {
    EXPECT_EQ(lock.per_proc[p].communications, event.per_proc[p].communications) << "proc " << p;
    EXPECT_EQ(lock.per_proc[p].messages_sent, event.per_proc[p].messages_sent) << "proc " << p;
    EXPECT_EQ(lock.per_proc[p].messages_received, event.per_proc[p].messages_received)
        << "proc " << p;
    EXPECT_EQ(lock.per_proc[p].bytes_sent, event.per_proc[p].bytes_sent) << "proc " << p;
    EXPECT_EQ(lock.per_proc[p].bytes_received, event.per_proc[p].bytes_received) << "proc " << p;
  }

  ASSERT_EQ(lock.scalars.size(), event.scalars.size());
  for (const auto& [name, value] : lock.scalars) {
    ASSERT_TRUE(event.scalars.count(name) != 0) << name;
    EXPECT_TRUE(bits_eq(value, event.scalars.at(name)))
        << name << ": " << value << " vs " << event.scalars.at(name);
  }
  ASSERT_EQ(lock.checksums.size(), event.checksums.size());
  for (const auto& [name, value] : lock.checksums) {
    ASSERT_TRUE(event.checksums.count(name) != 0) << name;
    EXPECT_TRUE(bits_eq(value, event.checksums.at(name)))
        << name << ": " << value << " vs " << event.checksums.at(name);
  }

  // The sweep/serve determinism fingerprint folds all of the above; if it
  // differs something escaped the field-by-field checks.
  EXPECT_EQ(exec::result_checksum(lock), exec::result_checksum(event));
}

// The headline golden: 4 benchmarks + the control-construct program x 7
// option sets x 5 library bindings, event vs reference, full RunResult
// bit-identity.
TEST(EngineEvent, BitIdenticalAcrossBenchmarksOptionsAndLibraries) {
  std::vector<ProgramCase> cases;
  for (const std::string& bench : bench_names()) cases.push_back(benchmark_case(bench));
  cases.push_back(constructs_case());
  for (const ProgramCase& pc : cases) {
    const zir::Program program = parser::parse_program(pc.source);
    for (const auto& [opt_label, opts] : option_matrix()) {
      const comm::CommPlan plan = comm::plan_communication(program, opts);
      for (const LibraryCase& lc : library_cases()) {
        const sim::RunResult lock = run_once(program, plan, lc, kReference, kProcs, pc.configs);
        const sim::RunResult event = run_once(program, plan, lc, kEvent, kProcs, pc.configs);
        expect_bit_identical(lock, event, pc.name + " / " + opt_label + " / " + lc.name);
      }
    }
  }
}

// Exact trace aggregates: the full per-call / per-primitive / per-channel /
// histogram statistics must agree, not just the run totals. The stable CSV
// rendering makes the comparison total.
TEST(EngineEvent, TraceStatsMatchLockstepExactly) {
  for (const std::string& bench : bench_names()) {
    const programs::BenchmarkInfo& info = programs::benchmark(bench);
    const zir::Program program = parser::parse_program(info.source);
    const comm::CommPlan plan =
        comm::plan_communication(program, comm::OptOptions::for_level(comm::OptLevel::kPL));
    for (const LibraryCase& lc : library_cases()) {
      if (lc.library != ironman::CommLibrary::kPVM &&
          lc.library != ironman::CommLibrary::kSHMEM &&
          lc.library != ironman::CommLibrary::kNXAsync) {
        continue;  // one representative binding per primitive family
      }
      trace::Recorder lock_rec(kProcs);
      trace::Recorder event_rec(kProcs);
      const sim::RunResult lock =
          run_once(program, plan, lc, kReference, kProcs, info.test_configs, &lock_rec);
      const sim::RunResult event =
          run_once(program, plan, lc, kEvent, kProcs, info.test_configs, &event_rec);
      expect_bit_identical(lock, event, bench + " / traced / " + lc.name);
      EXPECT_EQ(trace::compute_stats(lock_rec).to_csv(), trace::compute_stats(event_rec).to_csv())
          << bench << " / " << lc.name;
      // Attaching a recorder never perturbs the simulation in either core.
      const sim::RunResult bare = run_once(program, plan, lc, kEvent, kProcs, info.test_configs);
      EXPECT_EQ(exec::result_checksum(bare), exec::result_checksum(event))
          << bench << " / " << lc.name;
    }
  }
}

// The windowed timeline reconciles identically: same window sums, same
// totals, bit for bit (the CSV renders the raw doubles).
TEST(EngineEvent, TimelineMatchesLockstepExactly) {
  for (const std::string& bench : bench_names()) {
    const programs::BenchmarkInfo& info = programs::benchmark(bench);
    const zir::Program program = parser::parse_program(info.source);
    const comm::CommPlan plan =
        comm::plan_communication(program, comm::OptOptions::for_level(comm::OptLevel::kPL));
    const LibraryCase lc = library_cases()[0];  // t3d/pvm
    tseries::SimSeries lock_series(kProcs);
    tseries::SimSeries event_series(kProcs);
    run_once(program, plan, lc, kReference, kProcs, info.test_configs, nullptr, &lock_series);
    run_once(program, plan, lc, kEvent, kProcs, info.test_configs, nullptr, &event_series);
    EXPECT_EQ(lock_series.to_csv(), event_series.to_csv()) << bench;
  }
}

// Dynamic (loop-variable-dependent) regions exercise the event core's keyed
// geometry cache; oddball processor counts exercise ragged decompositions
// and empty owned blocks.
TEST(EngineEvent, BitIdenticalOnRaggedMeshes) {
  for (const ProgramCase& pc : {benchmark_case("simple"), constructs_case()}) {
    const zir::Program program = parser::parse_program(pc.source);
    const comm::CommPlan plan =
        comm::plan_communication(program, comm::OptOptions::for_level(comm::OptLevel::kPL));
    const LibraryCase lc = library_cases()[0];
    for (const int procs : {1, 3, 7, 13, 61}) {
      const sim::RunResult lock = run_once(program, plan, lc, kReference, procs, pc.configs);
      const sim::RunResult event = run_once(program, plan, lc, kEvent, procs, pc.configs);
      expect_bit_identical(lock, event, pc.name + " / pl / procs=" + std::to_string(procs));
    }
  }
}

// The scale target: all four table benchmarks complete at 4096 simulated
// processors under the event core, with sane counts and finite numerics.
// (engine_event_4096_smoke in tests/CMakeLists.txt runs exactly this case
// as the smoke-tier ctest.)
TEST(EngineEvent, Procs4096Smoke) {
  for (const std::string& bench : bench_names()) {
    const programs::BenchmarkInfo& info = programs::benchmark(bench);
    const zir::Program program = parser::parse_program(info.source);
    const comm::CommPlan plan =
        comm::plan_communication(program, comm::OptOptions::for_level(comm::OptLevel::kPL));
    const LibraryCase lc = library_cases()[0];
    const sim::RunResult r = run_once(program, plan, lc, kEvent, 4096, info.test_configs);
    SCOPED_TRACE(bench);
    EXPECT_EQ(r.mesh.procs(), 4096);
    EXPECT_GT(r.dynamic_count, 0);
    EXPECT_GT(r.elapsed_seconds, 0.0);
    for (const auto& [name, value] : r.checksums) {
      EXPECT_TRUE(std::isfinite(value)) << name;
    }
  }
}

// Checksums are a property of the problem, not the machine size: growing
// the mesh leaves every checksum and scalar equal to relative 1e-9 (the
// same elements exist, merely owned by more processors; only the FP
// summation association shifts with the partition), with the reference
// agreeing *bitwise* at every size. This is the "counts scale, checksums hold"
// contract the scripts/check.sh 1024-processor probe diffs for.
TEST(EngineEvent, ChecksumsInvariantAcrossMeshSizes) {
  const programs::BenchmarkInfo& info = programs::benchmark("tomcatv");
  const zir::Program program = parser::parse_program(info.source);
  const comm::CommPlan plan =
      comm::plan_communication(program, comm::OptOptions::for_level(comm::OptLevel::kPL));
  const LibraryCase lc = library_cases()[0];

  const sim::RunResult base = run_once(program, plan, lc, kReference, 16, info.test_configs);
  for (const int procs : {16, 64, 256}) {
    const sim::RunResult lock = run_once(program, plan, lc, kReference, procs, info.test_configs);
    const sim::RunResult event = run_once(program, plan, lc, kEvent, procs, info.test_configs);
    expect_bit_identical(lock, event, "tomcatv / procs=" + std::to_string(procs));
    for (const auto& [name, value] : base.checksums) {
      const double tol = 1e-9 * std::max(1.0, std::abs(value));
      EXPECT_NEAR(value, event.checksums.at(name), tol) << name << " at procs=" << procs;
    }
    for (const auto& [name, value] : base.scalars) {
      const double tol = 1e-9 * std::max(1.0, std::abs(value));
      EXPECT_NEAR(value, event.scalars.at(name), tol) << name << " at procs=" << procs;
    }
  }
}

}  // namespace
