// Engine scaling: the engine's sim-phase wall time across simulated-processor
// counts, on the paper's four table benchmarks.
//
// The event-driven engine (src/sim/engine.cpp) exists to make large meshes
// practical — the paper stops at 64 T3D nodes because that was the machine.
// This harness walks the ladder 64 / 256 / 1024 / 4096 and reports the
// engine's median wall time per cell. On every rung up to 256 it also runs
// the reference interpreter (src/sim/reference.h) once and requires
// exec::result_checksum to agree bit-for-bit (scaling is worthless if the
// engine computes something else); the reference's own cost grows with the
// mesh, so larger rungs rely on tests/engine_event_test.cpp instead.
//
// Invoke with --procs=4096 for the full ladder (the committed
// BENCH_engine_scaling.json); --procs=N below 64 collapses the ladder to
// {N}, which is what the smoke-tier ctest runs. Timings are
// hardware-dependent and never gated here — `zcomm_bench check` trend-gates
// sim_event_ns per host class across archived runs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/comm/optimizer.h"
#include "src/exec/sweep.h"
#include "src/sim/engine.h"
#include "src/sim/reference.h"
#include "src/support/json.h"

namespace zc {
namespace {

/// The largest rung the reference interpreter is run on.
constexpr int kReferenceMaxProcs = 256;

sim::RunConfig config_for(int procs, const std::map<std::string, long long>& configs) {
  sim::RunConfig cfg;
  cfg.procs = procs;
  cfg.config_overrides = configs;
  return cfg;
}

double median_run_ns(const zir::Program& program, const comm::CommPlan& plan, int procs,
                     const std::map<std::string, long long>& configs, int samples,
                     std::uint64_t& checksum_out) {
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    const auto t0 = std::chrono::steady_clock::now();
    const sim::RunResult r = sim::run_program(program, plan, config_for(procs, configs));
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
    checksum_out = exec::result_checksum(r);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

int run(int argc, char** argv) {
  const bench::Options options = bench::parse_options(argc, argv);
  bench::print_header("engine scaling", "engine sim-phase wall time, 64..4096 simulated processors",
                      options);

  // The ladder: paper partition size up to the scale target, clipped by
  // --procs; a --procs below 64 (smoke tier) collapses it to that one rung.
  std::vector<int> ladder;
  for (const int p : {64, 256, 1024, 4096}) {
    if (p <= options.procs) ladder.push_back(p);
  }
  if (ladder.empty()) ladder.push_back(options.procs);

  json::Value results = json::Value::make_array();
  bool all_match = true;

  std::cout << "benchmark        procs      sim-time  reference\n";
  for (const std::string bench : {"tomcatv", "swm", "simple", "sp"}) {
    const programs::BenchmarkInfo& info = programs::benchmark(bench);
    const std::shared_ptr<const zir::Program> program = bench::parsed_program(info);
    const std::map<std::string, long long> configs = bench::scale_for(info, options);
    const comm::CommPlan plan =
        comm::plan_communication(*program, comm::OptOptions::for_level(comm::OptLevel::kPL));

    for (const int procs : ladder) {
      const int samples = procs <= 256 ? 5 : 3;
      std::uint64_t event_sum = 0;
      const double event_ns = median_run_ns(*program, plan, procs, configs, samples, event_sum);

      const char* verdict = "-";
      if (procs <= kReferenceMaxProcs) {
        const std::uint64_t reference_sum = exec::result_checksum(
            sim::reference::run_program(*program, plan, config_for(procs, configs)));
        const bool match = event_sum == reference_sum;
        all_match = all_match && match;
        verdict = match ? "match" : "MISMATCH";
      }
      std::printf("%-16s %5d %10.1f ms  %s\n", bench.c_str(), procs, event_ns / 1e6, verdict);

      json::Value r = json::Value::make_object();
      r["name"] = json::Value::make_str(bench + "/p" + std::to_string(procs));
      json::Value params = json::Value::make_object();
      params["procs"] = json::Value::make_int(procs);
      for (const auto& [k, v] : configs) params[k] = json::Value::make_int(v);
      r["params"] = std::move(params);
      r["sim_event_ns"] = json::Value::make_num(event_ns);
      r["samples"] = json::Value::make_int(samples);
      results.push_back(std::move(r));
    }
  }

  if (!all_match) {
    std::cout << "\nFAIL: the engine and the reference disagree — see MISMATCH rows above\n";
    return 1;
  }
  std::cout << "\ndeterminism: engine checksums match the reference on every rung <= "
            << kReferenceMaxProcs << "\n";

  json::Value doc = json::Value::make_object();
  doc["schema"] = json::Value::make_str("zcomm-bench-perf");
  doc["bench"] = json::Value::make_str(options.bench_name);
  doc["results"] = std::move(results);
  bench::write_bench_json(doc, options);
  return 0;
}

}  // namespace
}  // namespace zc

int main(int argc, char** argv) { return zc::run(argc, argv); }
