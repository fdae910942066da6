# Bench harnesses: one binary per paper table/figure plus ablations and a
# google-benchmark microbenchmark suite. Included from the top-level
# CMakeLists so the binaries land alone in ${CMAKE_BINARY_DIR}/bench.

add_library(zc_bench STATIC
  bench/common.cpp
  bench/serve_load.cpp
)
target_link_libraries(zc_bench PUBLIC
  zc_serve zc_exec zc_driver zc_programs zc_sim zc_runtime zc_comm zc_parser zc_zir
  zc_machine zc_ironman zc_archive zc_support)

function(zc_bench_binary name)
  add_executable(${name} bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE zc_bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

zc_bench_binary(bench_fig05_bindings)
zc_bench_binary(bench_fig06_overhead)
zc_bench_binary(bench_fig07_programs)
zc_bench_binary(bench_fig08_counts)
zc_bench_binary(bench_fig10a_pvm)
zc_bench_binary(bench_fig10b_shmem)
zc_bench_binary(bench_fig11_heuristics)
zc_bench_binary(bench_fig12_heuristic_times)
zc_bench_binary(bench_table1_tomcatv)
zc_bench_binary(bench_table2_swm)
zc_bench_binary(bench_table3_simple)
zc_bench_binary(bench_table4_sp)
zc_bench_binary(bench_sweep_scaling)
zc_bench_binary(bench_abl_knee)

# Smoke-run the sweep-scaling harness: asserts the scheduler, the plan
# cache, and the legacy loop agree bit-identically on the whole fig07 grid
# (exit 0 iff every slot matched) and that the cache actually hit. The
# speedup number itself is hardware-dependent and never gated here.
add_test(NAME bench_sweep_scaling_smoke
  COMMAND bench_sweep_scaling --procs=4
          --bench-json=${CMAKE_BINARY_DIR}/bench/BENCH_sweep_scaling_smoke.json)
set_tests_properties(bench_sweep_scaling_smoke PROPERTIES
  LABELS "smoke;tsan"
  PASS_REGULAR_EXPRESSION "determinism: all schedules bit-identical")
zc_bench_binary(bench_serve_throughput)

# Smoke-run the serve-throughput harness: asserts the in-process service
# answers every closed-loop request across the whole jobs x {cold,warm} grid
# and that a warm plan cache beats a cold one by >= 3x in plan-only mode
# (the cache-amortization claim, min-of-means over paired reps). Absolute
# req/s is hardware-dependent and never gated.
add_test(NAME bench_serve_throughput_smoke
  COMMAND bench_serve_throughput --procs=4
          --bench-json=${CMAKE_BINARY_DIR}/bench/BENCH_serve_throughput_smoke.json)
# RUN_SERIAL: the gate is a wall-time throughput ratio over several
# threads; sharing the cores with other ctest jobs skews the compared cells.
set_tests_properties(bench_serve_throughput_smoke PROPERTIES
  LABELS "smoke;tsan"
  RUN_SERIAL TRUE
  PASS_REGULAR_EXPRESSION "acceptance: plan-mode warm/cold throughput >= 3x")

zc_bench_binary(bench_observability_cost)
target_link_libraries(bench_observability_cost PRIVATE
  zc_analysis zc_prof zc_trace zc_tseries benchmark::benchmark)

# One run of the observability-cost table feeds the per-row checks below;
# it passes when the table completes, and each check passes or fails on its
# own rows, so one failing gate fails one test. RUN_SERIAL: the rows are
# timed on thread CPU clocks, which preemption does not advance, but cache
# and memory-bandwidth sharing with other ctest jobs still skews the arms.
# The script and the table live outside bench/, which holds the binaries.
set(ZC_OBS_TABLE ${CMAKE_BINARY_DIR}/observability_cost.txt)
file(GENERATE OUTPUT ${CMAKE_BINARY_DIR}/observability_cost.sh CONTENT
"#!/usr/bin/env bash
rm -f \"${ZC_OBS_TABLE}\"
$<TARGET_FILE:bench_observability_cost> --procs=4 \\
  --bench-json=${CMAKE_BINARY_DIR}/bench/BENCH_observability_cost_smoke.json \\
  | tee \"${ZC_OBS_TABLE}\"
")
add_test(NAME bench_observability_cost
  COMMAND bash ${CMAKE_BINARY_DIR}/observability_cost.sh)
set_tests_properties(bench_observability_cost PROPERTIES
  LABELS "smoke;tsan"
  RUN_SERIAL TRUE
  FIXTURES_SETUP observability_table
  PASS_REGULAR_EXPRESSION "acceptance: ")

function(zc_observability_row_check name regex)
  add_test(NAME ${name} COMMAND ${CMAKE_COMMAND} -E cat ${ZC_OBS_TABLE})
  set_tests_properties(${name} PROPERTIES
    FIXTURES_REQUIRED observability_table
    PASS_REGULAR_EXPRESSION "${regex}")
endfunction()
# The timeline sink leaves results bit-identical and costs <= 5%.
zc_observability_row_check(bench_tseries_overhead_smoke
  "determinism: results bit-identical with the recorder, the timeline sink and the profiler attached.*row timeline: [^\n]*gate <= 5%: pass")
set_tests_properties(bench_tseries_overhead_smoke PROPERTIES LABELS "smoke;tsan")
# The serve telemetry stack (info logging + flight recorder) costs <= 5%
# of in-worker time, and every request succeeded.
zc_observability_row_check(bench_serve_telemetry_smoke "row serve: [^\n]*gate <= 5%: pass")
set_tests_properties(bench_serve_telemetry_smoke PROPERTIES
  LABELS "smoke;tsan"
  FAIL_REGULAR_EXPRESSION "serve request failures")
# Priced, not gated: the span off vs the empty loop, a profiled run, and
# blame + critical path + diff on the traced run.
zc_observability_row_check(bench_prof_overhead_smoke
  "row prof_span: [^\n]*ungated.*row prof_run: [^\n]*ungated")
zc_observability_row_check(bench_blame_overhead_smoke "row blame: [^\n]*ungated")

zc_bench_binary(bench_engine_scaling)
target_link_libraries(bench_engine_scaling PRIVATE zc_sim_reference)

# Smoke-run the engine-scaling harness on a tiny mesh: asserts the engine
# and the reference interpreter produce bit-identical result checksums on
# every benchmark. The timings are hardware-dependent and never gated here
# — the committed BENCH_engine_scaling.json carries the full 64..4096
# ladder.
add_test(NAME bench_engine_scaling_smoke
  COMMAND bench_engine_scaling --procs=4
          --bench-json=${CMAKE_BINARY_DIR}/bench/BENCH_engine_scaling_smoke.json)
set_tests_properties(bench_engine_scaling_smoke PROPERTIES
  LABELS "smoke;tsan"
  PASS_REGULAR_EXPRESSION
    "determinism: engine checksums match the reference on every rung")

zc_bench_binary(bench_abl_hybrid)
zc_bench_binary(bench_abl_interblock)
zc_bench_binary(bench_paragon_suite)

add_executable(bench_micro_passes bench/bench_micro_passes.cpp)
target_link_libraries(bench_micro_passes PRIVATE zc_bench zc_analysis benchmark::benchmark)
set_target_properties(bench_micro_passes PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Smoke-run the phase-split section (micros skipped via a non-matching
# filter, tiny mesh): asserts every sim sample and the traced run agree
# bit-identically on the phase-split workload. The phase timings are
# hardware-dependent and never gated here — the committed
# BENCH_micro_passes.json carries the 4096-processor evidence and
# `zcomm_bench check` trend-gates it.
add_test(NAME bench_micro_passes_smoke
  COMMAND bench_micro_passes --benchmark_filter=ThisMatchesNothing --procs=4
          --bench-json=${CMAKE_BINARY_DIR}/bench/BENCH_micro_passes_smoke.json)
set_tests_properties(bench_micro_passes_smoke PROPERTIES
  LABELS "smoke;tsan"
  PASS_REGULAR_EXPRESSION "determinism: phase-split checksums identical across samples and traced")
