// The closed-loop serve workload shared by bench_serve_throughput (the
// jobs x cache-temperature grid) and bench_observability_cost (the serve
// telemetry row): the generated request program, the optimize request
// line, and the wait for a request's terminal line.
#pragma once

#include <condition_variable>
#include <mutex>
#include <string>

#include "src/serve/service.h"

namespace zc::bench {

/// A generated multi-sweep stencil program — large enough that parsing and
/// planning (what a cache hit skips) is real work, sized like the paper's
/// benchmarks rather than a toy. The program name makes the plan-cache key
/// unique, so cold cells mint a fresh key per request and warm cells reuse
/// one.
std::string serve_source(const std::string& name);

/// An optimize request over experiment=all, with plan_text off: the closed
/// loop measures planning and cache behavior, not the serialization of six
/// full plan dumps per request.
std::string optimize_line(const std::string& source, bool run, int procs);

/// Blocks the closed loop until the request's "done" (or "error") line.
struct DoneWaiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool errored = false;

  serve::Service::Emit emit();

  /// Waits for the terminal line; true when it was "done".
  bool wait();
};

}  // namespace zc::bench
