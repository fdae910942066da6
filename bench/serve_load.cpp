#include "bench/serve_load.h"

namespace zc::bench {

namespace {

constexpr int kSweeps = 12;

std::string escape_newlines(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 16);
  for (const char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string serve_source(const std::string& name) {
  std::string src = "program " + name + R"(;

config n : integer = 8;

region R = [0..n+1, 0..n+1];
region I = [1..n, 1..n];

direction east = [0, 1], west = [0, -1], north = [-1, 0], south = [1, 0];

var A, B, C, D, E, F : [R] double;
var err : double;

procedure main() {
  [R] A := Index1 * 0.5;
  [R] B := Index2 * 0.25;
  [R] C := 0.0;
  [R] D := 1.0;
  [R] E := 0.0;
  [R] F := 0.0;
)";
  for (int s = 0; s < kSweeps; ++s) {
    src += R"(  [I] C := 0.25 * (A@east + A@west + A@north + A@south);
  [I] D := 0.25 * (B@east + B@west + B@north + B@south);
  [I] E := C@east + D@west + A;
  [I] F := C@north + D@south + B;
  [I] err := max<< abs(E - F);
  [I] A := E;
  [I] B := F;
)";
  }
  src += "}\n";
  return src;
}

std::string optimize_line(const std::string& source, bool run, int procs) {
  return std::string(R"({"v":1,"cmd":"optimize","id":"b","source":")") +
         escape_newlines(source) + R"(","experiment":"all","procs":)" +
         std::to_string(procs) + R"(,"run":)" + (run ? "true" : "false") +
         R"(,"plan_text":false})";
}

serve::Service::Emit DoneWaiter::emit() {
  return [this](const std::string& line) {
    const bool is_done = line.find("\"kind\":\"done\"") != std::string::npos;
    const bool is_error = line.find("\"kind\":\"error\"") != std::string::npos;
    if (!is_done && !is_error) return;
    // Notify under the lock: the waiter owns this object and may move on
    // (or destroy it) the instant the mutex is released.
    const std::lock_guard<std::mutex> lk(mu);
    done = true;
    errored = is_error;
    cv.notify_all();
  };
}

bool DoneWaiter::wait() {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return done; });
  const bool ok = !errored;
  done = false;
  errored = false;
  return ok;
}

}  // namespace zc::bench
