#include "pipebench/src/harness.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/prof/procstat.h"
#include "src/programs/programs.h"
#include "src/support/check.h"
#include "src/support/fingerprint.h"
#include "src/support/io.h"

namespace pb {

namespace json = zc::json;

double now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until(double t) {
  const double wait = t - now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

// ---- spans -----------------------------------------------------------------

int Tracer::open(const char* name, long long id) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.id = id;
  s.t0 = now();
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].t1 = now();
  ZC_ASSERT(!stack_.empty() && stack_.back() == index);
  stack_.pop_back();
}

void Tracer::rename(int index, const char* name) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].name = name;
}

std::map<std::string, double> Tracer::self_by_name(std::size_t from) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const double d = spans_[i].t1 - spans_[i].t0;
    self[i] += d;
    const int p = spans_[i].parent;
    if (p >= static_cast<int>(from)) self[static_cast<std::size_t>(p)] -= d;
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

std::map<std::string, double> Tracer::self_by_layer(std::size_t from) const {
  std::map<std::string, double> out;
  for (const auto& [name, seconds] : self_by_name(from)) {
    out[name.substr(0, name.find('.'))] += seconds;
  }
  return out;
}

void Tracer::write(const std::string& path, const std::string& workload) const {
  // Hand-rolled: tens of thousands of spans, one line each.
  std::ostringstream os;
  os << "{\"workload\":\"" << workload << "\",\"unit\":\"us\",\"spans\":[\n";
  const double base = spans_.empty() ? 0.0 : spans_.front().t0;
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"parent\":%d,\"id\":%lld,\"t0\":%.3f,\"t1\":%.3f}", s.name,
                  s.parent, s.id, (s.t0 - base) * 1e6, (s.t1 - base) * 1e6);
    os << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  zc::io::write_text_file(path, os.str());
}

// ---- results ---------------------------------------------------------------

void Result::fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 10) failures_.push_back(what);
}

void Result::set(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  metrics_[name] = Metric{value, unit, note};
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},       {"ops_per_s", "1/s"},    {"op_p50_ms", "ms"},
      {"op_tail_ms", "ms"},   {"peak_rss_mb", "MiB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"parser.parse_ms", "ms"},
      {"parser.calls", "count"},
      {"comm.plan_ms", "ms"},
      {"comm.plans", "count"},
      {"comm.static_count", "count"},
      {"exec.cache_lookups", "count"},
      {"exec.cache_hit_ratio", "ratio"},
      {"exec.cache_evictions", "count"},
      {"exec.cache_bytes", "bytes"},
      {"exec.sweep_ms", "ms"},
      {"exec.task_ms_sum", "ms"},
      {"exec.pool_idle_frac", "ratio"},
      {"exec.steals", "count"},
      {"sim.alloc_ms", "ms"},
      {"sim.compile_ms", "ms"},
      {"sim.run_ms", "ms"},
      {"sim.messages", "count"},
      {"sim.dynamic_count", "count"},
      {"sim.ns_per_msg", "ns"},
      {"trace.records", "count"},
      {"trace.dropped", "count"},
      {"trace.stats_ms", "ms"},
      {"trace.record_ms", "ms"},
      {"analysis.blame_ms", "ms"},
      {"analysis.critpath_ms", "ms"},
      {"analysis.critpath_exact_ratio", "ratio"},
      {"driver.report_ms", "ms"},
      {"driver.report_kb", "KiB"},
      {"serve.admit_us", "us"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.exec_ms", "ms"},
      {"serve.refused", "count"},
      {"serve.cache_entries", "count"},
      {"serve.rss_growth_mb", "MiB"},
      {"serve.flight_coverage", "ratio"},
      {"loadgen.late_p99_ms", "ms"},
      {"loadgen.sent", "count"},
      {"bench.ops", "count"},
      {"bench.untracked_frac", "ratio"},
      {"bench.trace_overhead_frac", "ratio"},
  };
  return names;
}

void report_ledger(Result& result, const std::map<std::string, double>& layer_ms,
                   double base_ms) {
  double tracked = 0.0;
  char buf[160];
  result.say("ledger (self ms per operation, base " + std::to_string(base_ms) + " ms):");
  for (const auto& [layer, ms] : layer_ms) {
    tracked += ms;
    std::snprintf(buf, sizeof buf, "  %-10s %12.4f ms  %6.2f%%", layer.c_str(), ms,
                  base_ms > 0 ? 100.0 * ms / base_ms : 0.0);
    result.say(buf);
  }
  const double untracked = base_ms > 0 ? 1.0 - tracked / base_ms : 0.0;
  std::snprintf(buf, sizeof buf, "  %-10s %12.4f ms  %6.2f%%", "untracked", base_ms - tracked,
                100.0 * untracked);
  result.say(buf);
  result.set("bench.untracked_frac", untracked, "ratio",
             "1 - sum(layer self) / " + std::to_string(base_ms) + " ms per op");
}

void report_overhead(Result& result, double untraced_ms, double traced_ms) {
  char note[160];
  std::snprintf(note, sizeof note, "traced %.4f ms vs untraced %.4f ms per op", traced_ms,
                untraced_ms);
  result.set("bench.trace_overhead_frac",
             untraced_ms > 0 ? traced_ms / untraced_ms - 1.0 : 0.0, "ratio", note);
}

// ---- statistics ------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool close_rel(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * std::max({std::fabs(a), std::fabs(b), 1e-300});
}

// ---- programs, pins, provenance --------------------------------------------

const std::vector<std::string>& bench_names() {
  static const std::vector<std::string> names = {"tomcatv", "swm", "simple", "sp"};
  return names;
}

std::shared_ptr<const zir::Program> parse_bench(const std::string& name) {
  return std::make_shared<const zir::Program>(
      zc::parser::parse_program(zc::programs::benchmark(name).source));
}

namespace {
json::Value& pins_storage() {
  static json::Value v;
  return v;
}
}  // namespace

const json::Value& pins() { return pins_storage(); }

void load_pins(const std::string& path) {
  pins_storage() = json::parse(zc::io::read_text_file(path));
}

json::Value& observed() {
  static json::Value v = json::Value::make_object();
  return v;
}

void check_run(Result& result, const std::string& table, const std::string& label,
               int static_count, const zc::sim::RunResult& run) {
  result.attempt();
  const std::string checksum = hex64(zc::exec::result_checksum(run));
  json::Value& seen = observed()[table][label];
  seen["static"] = json::Value::make_int(static_count);
  seen["dynamic"] = json::Value::make_int(run.dynamic_count);
  seen["checksum"] = json::Value::make_str(checksum);

  const json::Value& all = pins();
  if (!all.has(table) || !all.at(table).has(label)) {
    result.fail(label + ": no pin");
    return;
  }
  const json::Value& pin = all.at(table).at(label);
  std::string why;
  if (static_count != static_cast<long long>(pin.at("static").number)) why += " static count";
  if (run.dynamic_count != static_cast<long long>(pin.at("dynamic").number)) {
    why += " dynamic count";
  }
  if (checksum != pin.at("checksum").string) why += " result checksum " + checksum;
  if (!why.empty()) result.fail(label + ": wrong" + why);
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

double current_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

double peak_rss_mb() {
  return static_cast<double>(zc::prof::peak_rss_bytes()) / (1024.0 * 1024.0);
}

std::string provenance() {
  const zc::fingerprint::Host& host = zc::fingerprint::current_host();
  const zc::fingerprint::Build& build = zc::fingerprint::current_build();
  return "host_class=" + host.host_class() +
         " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " build_type=" + (build.build_type.empty() ? "none" : build.build_type) +
         " sanitize=" + (build.sanitize.empty() ? "none" : build.sanitize) +
         " compiler=\"" + build.compiler + "\"";
}

bool sanitizer_build() { return !zc::fingerprint::current_build().sanitize.empty(); }

}  // namespace pb
