// pipebench: one benchmark for the whole zcomm pipeline.
//
//   pipebench --workload tables64|explain1024|serve_mix --seed N
//             --seconds S --trace 0|1 [--rate R] [--smoke]
//             [--pins FILE] [--spans FILE] [--observed-out FILE]
//
// --trace 0 measures the end-to-end metrics with no spans recorded;
// --trace 1 records spans around the benchmark's calls into each layer and
// prints the per-layer metrics, the ledger and the tracing overhead. Either
// way the output oracle checks every operation, human-readable lines come
// first, and the last line of stdout is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// pipebench/run.py builds this binary and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "pipebench/src/harness.h"
#include "src/support/diag.h"
#include "src/support/io.h"

namespace {

namespace json = zc::json;

int usage(const std::string& why) {
  std::cerr << "pipebench: " << why
            << "\nusage: pipebench --workload tables64|explain1024|serve_mix --seed N"
               " --seconds S --trace 0|1 [--rate R] [--smoke] [--pins FILE]"
               " [--spans FILE] [--observed-out FILE]\n";
  return 2;
}

void print(const pb::Options& o, const pb::Result& result) {
  std::cout << "# pipebench " << o.workload << " seed=" << o.seed << " seconds=" << o.seconds
            << " trace=" << (o.trace ? 1 : 0) << (o.smoke ? " smoke" : "") << "\n"
            << "# provenance " << pb::provenance() << "\n";
  for (const std::string& line : result.lines()) std::cout << line << "\n";
  char buf[256];
  for (const auto& [name, m] : result.metrics()) {
    std::snprintf(buf, sizeof buf, "  %-30s %16.6g %-6s", name.c_str(), m.value, m.unit.c_str());
    std::cout << buf << (m.note.empty() ? "" : "  (" + m.note + ")") << "\n";
  }
  const double frac = result.attempted() > 0 ? static_cast<double>(result.failed()) /
                                                   static_cast<double>(result.attempted())
                                             : 1.0;
  std::snprintf(buf, sizeof buf, "  %-30s %16.6g %-6s", "failed_frac", frac, "ratio");
  std::cout << buf << "  (" << result.failed() << " failed of " << result.attempted()
            << " attempted)\n";
  for (const std::string& f : result.failures()) std::cout << "  FAILED " << f << "\n";
}

json::Value summary(const pb::Options& o, const pb::Result& result) {
  json::Value metrics = json::Value::make_object();
  for (const auto& [name, unit] : o.trace ? pb::per_layer_catalog() : pb::end_to_end_catalog()) {
    const auto it = result.metrics().find(name);
    // A layer a workload does not exercise reads 0; an end-to-end metric
    // must always be measured.
    if (it == result.metrics().end() && !o.trace) {
      throw zc::Error("metric " + name + " not measured");
    }
    json::Value m = json::Value::make_object();
    m["value"] = json::Value::make_num(it == result.metrics().end() ? 0.0 : it->second.value);
    m["unit"] = json::Value::make_str(unit);
    metrics[name] = std::move(m);
  }
  json::Value v = json::Value::make_object();
  v["correct"] = json::Value::make_bool(result.failed() == 0 && result.attempted() > 0);
  v["attempted"] = json::Value::make_int(result.attempted());
  v["failed"] = json::Value::make_int(result.failed());
  v["metrics"] = std::move(metrics);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  std::string observed_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("flag " + arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--rate") {
      o.rate = std::atof(value.c_str());
    } else if (arg == "--pins") {
      o.pins_path = value;
    } else if (arg == "--spans") {
      o.spans_path = value;
    } else if (arg == "--observed-out") {
      observed_out = value;
    } else {
      return usage("unknown flag " + arg);
    }
  }
  if (o.seconds <= 0) return usage("--seconds must be positive");
  if (pb::sanitizer_build()) {
    std::cerr << "pipebench: refusing to report timings from a sanitizer build ("
              << pb::provenance() << ")\n";
    return 3;
  }

  pb::Result result;
  pb::Tracer tracer(o.trace);
  try {
    pb::load_pins(o.pins_path);
    if (o.workload == "tables64") {
      pb::run_tables64(o, result, tracer);
    } else if (o.workload == "explain1024") {
      pb::run_explain1024(o, result, tracer);
    } else if (o.workload == "serve_mix") {
      pb::run_serve_mix(o, result, tracer);
    } else {
      return usage("unknown workload '" + o.workload + "'");
    }
    if (!o.trace) result.set("peak_rss_mb", pb::peak_rss_mb(), "MiB", "VmHWM at exit");
    print(o, result);
    if (!o.spans_path.empty() && o.trace) tracer.write(o.spans_path, o.workload);
    if (!observed_out.empty()) zc::io::write_text_file(observed_out, pb::observed().dump() + "\n");
    std::cout << summary(o, result).dump(0) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "pipebench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
