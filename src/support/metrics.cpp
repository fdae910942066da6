#include "src/support/metrics.h"

#include <algorithm>
#include <cstdint>

#include "src/support/str.h"

namespace zc::metrics {

void Histogram::observe(double value) {
  if (buckets.empty()) buckets.assign(bounds.size() + 1, 0);
  std::size_t i = 0;
  while (i < bounds.size() && value > bounds[i]) ++i;
  ++buckets[i];
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
}

double Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double n = static_cast<double>(buckets[i]);
    if (n > 0.0 && cum + n >= target) {
      const double lo = std::clamp(i == 0 ? min : bounds[i - 1], min, max);
      const double hi = std::clamp(i < bounds.size() ? bounds[i] : max, min, max);
      const double frac = (target - cum) / n;
      return std::clamp(lo + (hi - lo) * frac, min, max);
    }
    cum += n;
  }
  return max;
}

namespace {

/// Folds `theirs` into `mine`: bucket-wise when the bounds agree, else into
/// the aggregate + overflow bucket so the totals stay exact either way.
void merge_histogram(Histogram& mine, const Histogram& theirs) {
  if (theirs.count == 0) return;
  if (mine.count == 0) {
    mine = theirs;
    return;
  }
  if (mine.buckets.empty()) mine.buckets.assign(mine.bounds.size() + 1, 0);
  if (mine.bounds == theirs.bounds) {
    for (std::size_t i = 0; i < mine.buckets.size() && i < theirs.buckets.size(); ++i) {
      mine.buckets[i] += theirs.buckets[i];
    }
  } else {
    // Bounds disagree: keep this histogram's shape and fold the other's
    // samples into the overflow bucket so the aggregate stays exact.
    mine.buckets.back() += theirs.count;
  }
  mine.count += theirs.count;
  mine.sum += theirs.sum;
  mine.min = std::min(mine.min, theirs.min);
  mine.max = std::max(mine.max, theirs.max);
}

}  // namespace

Registry::Shard& Registry::shard_for(std::string_view name) const {
  // FNV-1a over the metric name; names are short and publishing is
  // per-plan/per-run, so the hash cost is noise next to the lock it avoids.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return shards_[h % kShards];
}

void Registry::count(std::string_view name, long long delta) {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.counters.find(name);
  if (it == shard.counters.end()) {
    shard.counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void Registry::gauge(std::string_view name, double value) {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.gauges.find(name);
  if (it == shard.gauges.end()) {
    shard.gauges.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void Registry::observe(std::string_view name, double value, std::vector<double> bounds) {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.histograms.find(name);
  if (it == shard.histograms.end()) {
    Histogram h;
    if (bounds.empty()) {
      for (double b = 1.0; b <= 1048576.0; b *= 2.0) h.bounds.push_back(b);
    } else {
      std::sort(bounds.begin(), bounds.end());
      h.bounds = std::move(bounds);
    }
    it = shard.histograms.emplace(std::string(name), std::move(h)).first;
  }
  it->second.observe(value);
}

long long Registry::counter(std::string_view name) const {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lk(shard.mu);
  const auto it = shard.counters.find(name);
  return it == shard.counters.end() ? 0 : it->second;
}

double Registry::gauge_value(std::string_view name) const {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lk(shard.mu);
  const auto it = shard.gauges.find(name);
  return it == shard.gauges.end() ? 0.0 : it->second;
}

std::optional<Histogram> Registry::find_histogram(std::string_view name) const {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lk(shard.mu);
  const auto it = shard.histograms.find(name);
  if (it == shard.histograms.end()) return std::nullopt;
  return it->second;
}

bool Registry::empty() const {
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lk(shard.mu);
    if (!shard.counters.empty() || !shard.gauges.empty() || !shard.histograms.empty()) {
      return false;
    }
  }
  return true;
}

void Registry::reset() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lk(shard.mu);
    shard.counters.clear();
    shard.gauges.clear();
    shard.histograms.clear();
  }
}

Registry::Snapshot Registry::snapshot() const {
  // One shard locked at a time — never two locks at once, so snapshotting
  // can race publishers (each name is still read atomically under its
  // shard's lock) and merge_from can never deadlock against another merge.
  Snapshot snap;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lk(shard.mu);
    snap.counters.insert(shard.counters.begin(), shard.counters.end());
    snap.gauges.insert(shard.gauges.begin(), shard.gauges.end());
    snap.histograms.insert(shard.histograms.begin(), shard.histograms.end());
  }
  return snap;
}

void Registry::merge_from(const Registry& other) {
  if (&other == this) return;
  // Snapshot-then-apply: take the other registry's state one shard at a
  // time, then publish into our own shards through the normal guarded
  // paths. No two shard locks are ever held together.
  const Snapshot snap = other.snapshot();
  for (const auto& [name, value] : snap.counters) count(name, value);
  for (const auto& [name, value] : snap.gauges) gauge(name, value);
  for (const auto& [name, h] : snap.histograms) {
    Shard& shard = shard_for(name);
    const std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.histograms.find(name);
    if (it == shard.histograms.end()) {
      shard.histograms.emplace(name, h);
    } else {
      merge_histogram(it->second, h);
    }
  }
}

namespace {

/// Gauge/histogram values render with enough precision to round-trip the
/// magnitudes the simulator produces (seconds, counts).
std::string render(double v) {
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  return str::format_f(v, 9);
}

}  // namespace

std::string Registry::to_text() const {
  const Snapshot snap = snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    out += "counter " + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out += "gauge " + name + " " + render(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out += "hist " + name + " count " + std::to_string(h.count) + " sum " + render(h.sum);
    if (h.count > 0) {
      out += " min " + render(h.min) + " max " + render(h.max);
      out += " p50 " + render(h.quantile(0.50)) + " p90 " + render(h.quantile(0.90)) +
             " p99 " + render(h.quantile(0.99));
    }
    out += "\n";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const std::string bound = i < h.bounds.size() ? render(h.bounds[i]) : "+inf";
      out += "hist " + name + " le " + bound + " " + std::to_string(h.buckets[i]) + "\n";
    }
  }
  return out;
}

namespace {

/// Prometheus sample values: render()'s fixed precision with trailing
/// zeros trimmed, so bucket bounds read le="0.01", not le="0.010000000".
std::string prom_value(double v) {
  std::string s = render(v);
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  return s;
}

/// Prometheus metric names admit [a-zA-Z0-9_:] only (and no leading
/// digit); the registry's dotted names map onto that alphabet.
std::string prom_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

}  // namespace

std::string Registry::to_prometheus() const {
  const Snapshot snap = snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + prom_value(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " histogram\n";
    long long cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      const std::string le = i < h.bounds.size() ? prom_value(h.bounds[i]) : "+Inf";
      out += n + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) + "\n";
    }
    if (h.buckets.empty()) out += n + "_bucket{le=\"+Inf\"} 0\n";
    out += n + "_sum " + prom_value(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

json::Value Registry::to_json() const {
  const Snapshot snap = snapshot();
  using json::Value;
  Value doc = Value::make_object();
  Value counters = Value::make_object();
  for (const auto& [name, value] : snap.counters) counters[name] = Value::make_int(value);
  doc["counters"] = std::move(counters);

  Value gauges = Value::make_object();
  for (const auto& [name, value] : snap.gauges) gauges[name] = Value::make_num(value);
  doc["gauges"] = std::move(gauges);

  Value hists = Value::make_object();
  for (const auto& [name, h] : snap.histograms) {
    Value v = Value::make_object();
    Value bounds = Value::make_array();
    for (double b : h.bounds) bounds.push_back(Value::make_num(b));
    v["bounds"] = std::move(bounds);
    Value buckets = Value::make_array();
    for (long long b : h.buckets) buckets.push_back(Value::make_int(b));
    v["buckets"] = std::move(buckets);
    v["count"] = Value::make_int(h.count);
    v["sum"] = Value::make_num(h.sum);
    if (h.count > 0) {
      v["min"] = Value::make_num(h.min);
      v["max"] = Value::make_num(h.max);
      v["p50"] = Value::make_num(h.quantile(0.50));
      v["p90"] = Value::make_num(h.quantile(0.90));
      v["p99"] = Value::make_num(h.quantile(0.99));
    }
    hists[name] = std::move(v);
  }
  doc["histograms"] = std::move(hists);
  return doc;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

namespace {
thread_local Registry* tl_current = nullptr;
}  // namespace

Registry& Registry::current() { return tl_current != nullptr ? *tl_current : global(); }

ScopedRegistry::ScopedRegistry(Registry& registry) : previous_(tl_current) {
  tl_current = &registry;
}

ScopedRegistry::~ScopedRegistry() { tl_current = previous_; }

}  // namespace zc::metrics
