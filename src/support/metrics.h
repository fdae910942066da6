// A small in-process metrics registry: named counters (monotonic),
// gauges (last value wins), and fixed-bucket histograms, published into by
// the driver, the simulation engine, and the optimizer passes, and exposed
// as text (`name value` lines) or JSON for run reports.
//
// The registry is deliberately simple: no label sets, no time series — it
// answers "what has this process done so far", which is what the run reports
// snapshot. Publishing happens at per-plan / per-run granularity, never per
// message, so the cost is negligible and the simulation's timing and
// numerics are untouched.
//
// Threading: a Registry is striped — metric names hash onto a fixed set of
// independently mutex-guarded shards, so concurrent publishers (the serve
// subsystem's workers, sweep tasks running without a ScopedRegistry
// redirect) contend only when they touch names that share a shard, not on
// one global lock. Readers (to_text, to_json, merge_from) snapshot shard by
// shard and render from a merged, name-sorted view, so exposition stays
// deterministic. The subsystems publish into Registry::current() — a
// thread-local redirect that defaults to the process-wide global(). The
// parallel sweep engine (src/exec) installs a private registry per worker
// task via ScopedRegistry and merges the per-task registries into the
// submitter's at join, in submission order — so sweep totals are
// deterministic regardless of how tasks were scheduled.
#pragma once

#include <array>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/json.h"

namespace zc::metrics {

/// A fixed-bucket histogram: counts per inclusive upper bound plus an
/// overflow bucket, with exact count/sum/min/max.
struct Histogram {
  std::vector<double> bounds;    ///< sorted inclusive upper bounds
  std::vector<long long> buckets;///< bounds.size() + 1 (last = overflow)
  long long count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< valid when count > 0
  double max = 0.0;  ///< valid when count > 0

  void observe(double value);

  /// Estimates the q-quantile (q in [0, 1]) by linear interpolation within
  /// the bucket holding the target rank, clamped to [min, max] so the
  /// overflow bucket and sparse edges cannot extrapolate beyond observed
  /// values. Exact when samples are spread one per bucket; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
};

class Registry {
 public:
  /// Adds `delta` (default 1) to the named counter, creating it at 0.
  void count(std::string_view name, long long delta = 1);

  /// Sets the named gauge to `value` (last write wins).
  void gauge(std::string_view name, double value);

  /// Records `value` into the named histogram. The first observation fixes
  /// the bucket bounds: the given `bounds` if non-empty, else powers of two
  /// 1..2^20. Later `bounds` arguments are ignored.
  void observe(std::string_view name, double value, std::vector<double> bounds = {});

  [[nodiscard]] long long counter(std::string_view name) const;  ///< 0 if absent
  [[nodiscard]] double gauge_value(std::string_view name) const; ///< 0 if absent
  /// A copy of the named histogram taken under its shard's lock, so it
  /// stays consistent while other threads publish; nullopt if absent.
  [[nodiscard]] std::optional<Histogram> find_histogram(std::string_view name) const;
  [[nodiscard]] bool empty() const;

  void reset();

  /// Text exposition: one deterministic `kind name value` line per metric
  /// (histograms expand to their aggregate plus one line per bucket).
  [[nodiscard]] std::string to_text() const;

  /// JSON exposition: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {bounds, buckets, count, sum, min, max}}}.
  [[nodiscard]] json::Value to_json() const;

  /// Prometheus text exposition (format version 0.0.4): metric names are
  /// sanitized (every char outside [a-zA-Z0-9_:] becomes '_'), each metric
  /// gets a `# TYPE` line, and histograms render as cumulative
  /// `<name>_bucket{le="..."}` series (ending at le="+Inf") plus
  /// `<name>_sum` / `<name>_count`. Deterministic: name-sorted, bit-stable
  /// for a given registry state — what `GET /metrics` serves.
  [[nodiscard]] std::string to_prometheus() const;

  /// Folds another registry into this one: counters add, gauges take the
  /// other's value (last write wins, and `other` is the later run), and
  /// histograms add bucket-wise when the bounds match — on a bounds mismatch
  /// the other's samples fold into this histogram's aggregate and overflow
  /// bucket rather than being dropped. Merging a registry into itself is a
  /// no-op.
  void merge_from(const Registry& other);

  /// The process-wide registry.
  static Registry& global();

  /// The registry this thread publishes into: global() unless a
  /// ScopedRegistry redirect is active.
  static Registry& current();

 private:
  friend class ScopedRegistry;

  /// One lock stripe: the counters/gauges/histograms whose names hash here.
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, long long, std::less<>> counters;
    std::map<std::string, double, std::less<>> gauges;
    std::map<std::string, Histogram, std::less<>> histograms;
  };

  /// A name-sorted copy of every shard's maps (for deterministic exposition
  /// and snapshot-then-apply merging).
  struct Snapshot {
    std::map<std::string, long long, std::less<>> counters;
    std::map<std::string, double, std::less<>> gauges;
    std::map<std::string, Histogram, std::less<>> histograms;
  };

  static constexpr std::size_t kShards = 16;

  [[nodiscard]] Shard& shard_for(std::string_view name) const;
  [[nodiscard]] Snapshot snapshot() const;

  mutable std::array<Shard, kShards> shards_;
};

/// RAII redirect of Registry::current() for this thread — the sweep engine
/// wraps each task in one so every run publishes into its own registry.
/// Nests (restores the previous redirect on destruction).
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& registry);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

}  // namespace zc::metrics
