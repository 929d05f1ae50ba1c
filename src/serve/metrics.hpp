// Service metrics: counters, gauges and latency histograms.
//
// The serving layer's observability surface. Counters and gauges are
// lock-free atomics so the request hot path never contends on a metrics
// mutex; latency histograms take a short lock per observation (bucketed
// into a fixed-width stats::Histogram plus exact min/max/sum, quantiles
// interpolated from the buckets). A MetricsRegistry names and owns the
// instruments and renders a one-shot snapshot for CLIs and tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats/histogram.hpp"

namespace sspred::serve {

/// Monotonically increasing event count.
class Counter {
 public:
  void increment(std::uint64_t by = 1) noexcept {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, busy workers).
class Gauge {
 public:
  void add(std::int64_t by) noexcept {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  void sub(std::int64_t by) noexcept { add(-by); }
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Latency (or any size-like) distribution over a fixed range [0, hi),
/// bucketed into a stats::Histogram. Values beyond `hi` clamp into the
/// last bucket (stats::Histogram semantics), so quantiles saturate at the
/// range top instead of being dropped.
class LatencyHistogram {
 public:
  /// `hi` is the top of the tracked range, `bins` the bucket count.
  explicit LatencyHistogram(double hi = 1.0, std::size_t bins = 256);

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Quantile q in [0,1], interpolated within the owning bucket; exact
  /// min/max for q==0/1. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  mutable std::mutex mutex_;
  stats::Histogram hist_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One rendered metric line of a snapshot.
struct MetricSample {
  std::string name;
  std::string kind;  ///< "counter", "gauge" or "histogram"
  double value = 0.0;               ///< counter/gauge value, histogram count
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, mean = 0.0;  ///< histograms only
};

/// Named instrument registry. Instruments are created on first use and
/// have stable addresses for the registry's lifetime, so hot paths can
/// cache `Counter&` references and bump them without any lookup.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// First use fixes the histogram's range/bins; later calls ignore them.
  [[nodiscard]] LatencyHistogram& histogram(const std::string& name,
                                            double hi = 1.0,
                                            std::size_t bins = 256);

  /// Attaches `child` so snapshots (and both renderings) include its
  /// instruments as "label/name" rows after this registry's own — how
  /// the service exposes its learn/ subtree and how the cluster frontend
  /// nests a node's registry (whose own children yield "node0/learn/..."
  /// rows: prefixes compose per attachment level). An EMPTY label merges
  /// the child's rows unprefixed — a stable parent registry can front a
  /// replaceable one. `child` is not owned and must stay alive until
  /// detached (remove_child()/clear_children()) or the registry dies.
  void add_child(const std::string& label, const MetricsRegistry* child);
  /// Detaches every child attached under `label`.
  void remove_child(const std::string& label);
  void clear_children();

  /// All instruments, name-sorted (histograms summarized as p50/p95/p99),
  /// followed by each attached child's instruments label-prefixed.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Snapshot rendered as an aligned text table.
  [[nodiscard]] std::string render() const;

  /// Snapshot rendered as JSON: {"metrics": [{"name", "kind", "value",
  /// and for histograms "mean"/"p50"/"p95"/"p99"}, ...]} — the
  /// machine-readable counterpart of render().
  [[nodiscard]] std::string render_json() const;

 private:
  mutable std::mutex mutex_;  ///< guards the maps, not the instruments
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
  /// Attached sub-registries, rendered label-prefixed (never snapshotted
  /// while holding mutex_ — children take their own locks).
  std::vector<std::pair<std::string, const MetricsRegistry*>> children_;
};

}  // namespace sspred::serve
