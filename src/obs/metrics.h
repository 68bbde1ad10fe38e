// Lock-cheap metrics: counters, gauges, fixed-bucket histograms.
//
// Hot paths (the TLS record layer, per-request controller handlers) pay a
// single relaxed atomic add on a cache-line-private shard; aggregation
// happens only when an exporter walks the registry. Instruments are
// registered once (name + label set) and live for the registry's lifetime,
// so call sites cache references instead of re-looking-up per event.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vnfsgx::obs {

/// Sorted key/value label set attached to an instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Shard count for write-heavy instruments. Power of two; each shard sits
/// on its own cache line so concurrent writers do not bounce a line.
inline constexpr std::size_t kMetricShards = 8;

namespace detail {
/// Stable per-thread shard index (threads are striped round-robin).
std::size_t shard_index() noexcept;

/// Relaxed CAS add for pre-C++20-arithmetic atomic<double>.
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonic event counter. add() is wait-free: one relaxed fetch_add.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) noexcept {
    shards_[detail::shard_index()].value.fetch_add(delta,
                                                   std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() noexcept {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Last-value instrument (active connections, queue depths).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram with sharded bucket counts.
///
/// `bounds` are ascending inclusive upper bounds; an implicit +Inf bucket
/// catches the tail. observe() is a binary search plus one relaxed add
/// (and a CAS add into the running sum) — no locks.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value) noexcept { observe(value, 1); }
  /// `count` observations of the same value: one bucket add and one sum
  /// add, instead of `count` of each.
  void observe(double value, std::uint64_t count) noexcept;

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1.
  std::vector<std::uint64_t> bucket_counts() const;

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// bucket holding the target rank — the histogram_quantile() rule.
  /// Values in the +Inf bucket clamp to the last finite bound. Returns 0
  /// for an empty histogram.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  void reset() noexcept;

  /// `count` ascending bounds starting at `start`, multiplied by `factor`.
  static std::vector<double> exponential_bounds(double start, double factor,
                                                int count);
  /// Default latency bounds in microseconds: 1us .. ~8.4s, factor 2.
  static const std::vector<double>& latency_bounds_us();

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// Point-in-time reading of one instrument, produced by collect().
struct MetricSample {
  std::string name;
  Labels labels;
  std::string help;
  MetricType type = MetricType::kCounter;
  double value = 0;  // counter/gauge reading
  // Histogram-only fields.
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  double sum = 0;
  std::uint64_t count = 0;
  double p50 = 0, p95 = 0, p99 = 0;
};

/// Callback that appends externally owned readings (e.g. the logging
/// module's per-level counters) to a collect() pass.
using Collector = std::function<void(std::vector<MetricSample>&)>;

/// Named instrument registry. Registration takes a mutex; returned
/// references stay valid (and lock-free to update) for the registry's
/// lifetime, so hot paths register once and cache the reference.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  /// `bounds` applies on first registration; later lookups reuse the
  /// existing instrument.
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       std::vector<double> bounds = {},
                       const std::string& help = "");

  void add_collector(Collector collector);

  /// Snapshot every instrument (plus collector output), sorted by name
  /// then labels — deterministic for golden tests and exporters.
  std::vector<MetricSample> collect() const;

  /// Zero every instrument in place (registered references stay valid).
  /// For tests and examples that want per-run numbers.
  void reset();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    std::string help;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& find_or_create(const std::string& name, const Labels& labels,
                        const std::string& help, MetricType type,
                        std::vector<double> bounds);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // key: name + sorted labels
  std::vector<Collector> collectors_;
};

/// Process-wide default registry used by the instrumented subsystems.
MetricsRegistry& registry();

}  // namespace vnfsgx::obs
