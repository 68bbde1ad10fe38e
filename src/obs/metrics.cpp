#include "obs/metrics.h"

#include <algorithm>

#include "common/error.h"
#include "common/logging.h"

namespace vnfsgx::obs {

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return index;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = latency_bounds_us();
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw Error("obs: histogram bounds must be ascending");
  }
  const std::size_t n = bounds_.size() + 1;  // +Inf tail bucket
  for (Shard& s : shards_) {
    s.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.buckets[i].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::observe(double value, std::uint64_t count) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // bounds_.size() = +Inf
  Shard& s = shards_[detail::shard_index()];
  s.buckets[bucket].fetch_add(count, std::memory_order_relaxed);
  detail::atomic_add(s.sum, value * static_cast<double>(count));
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  const std::size_t n = bounds_.size() + 1;
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < n; ++i) {
      total += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::sum() const noexcept {
  double total = 0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double Histogram::quantile(double q) const {
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (counts[i] == 0) continue;
    if (i == counts.size() - 1) {
      // +Inf bucket: clamp to the largest finite bound.
      return bounds_.empty() ? 0 : bounds_.back();
    }
    const double lower = (i == 0) ? 0.0 : bounds_[i - 1];
    const double upper = bounds_[i];
    const double before =
        static_cast<double>(cumulative) - static_cast<double>(counts[i]);
    const double within = (rank - before) / static_cast<double>(counts[i]);
    return lower + (upper - lower) * within;
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

void Histogram::reset() noexcept {
  const std::size_t n = bounds_.size() + 1;
  for (Shard& s : shards_) {
    for (std::size_t i = 0; i < n; ++i) {
      s.buckets[i].store(0, std::memory_order_relaxed);
    }
    s.sum.store(0.0, std::memory_order_relaxed);
  }
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double v = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

const std::vector<double>& Histogram::latency_bounds_us() {
  static const std::vector<double> bounds = exponential_bounds(1.0, 2.0, 24);
  return bounds;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string instrument_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key.push_back('\x01');
    key += k;
    key.push_back('\x02');
    key += v;
  }
  return key;
}

const char* level_label(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      break;
  }
  return "off";
}

/// Pull the logging module's per-level counters into a collect() pass.
/// (Pull, not push: common/ must not depend on obs/.)
void collect_log_counters(std::vector<MetricSample>& out) {
  for (const LogLevel level : {LogLevel::kDebug, LogLevel::kInfo,
                               LogLevel::kWarn, LogLevel::kError}) {
    MetricSample s;
    s.name = "vnfsgx_log_messages_total";
    s.labels = {{"level", level_label(level)}};
    s.help = "Log lines emitted, by level";
    s.type = MetricType::kCounter;
    s.value = static_cast<double>(log_message_count(level));
    out.push_back(std::move(s));
  }
}

}  // namespace

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, const Labels& labels, const std::string& help,
    MetricType type, std::vector<double> bounds) {
  const Labels ordered = sorted(labels);
  const std::string key = instrument_key(name, ordered);
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.type != type) {
      throw Error("obs: instrument '" + name +
                  "' re-registered with a different type");
    }
    return it->second;
  }
  Entry entry;
  entry.name = name;
  entry.labels = ordered;
  entry.help = help;
  entry.type = type;
  switch (type) {
    case MetricType::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      entry.histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  return entries_.emplace(key, std::move(entry)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels,
                                  const std::string& help) {
  return *find_or_create(name, labels, help, MetricType::kCounter, {}).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                              const std::string& help) {
  return *find_or_create(name, labels, help, MetricType::kGauge, {}).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  return *find_or_create(name, labels, help, MetricType::kHistogram,
                         std::move(bounds))
              .histogram;
}

void MetricsRegistry::add_collector(Collector collector) {
  const std::lock_guard<std::mutex> lock(mutex_);
  collectors_.push_back(std::move(collector));
}

std::vector<MetricSample> MetricsRegistry::collect() const {
  std::vector<MetricSample> out;
  std::vector<Collector> collectors;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      MetricSample s;
      s.name = entry.name;
      s.labels = entry.labels;
      s.help = entry.help;
      s.type = entry.type;
      switch (entry.type) {
        case MetricType::kCounter:
          s.value = static_cast<double>(entry.counter->value());
          break;
        case MetricType::kGauge:
          s.value = static_cast<double>(entry.gauge->value());
          break;
        case MetricType::kHistogram:
          s.bounds = entry.histogram->bounds();
          s.buckets = entry.histogram->bucket_counts();
          s.sum = entry.histogram->sum();
          s.count = entry.histogram->count();
          s.p50 = entry.histogram->p50();
          s.p95 = entry.histogram->p95();
          s.p99 = entry.histogram->p99();
          break;
      }
      out.push_back(std::move(s));
    }
    collectors = collectors_;
  }
  for (const Collector& c : collectors) c(out);
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, entry] : entries_) {
    switch (entry.type) {
      case MetricType::kCounter:
        entry.counter->reset();
        break;
      case MetricType::kGauge:
        entry.gauge->reset();
        break;
      case MetricType::kHistogram:
        entry.histogram->reset();
        break;
    }
  }
}

MetricsRegistry& registry() {
  static MetricsRegistry* instance = [] {
    auto* r = new MetricsRegistry();
    r->add_collector(collect_log_counters);
    return r;
  }();
  return *instance;
}

}  // namespace vnfsgx::obs
