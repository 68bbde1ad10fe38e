// A striped memo invalidated by a generation counter.
//
// The owner bumps the generation on every policy change (a new CA root or
// CRL, a new expected digest). A lookup never serves an entry stored under
// an older generation, and a value computed while a bump landed is never
// stored, so there is no stale-grant window. The map is striped by key
// hash so lookups from different runtime shards do not serialize on one
// mutex; each stripe lazily empties itself the first time it is touched
// under a newer generation. Lookups and drops feed
// vnfsgx_cache_requests_total{cache,result} and
// vnfsgx_cache_evictions_total{cache}, registered once per cache.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"

namespace vnfsgx::obs {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class GenerationalCache {
 public:
  /// `label` is the `cache` metric label; `capacity` is split evenly
  /// across the stripes.
  GenerationalCache(const std::string& label, std::size_t capacity)
      : hits_total_(registry().counter(
            "vnfsgx_cache_requests_total", {{"cache", label}, {"result", "hit"}},
            "Generational cache lookups by outcome")),
        misses_total_(registry().counter(
            "vnfsgx_cache_requests_total",
            {{"cache", label}, {"result", "miss"}},
            "Generational cache lookups by outcome")),
        evictions_total_(registry().counter(
            "vnfsgx_cache_evictions_total", {{"cache", label}},
            "Cached entries dropped (generation bump, capacity, or explicit "
            "flush)")),
        stripe_capacity_(std::max<std::size_t>(capacity / kStripes, 1)) {}

  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Invalidate every entry; the next lookup in each stripe misses.
  void bump() { generation_.fetch_add(1, std::memory_order_acq_rel); }

  std::optional<Value> find(const Key& key) {
    Stripe& stripe = stripe_for(key);
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    sync_locked(stripe);
    const auto it = stripe.map.find(key);
    if (it == stripe.map.end()) {
      ++stripe.misses;
      misses_total_.add();
      return std::nullopt;
    }
    ++stripe.hits;
    hits_total_.add();
    return it->second;
  }

  /// Publish `value`, computed under generation `computed_at` (read before
  /// the computation began). Dropped if the generation moved since.
  void store(const Key& key, const Value& value, std::uint64_t computed_at) {
    Stripe& stripe = stripe_for(key);
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    if (computed_at != generation()) return;
    sync_locked(stripe);
    if (stripe.map.size() >= stripe_capacity_) {
      stripe.map.erase(stripe.map.begin());
      evictions_total_.add();
    }
    stripe.map.insert_or_assign(key, value);
  }

  /// Drop every entry without bumping the generation.
  void clear() {
    for (Stripe& stripe : stripes_) {
      const std::lock_guard<std::mutex> lock(stripe.mutex);
      drop_locked(stripe);
    }
  }

  // Per-instance telemetry for tests and benches.
  std::uint64_t hits() const { return sum(&Stripe::hits); }
  std::uint64_t misses() const { return sum(&Stripe::misses); }

 private:
  static constexpr std::size_t kStripes = 8;

  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<Key, Value, Hash> map;
    std::uint64_t generation = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  Stripe& stripe_for(const Key& key) {
    return stripes_[Hash{}(key) % kStripes];
  }

  void drop_locked(Stripe& stripe) {
    if (!stripe.map.empty()) evictions_total_.add(stripe.map.size());
    stripe.map.clear();
  }

  // Generation reads happen under the stripe lock, so a stripe's stamp
  // only moves forward.
  void sync_locked(Stripe& stripe) {
    const std::uint64_t current = generation();
    if (stripe.generation == current) return;
    drop_locked(stripe);
    stripe.generation = current;
  }

  std::uint64_t sum(std::uint64_t Stripe::*field) const {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      const std::lock_guard<std::mutex> lock(stripe.mutex);
      total += stripe.*field;
    }
    return total;
  }

  Counter& hits_total_;
  Counter& misses_total_;
  Counter& evictions_total_;
  const std::size_t stripe_capacity_;
  std::atomic<std::uint64_t> generation_{0};
  std::array<Stripe, kStripes> stripes_;
};

}  // namespace vnfsgx::obs
