// Content-addressed result caching: the job server's reply memo skips
// re-simulating a repeated request.  Keys are 64-bit FNV-1a digests
// of the task parameters (build them with Fnv1a so every input that
// changes the result is folded into the key); values live in a
// thread-safe LRU of configurable capacity with hit/miss/eviction
// counters for observability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/telemetry.hpp"

namespace si::runtime {

/// Process-wide telemetry for every ResultCache instance, unifying the
/// per-cache CacheStats counters under the obs registry.
struct CacheTelemetry {
  obs::Counter& hits = obs::counter("runtime.cache_hits");
  obs::Counter& misses = obs::counter("runtime.cache_misses");
  obs::Counter& evictions = obs::counter("runtime.cache_evictions");

  static CacheTelemetry& get() {
    static CacheTelemetry t;
    return t;
  }
};

/// Incremental 64-bit FNV-1a hasher for composing cache keys.
class Fnv1a {
 public:
  Fnv1a& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  Fnv1a& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Fnv1a& f64(double v) {  // hash the bit pattern, not the rounded value
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }
  Fnv1a& str(std::string_view s) { return bytes(s.data(), s.size()); }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// Thread-safe LRU keyed by a 64-bit content digest.
///
/// Values are held as std::shared_ptr<const V>, and every operation is
/// O(1) element-copies under the mutex: a hit hands out a shared
/// reference, never a copy of the value.  The earlier design copied the
/// whole V inside lookup() (and twice in get_or_compute()) while
/// holding the lock — on a long waveform that serialized every other
/// thread behind a memcpy the moment the cache was shared across
/// concurrent requests.  Holders get immutable snapshots: an eviction
/// or overwrite drops the cache's reference, never the data under a
/// reader.
template <typename V>
class ResultCache {
 public:
  using Ptr = std::shared_ptr<const V>;

  explicit ResultCache(std::size_t capacity = 256)
      : capacity_(capacity ? capacity : 1) {}

  /// Returns a shared reference to the cached value, or nullptr on a
  /// miss.  The critical section moves list nodes and copies one
  /// shared_ptr — its length is independent of sizeof(V).
  Ptr lookup(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      CacheTelemetry::get().misses.add();
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recent
    ++stats_.hits;
    CacheTelemetry::get().hits.add();
    return it->second->second;
  }

  /// Stores a value the caller already owns behind a shared_ptr (no
  /// copy at all).  Passing nullptr is invalid.
  void store_shared(std::uint64_t key, Ptr value) {
    if (!value)
      throw std::invalid_argument("ResultCache::store_shared: null value");
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    if (index_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
      CacheTelemetry::get().evictions.add();
    }
  }

  /// Convenience: moves `value` onto the heap outside the lock, then
  /// stores the handle.
  void store(std::uint64_t key, V value) {
    store_shared(key, std::make_shared<const V>(std::move(value)));
  }

  /// lookup-or-compute.  `compute` runs outside the lock, so two
  /// threads racing on the same cold key may both compute (both store
  /// the same content-addressed value — wasted work, never wrong).  The
  /// computed value is moved to the heap once and shared; no V copy is
  /// made on either the hit or the miss path.
  template <typename F>
  Ptr get_or_compute(std::uint64_t key, F compute) {
    if (Ptr hit = lookup(key)) return hit;
    auto value = std::make_shared<const V>(compute());
    store_shared(key, value);
    return value;
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
  }
  std::size_t capacity() const { return capacity_; }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    stats_ = CacheStats{};
  }

 private:
  using Entry = std::pair<std::uint64_t, Ptr>;

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator>
      index_;
  CacheStats stats_;
};

}  // namespace si::runtime
