// Sharded LRU result cache for the prediction service.
//
// The service memoizes predict_all by canonical worksheet key
// (svc/fingerprint.hpp): repeated evaluations of the same design — the
// common case in Figure-1 style iterative exploration, where a driver
// re-queries neighbours of the current candidate — become O(1) lookups.
//
// Concurrency model: the key's 64-bit fingerprint selects one of a fixed
// number of shards, each protected by its own mutex and holding an
// independent LRU list, so concurrent requests for different worksheets
// rarely contend. Values are stored by shared_ptr and returned without
// copying the prediction vector.
//
// Capacity is per-cache and split evenly across shards (each shard holds
// at most ceil(capacity / n_shards) entries), so the worst-case resident
// entry count never exceeds capacity + n_shards - 1. A capacity of 0
// disables storage entirely: every get misses, every put is dropped —
// useful for benchmarking the cold path.
//
// Stats are tracked natively (atomics, always on, exposed through the
// service's "stats" op) and mirrored into the obs registry when
// observability is enabled: svc.cache.hit / svc.cache.miss /
// svc.cache.eviction counters and an svc.cache.size gauge.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/throughput.hpp"

namespace rat::svc {

class ResultCache {
 public:
  using Value = std::shared_ptr<const std::vector<core::ThroughputPrediction>>;

  /// What put() actually did: a genuine insert, or a kRefreshed when the
  /// key was already resident (e.g. two concurrent misses computing the
  /// same worksheet).
  enum class PutOutcome {
    kDropped,           ///< capacity 0: nothing stored
    kInserted,          ///< new entry, shard had room
    kInsertedEvicting,  ///< new entry, shard's LRU tail evicted
    kRefreshed,         ///< key already resident; value + LRU refreshed
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t size = 0;   ///< resident entries right now
    std::uint64_t bytes = 0;  ///< approx resident bytes (keys + predictions)
  };

  /// @p capacity entries total across @p n_shards shards (clamped to at
  /// least 1 shard; 0 capacity disables the cache, see file comment).
  explicit ResultCache(std::size_t capacity, std::size_t n_shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Look up @p key (its fingerprint @p fp picks the shard). A hit
  /// refreshes the entry's LRU position. Null on miss.
  Value get(const std::string& key, std::uint64_t fp);

  /// Insert or refresh @p key -> @p value, evicting the shard's least
  /// recently used entry if the shard is full. The outcome reports which
  /// of those happened (see PutOutcome).
  PutOutcome put(const std::string& key, std::uint64_t fp, Value value);

  std::size_t capacity() const { return capacity_; }
  Stats stats() const;

  /// Drop every entry (tests; does not reset hit/miss counters).
  void clear();

 private:
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<std::string, Value>> lru;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, Value>>::iterator>
        index;
  };

  Shard& shard_for(std::uint64_t fp) { return *shards_[fp % shards_.size()]; }

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> size_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// hits / (hits + misses); 0 before the first lookup. The derived gauge
/// exported as svc.cache.hit_ratio (docs/SERVICE.md).
inline double hit_ratio(const ResultCache::Stats& st) {
  const std::uint64_t total = st.hits + st.misses;
  return total == 0 ? 0.0
                    : static_cast<double>(st.hits) /
                          static_cast<double>(total);
}

}  // namespace rat::svc
