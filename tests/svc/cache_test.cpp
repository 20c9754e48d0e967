// Sharded LRU result cache: hit/miss/eviction semantics and stats.
#include "svc/cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/fingerprint.hpp"

namespace rat::svc {
namespace {

ResultCache::Value value_for(double fclock) {
  core::ThroughputPrediction p;
  p.fclock_hz = fclock;
  return std::make_shared<const std::vector<core::ThroughputPrediction>>(
      std::vector<core::ThroughputPrediction>{p});
}

TEST(SvcCache, MissThenHit) {
  ResultCache cache(4, 1);
  const std::string key = "k1";
  const std::uint64_t fp = fnv1a64(key);
  EXPECT_EQ(cache.get(key, fp), nullptr);
  cache.put(key, fp, value_for(1.0));
  const ResultCache::Value v = cache.get(key, fp);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->at(0).fclock_hz, 1.0);
  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.size, 1u);
}

TEST(SvcCache, EvictsLeastRecentlyUsed) {
  // One shard, two slots: touching "a" makes "b" the LRU victim.
  ResultCache cache(2, 1);
  auto put = [&](const std::string& k, double v) {
    cache.put(k, fnv1a64(k), value_for(v));
  };
  auto get = [&](const std::string& k) {
    return cache.get(k, fnv1a64(k));
  };
  put("a", 1.0);
  put("b", 2.0);
  ASSERT_NE(get("a"), nullptr);  // refresh: "b" is now least recent
  put("c", 3.0);                 // evicts "b"
  EXPECT_NE(get("a"), nullptr);
  EXPECT_EQ(get("b"), nullptr);
  EXPECT_NE(get("c"), nullptr);
  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.size, 2u);
}

TEST(SvcCache, PutRefreshesExistingKey) {
  ResultCache cache(2, 1);
  const std::uint64_t fp = fnv1a64("k");
  cache.put("k", fp, value_for(1.0));
  cache.put("k", fp, value_for(2.0));  // concurrent-miss resolution path
  const ResultCache::Value v = cache.get("k", fp);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->at(0).fclock_hz, 2.0);
  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SvcCache, ZeroCapacityDisablesStorage) {
  ResultCache cache(0, 8);
  const std::uint64_t fp = fnv1a64("k");
  cache.put("k", fp, value_for(1.0));
  EXPECT_EQ(cache.get("k", fp), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SvcCache, ShardsNeverExceedTotalCapacityByMuchAndClearEmpties) {
  // capacity 8 over 4 shards -> 2 per shard; inserting many distinct keys
  // keeps the resident count within capacity + n_shards - 1.
  ResultCache cache(8, 4);
  for (int i = 0; i < 100; ++i) {
    const std::string k = "key" + std::to_string(i);
    cache.put(k, fnv1a64(k), value_for(static_cast<double>(i)));
  }
  EXPECT_LE(cache.stats().size, 8u + 4u - 1u);
  EXPECT_GT(cache.stats().evictions, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.get("key99", fnv1a64("key99")), nullptr);
}

TEST(SvcCache, PutReportsInsertRefreshAndEviction) {
  ResultCache cache(2, 1);
  const std::uint64_t fp_a = fnv1a64("a");
  EXPECT_EQ(cache.put("a", fp_a, value_for(1.0)),
            ResultCache::PutOutcome::kInserted);
  // Same key again: the concurrent-duplicate-compute path, reported as
  // a refresh rather than a genuine insert.
  EXPECT_EQ(cache.put("a", fp_a, value_for(1.5)),
            ResultCache::PutOutcome::kRefreshed);
  EXPECT_EQ(cache.put("b", fnv1a64("b"), value_for(2.0)),
            ResultCache::PutOutcome::kInserted);
  EXPECT_EQ(cache.put("c", fnv1a64("c"), value_for(3.0)),
            ResultCache::PutOutcome::kInsertedEvicting);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SvcCache, ZeroCapacityPutReportsDropped) {
  ResultCache cache(0, 4);
  EXPECT_EQ(cache.put("k", fnv1a64("k"), value_for(1.0)),
            ResultCache::PutOutcome::kDropped);
}

TEST(SvcCache, RefreshDoesNotDoubleCountBytes) {
  ResultCache cache(4, 1);
  const std::uint64_t fp = fnv1a64("k");
  cache.put("k", fp, value_for(1.0));
  const std::uint64_t after_insert = cache.stats().bytes;
  EXPECT_GT(after_insert, 0u);
  // Refreshing with an equally sized value must leave bytes unchanged.
  cache.put("k", fp, value_for(2.0));
  EXPECT_EQ(cache.stats().bytes, after_insert);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(SvcCache, BytesTrackInsertEvictAndClear) {
  ResultCache cache(2, 1);
  cache.put("aa", fnv1a64("aa"), value_for(1.0));
  cache.put("bb", fnv1a64("bb"), value_for(2.0));
  const std::uint64_t two_entries = cache.stats().bytes;
  cache.put("cc", fnv1a64("cc"), value_for(3.0));  // evicts one
  // Keys are the same length and values the same shape, so eviction +
  // insert nets out to the two-entry footprint.
  EXPECT_EQ(cache.stats().bytes, two_entries);
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(SvcCache, HitRatioDerivesFromStats) {
  ResultCache cache(4, 1);
  EXPECT_EQ(hit_ratio(cache.stats()), 0.0);  // no lookups yet
  const std::uint64_t fp = fnv1a64("k");
  cache.get("k", fp);  // miss
  EXPECT_EQ(hit_ratio(cache.stats()), 0.0);
  cache.put("k", fp, value_for(1.0));
  cache.get("k", fp);  // hit
  EXPECT_DOUBLE_EQ(hit_ratio(cache.stats()), 0.5);
  cache.get("k", fp);  // hit
  const ResultCache::Stats st = cache.stats();
  EXPECT_DOUBLE_EQ(hit_ratio(st), 2.0 / 3.0);
}

TEST(SvcCache, ClearZeroesTheExportedFootprintGauges) {
  // Regression: clear() zeroed size_/bytes_ but never pushed the zeroed
  // svc.cache.size / svc.cache.bytes gauges, so the metrics export kept
  // reporting the pre-clear footprint as phantom resident entries.
  obs::set_enabled(true);
  obs::Registry::global().reset();
  ResultCache cache(4, 1);
  cache.put("k1", fnv1a64("k1"), value_for(1.0));
  cache.put("k2", fnv1a64("k2"), value_for(2.0));
  auto gauges = obs::Registry::global().gauges();
  EXPECT_GT(gauges.at("svc.cache.size"), 0.0);
  EXPECT_GT(gauges.at("svc.cache.bytes"), 0.0);

  cache.clear();
  gauges = obs::Registry::global().gauges();
  EXPECT_EQ(gauges.at("svc.cache.size"), 0.0);
  EXPECT_EQ(gauges.at("svc.cache.bytes"), 0.0);
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

TEST(SvcCache, HitRatioGaugeRefreshesAtStatsTimeNotPerLookup) {
  // The per-get gauge write was hoisted out of the hot path: lookups
  // alone leave the gauge stale, reading stats() (the export point)
  // brings it current.
  obs::set_enabled(true);
  obs::Registry::global().reset();
  ResultCache cache(4, 1);
  const std::uint64_t fp = fnv1a64("k");
  cache.get("k", fp);  // miss; no gauge write on the lookup path
  EXPECT_EQ(obs::Registry::global().gauges().count("svc.cache.hit_ratio"),
            0u);
  cache.put("k", fp, value_for(1.0));
  cache.get("k", fp);  // hit
  const ResultCache::Stats st = cache.stats();
  EXPECT_DOUBLE_EQ(obs::Registry::global().gauges().at("svc.cache.hit_ratio"),
                   hit_ratio(st));
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

TEST(SvcCache, DistinctKeysWithEqualFingerprintsDoNotAlias) {
  // The shard index comes from the fingerprint, but identity is the full
  // key: a forced "collision" (same fp, different key) must stay two
  // distinct entries.
  ResultCache cache(4, 2);
  cache.put("k1", 42, value_for(1.0));
  cache.put("k2", 42, value_for(2.0));
  ASSERT_NE(cache.get("k1", 42), nullptr);
  ASSERT_NE(cache.get("k2", 42), nullptr);
  EXPECT_EQ(cache.get("k1", 42)->at(0).fclock_hz, 1.0);
  EXPECT_EQ(cache.get("k2", 42)->at(0).fclock_hz, 2.0);
}

}  // namespace
}  // namespace rat::svc
