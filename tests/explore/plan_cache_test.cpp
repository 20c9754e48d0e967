#include "explore/plan_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/designspace.hpp"
#include "core/units.hpp"
#include "explore/explorer.hpp"
#include "store/checksum.hpp"
#include "store/codec.hpp"
#include "store/journal.hpp"

namespace rat::explore {
namespace {

using core::CandidateFactory;
using core::DesignAxes;
using core::DesignCandidate;
using core::DesignPoint;
using core::Requirements;
using core::ResourceItem;

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The journal payload of one cache entry: op 1 (put) | key | value.
std::string put_payload(const std::string& key, const std::string& value) {
  std::string p;
  store::put_u8(p, 1);
  store::put_string(p, key);
  store::put_string(p, value);
  return p;
}

/// Every (key, value) put in @p dir's journal, in journal order.
std::vector<std::pair<std::string, std::string>> journal_entries(
    const fs::path& dir) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& rec : store::recover_journal(dir / "journal").records) {
    store::Cursor cur(rec.payload);
    EXPECT_EQ(cur.u8(), 1u);
    std::string key = cur.string();
    std::string value = cur.string();
    cur.expect_done();
    out.emplace_back(std::move(key), std::move(value));
  }
  return out;
}

std::string render_result(const core::DesignSpaceResult& r) {
  std::string out = r.outcome.render_trace();
  out += "proceed=" + std::to_string(r.outcome.proceed);
  out += " accepted=" + (r.outcome.accepted_index
                             ? std::to_string(*r.outcome.accepted_index)
                             : std::string("none"));
  for (const auto& p : r.outcome.predictions) {
    const char* bytes = reinterpret_cast<const char*>(&p);
    out.append(bytes, sizeof p);
  }
  return out;
}

/// Only full gate-pipeline runs are memoized (throughput rejections are
/// synthesized on the fly, cheaper than a cache probe). @p multipliers 200
/// makes every point pass throughput cheaply yet fail the resource gate,
/// so exhaust-the-space tests score — and cache — every point.
CandidateFactory simple_factory(int multipliers = 1) {
  return [multipliers](const DesignPoint& p)
             -> std::optional<DesignCandidate> {
    DesignCandidate c;
    c.inputs = core::pdf1d_inputs();
    c.inputs.name = p.label();
    c.inputs.comp.throughput_ops_per_cycle =
        2.5 * static_cast<double>(p.parallelism);
    c.resources = {ResourceItem{"units", multipliers, p.format_bits, 0, 400,
                                static_cast<int>(p.parallelism)}};
    return c;
  };
}

DesignAxes small_axes() {
  DesignAxes axes;
  axes.parallelism = {1, 2, 4, 8, 16};
  axes.fclock_hz = {core::mhz(100)};
  axes.format_bits = {18};
  return axes;
}

TEST(ExplorePlanCache, KeyIsCanonicalAndContextSensitive) {
  const auto device = rcsim::virtex4_lx100();
  Requirements req;
  const DesignCandidate cand = *simple_factory()(DesignPoint{});
  const std::string k = PlanCache::key(cand, req, device);
  EXPECT_EQ(k.substr(0, 17), "rat.plan.v1|cand=");
  EXPECT_EQ(k.size(), 17u + 16u + 5u + 16u);
  EXPECT_EQ(k, PlanCache::key(cand, req, device));  // pure function

  Requirements other = req;
  other.min_speedup += 1.0;
  EXPECT_NE(PlanCache::key(cand, other, device), k);
  DesignCandidate moved = cand;
  moved.decision_clock_hz += 1.0;
  EXPECT_NE(PlanCache::key(moved, req, device), k);
}

TEST(ExplorePlanCache, WarmRerunEliminatesEveryEvaluation) {
  const auto device = rcsim::virtex4_lx100();
  Requirements req;
  req.min_speedup = 7.0;
  const fs::path dir = fresh_dir("plan_cache_warm");
  const auto plain = explore_design_space_pruned(small_axes(),
                                                 simple_factory(), req,
                                                 device);

  PlanCache cold_cache(dir);
  ExploreOptions opts;
  opts.plan_cache = &cold_cache;
  const auto cold = explore_design_space_pruned(small_axes(), simple_factory(),
                                                req, device, opts);
  EXPECT_EQ(render_result(cold.design), render_result(plain.design));
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_GT(cold.stats.cache_puts, 0u);
  EXPECT_GT(cold.stats.points_evaluated, 0u);

  // A fresh process (fresh PlanCache handle) over the same directory:
  // byte-identical result, zero fresh gate-pipeline runs.
  PlanCache warm_cache(dir);
  EXPECT_EQ(warm_cache.size(), cold.stats.cache_puts);
  opts.plan_cache = &warm_cache;
  const auto warm = explore_design_space_pruned(small_axes(), simple_factory(),
                                                req, device, opts);
  EXPECT_EQ(render_result(warm.design), render_result(plain.design));
  EXPECT_EQ(warm.stats.points_evaluated, 0u);
  EXPECT_GT(warm.stats.cache_hits, 0u);
  EXPECT_EQ(warm.stats.points_restored, cold.stats.points_evaluated);
}

TEST(ExplorePlanCache, OverlappingCampaignReusesSharedPoints) {
  // Content addressing, not positions: a second campaign whose axes merely
  // overlap the first replays the shared points even though their
  // enumeration indices differ (the trace is re-stamped on decode).
  const auto device = rcsim::virtex4_lx100();
  Requirements req;
  req.min_speedup = 0.5;  // every point passes throughput ...
  const CandidateFactory factory = simple_factory(200);  // ... fails resources
  const fs::path dir = fresh_dir("plan_cache_overlap");

  DesignAxes first = small_axes();
  first.parallelism = {1, 2, 4, 8};
  PlanCache cache_a(dir);
  ExploreOptions opts;
  opts.plan_cache = &cache_a;
  (void)explore_design_space_pruned(first, factory, req, device, opts);

  DesignAxes second = small_axes();
  second.parallelism = {2, 4, 8, 16};  // 3 of 4 points shared
  const auto plain =
      explore_design_space_pruned(second, factory, req, device);
  PlanCache cache_b(dir);
  opts.plan_cache = &cache_b;
  const auto reused =
      explore_design_space_pruned(second, factory, req, device, opts);
  EXPECT_EQ(render_result(reused.design), render_result(plain.design));
  EXPECT_EQ(reused.stats.cache_hits, 3u);
  EXPECT_EQ(reused.stats.points_restored, 3u);
}

TEST(ExplorePlanCache, ChangedRequirementsNeverMatchStaleEntries) {
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory = simple_factory(200);
  Requirements req;
  req.min_speedup = 0.5;
  const fs::path dir = fresh_dir("plan_cache_stale");
  {
    PlanCache cache(dir);
    ExploreOptions opts;
    opts.plan_cache = &cache;
    const auto cold =
        explore_design_space_pruned(small_axes(), factory, req, device, opts);
    ASSERT_GT(cold.stats.cache_puts, 0u);
  }
  // A different goal is a different evaluation context: every key misses,
  // nothing stale is ever replayed.
  req.min_speedup = 0.7;
  const auto plain =
      explore_design_space_pruned(small_axes(), factory, req, device);
  PlanCache cache(dir);
  ExploreOptions opts;
  opts.plan_cache = &cache;
  const auto rerun =
      explore_design_space_pruned(small_axes(), factory, req, device, opts);
  EXPECT_EQ(render_result(rerun.design), render_result(plain.design));
  EXPECT_EQ(rerun.stats.cache_hits, 0u);
  EXPECT_EQ(rerun.stats.points_restored, 0u);
}

TEST(ExplorePlanCache, UndecodablePayloadIsAMissNotAnError) {
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory = simple_factory(200);
  Requirements req;
  req.min_speedup = 0.5;
  const fs::path dir = fresh_dir("plan_cache_corrupt");
  std::size_t n_cached = 0;
  {
    PlanCache cache(dir);
    ExploreOptions opts;
    opts.plan_cache = &cache;
    const auto cold =
        explore_design_space_pruned(small_axes(), factory, req, device, opts);
    n_cached = cold.stats.cache_puts;
  }
  ASSERT_GT(n_cached, 0u);
  // Overwrite every cached value with garbage (valid journal records whose
  // payloads no longer decode): lookups must degrade to misses and the
  // run must quietly re-evaluate and re-cache.
  {
    const auto cached = journal_entries(dir);
    ASSERT_EQ(cached.size(), n_cached);
    store::JournalWriter raw(dir / "journal");
    for (const auto& entry : cached)
      raw.append(put_payload(entry.first, "\x7fgarbage"));
  }
  const auto plain =
      explore_design_space_pruned(small_axes(), factory, req, device);
  PlanCache cache(dir);
  ExploreOptions opts;
  opts.plan_cache = &cache;
  const auto rerun =
      explore_design_space_pruned(small_axes(), factory, req, device, opts);
  EXPECT_EQ(render_result(rerun.design), render_result(plain.design));
  EXPECT_EQ(rerun.stats.cache_hits, 0u);
  EXPECT_EQ(rerun.stats.points_evaluated, plain.stats.points_evaluated);

  // The re-cached entries are good again.
  PlanCache healed(dir);
  opts.plan_cache = &healed;
  const auto warm =
      explore_design_space_pruned(small_axes(), factory, req, device, opts);
  EXPECT_EQ(warm.stats.points_evaluated, 0u);
}

TEST(ExplorePlanCache, JournalWrittenByTheSnapshotStoreStillLoads) {
  // Before the plan cache kept its own journal it sat on a key/value
  // store that wrote the same put records, compacted old ones into a
  // `snapshot` file and kept later seqs (with gaps) in `journal`. Such a
  // directory must open, replay its journal entries as hits, ignore the
  // snapshot, and leave the result byte-identical.
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory = simple_factory(200);
  Requirements req;
  req.min_speedup = 0.5;
  const auto plain =
      explore_design_space_pruned(small_axes(), factory, req, device);

  const fs::path fresh = fresh_dir("plan_cache_compat_src");
  {
    PlanCache cache(fresh);
    ExploreOptions opts;
    opts.plan_cache = &cache;
    (void)explore_design_space_pruned(small_axes(), factory, req, device,
                                      opts);
  }
  const auto entries = journal_entries(fresh);
  ASSERT_GT(entries.size(), 1u);

  // Header and records framed byte by byte: "RATSTRJ1" | u32 version |
  // u32 CRC32C of those 12 bytes, then one frame per put, seqs starting
  // after a compacted prefix and skipping numbers.
  const fs::path dir = fresh_dir("plan_cache_compat");
  {
    std::string bytes(store::kJournalMagic, sizeof store::kJournalMagic);
    store::put_u32(bytes, store::kStoreFormatVersion);
    store::put_u32(bytes, store::crc32c(bytes));
    std::uint64_t seq = 40;
    for (const auto& [key, value] : entries) {
      seq += 3;
      bytes += store::frame_record(seq, put_payload(key, value));
    }
    std::ofstream(dir / "journal", std::ios::binary) << bytes;
    std::ofstream(dir / "snapshot", std::ios::binary) << "RATSTRS1 not read";
  }
  // journal_entries(fresh) decoded the cache's own records with this very
  // put layout; the hand-framed copy must hold the same entries.
  const auto reread = journal_entries(dir);
  ASSERT_EQ(reread, entries);

  PlanCache cache(dir);
  EXPECT_EQ(cache.size(), entries.size());
  ExploreOptions opts;
  opts.plan_cache = &cache;
  const auto warm =
      explore_design_space_pruned(small_axes(), factory, req, device, opts);
  EXPECT_EQ(render_result(warm.design), render_result(plain.design));
  EXPECT_EQ(warm.stats.points_evaluated, 0u);
  EXPECT_EQ(warm.stats.cache_hits, entries.size());
  EXPECT_TRUE(fs::exists(dir / "snapshot"));
}

TEST(ExplorePlanCache, TornTailIsTruncatedAndTheRestStillHits) {
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory = simple_factory(200);
  Requirements req;
  req.min_speedup = 0.5;
  const fs::path dir = fresh_dir("plan_cache_torn");
  std::size_t n_cached = 0;
  {
    PlanCache cache(dir);
    ExploreOptions opts;
    opts.plan_cache = &cache;
    n_cached = explore_design_space_pruned(small_axes(), factory, req, device,
                                           opts)
                   .stats.cache_puts;
  }
  ASSERT_GT(n_cached, 1u);
  // A crash mid-append: the last record loses its final bytes.
  const fs::path journal = dir / "journal";
  fs::resize_file(journal, fs::file_size(journal) - 5);

  PlanCache cache(dir);
  EXPECT_EQ(cache.size(), n_cached - 1);
  ExploreOptions opts;
  opts.plan_cache = &cache;
  const auto rerun =
      explore_design_space_pruned(small_axes(), factory, req, device, opts);
  EXPECT_EQ(rerun.stats.cache_hits, n_cached - 1);
  EXPECT_EQ(rerun.stats.points_evaluated, 1u);
  EXPECT_EQ(journal_entries(dir).size(), n_cached);
}

TEST(ExplorePlanCache, CacheAndCheckpointComposeByteIdentically) {
  const auto device = rcsim::virtex4_lx100();
  Requirements req;
  req.min_speedup = 7.0;
  const auto plain =
      explore_design_space_pruned(small_axes(), simple_factory(), req, device);
  const fs::path dir = fresh_dir("plan_cache_compose");
  core::DesignSpaceCheckpoint ckpt;
  ckpt.path = dir / "sweep.ckpt";
  PlanCache cache(dir / "plans");
  ExploreOptions opts;
  opts.checkpoint = &ckpt;
  opts.plan_cache = &cache;
  const auto first = explore_design_space_pruned(small_axes(), simple_factory(),
                                                 req, device, opts);
  EXPECT_EQ(render_result(first.design), render_result(plain.design));
  const auto second = explore_design_space_pruned(
      small_axes(), simple_factory(), req, device, opts);
  EXPECT_EQ(render_result(second.design), render_result(plain.design));
  EXPECT_EQ(second.stats.points_evaluated, 0u);
}

}  // namespace
}  // namespace rat::explore
