// Persistent, content-addressed plan cache for design-space exploration.
//
// The campaign checkpoint (store/checkpoint.hpp) is positional: it replays
// "item #i of this exact campaign". The plan cache is the complementary
// memoization: evaluations keyed by *what was evaluated* — the candidate's
// fingerprint plus the requirements/device context — so overlapping
// campaigns (shifted axes, a re-run after editing an unrelated axis, a
// different process) reuse already-scored points. The same pattern as
// poplibs' ConvReuse: compiled plans cached under a canonical spec key.
//
// Key schema (docs/EXPLORATION.md): the canonical text
//
//   rat.plan.v1|cand=<hex16 candidate_fingerprint>|ctx=<hex16
//   requirements_fingerprint(req, device)>
//
// Both fingerprints are store::Fnv1a over length-delimited canonical
// field serializations (exact double bit patterns), so any change to the
// candidate, the requirements or the device changes the key — a stale
// entry is never *rejected*, it is simply never found. Values are
// version-prefixed, position-independent evaluation payloads
// (core::encode_evaluation_unindexed).
//
// Storage: one rat.store.v1 journal, <dir>/journal (docs/STORE.md), whose
// records are puts (u8 op 1 | string key | string value). Opening replays
// it into an in-memory map, last write per key winning; every insert is
// appended and fsynced before it returns, so entries survive kill -9 and
// a torn final append is truncated on reopen. A key names one evaluation,
// so the journal only grows by new points and never needs compaction.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/evaluation.hpp"
#include "store/journal.hpp"

namespace rat::explore {

class PlanCache {
 public:
  /// Open or create the cache at @p dir and replay its journal. A record
  /// that does not decode is skipped (its key misses and is re-evaluated).
  /// Throws store::StoreError(kIo) when the directory or journal is
  /// unusable.
  explicit PlanCache(const std::filesystem::path& dir);

  /// Canonical cache key for one (candidate, requirements, device)
  /// triple. Pure function of the fingerprints; campaign-independent.
  static std::string key(const core::DesignCandidate& cand,
                         const core::Requirements& req,
                         const rcsim::Device& device);

  /// Same key built from precomputed fingerprints (the explorer computes
  /// the context fingerprint once per campaign).
  static std::string key(std::uint64_t candidate_fp, std::uint64_t context_fp);

  /// Replay a cached evaluation, re-stamped with this campaign's
  /// enumeration @p index and candidate @p name. Returns nullopt on a
  /// miss — including an entry whose payload fails to decode (version
  /// mismatch or bit rot below the journal's CRC granularity), which is
  /// treated as absent rather than fatal.
  std::optional<core::CandidateEvaluation> lookup(const std::string& key,
                                                  std::size_t index,
                                                  const std::string& name);

  /// Memoize one fresh evaluation. Durable on return. Thread-safe.
  void insert(const std::string& key, const core::CandidateEvaluation& ev);

  std::size_t size() const;
  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
  mutable std::mutex mu_;  ///< guards entries_ and journal_ appends
  std::unordered_map<std::string, std::string> entries_;
  std::optional<store::JournalWriter> journal_;
};

}  // namespace rat::explore
