#include "explore/plan_cache.hpp"

#include <cinttypes>
#include <cstdio>

#include "store/codec.hpp"
#include "store/error.hpp"

namespace rat::explore {

namespace {

constexpr std::uint8_t kOpPut = 1;
constexpr std::uint8_t kPayloadVersion = 1;

}  // namespace

PlanCache::PlanCache(const std::filesystem::path& dir) : dir_(dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw store::StoreError(store::StoreErrorCode::kIo, dir_.string(),
                            "cannot create plan cache directory: " +
                                ec.message());

  store::RecoveredJournal recovered;
  journal_.emplace(dir_ / "journal", store::JournalWriter::Options{},
                   &recovered);
  for (const store::JournalRecord& rec : recovered.records) {
    try {
      store::Cursor cur(rec.payload);
      if (cur.u8() != kOpPut) continue;
      std::string key = cur.string();
      std::string value = cur.string();
      cur.expect_done();
      entries_.insert_or_assign(std::move(key), std::move(value));
    } catch (const store::StoreError&) {
      // A record whose frame verified but whose body does not decode
      // caches nothing; its key misses and is re-evaluated.
    }
  }
}

std::string PlanCache::key(std::uint64_t candidate_fp,
                           std::uint64_t context_fp) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "rat.plan.v1|cand=%016" PRIx64
                                 "|ctx=%016" PRIx64,
                candidate_fp, context_fp);
  return buf;
}

std::string PlanCache::key(const core::DesignCandidate& cand,
                           const core::Requirements& req,
                           const rcsim::Device& device) {
  return key(core::candidate_fingerprint(cand),
             core::requirements_fingerprint(req, device));
}

std::optional<core::CandidateEvaluation> PlanCache::lookup(
    const std::string& key, std::size_t index, const std::string& name) {
  std::string payload;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    payload = it->second;
  }
  // An undecodable payload (wrong version, bit rot) is a miss, not an
  // error: the caller re-evaluates and insert() overwrites the entry.
  try {
    if (payload.empty() ||
        static_cast<std::uint8_t>(payload[0]) != kPayloadVersion)
      return std::nullopt;
    return core::decode_evaluation_unindexed(
        std::string_view(payload).substr(1), index, name);
  } catch (const store::StoreError&) {
    return std::nullopt;
  }
}

void PlanCache::insert(const std::string& key,
                       const core::CandidateEvaluation& ev) {
  std::string value;
  value.push_back(static_cast<char>(kPayloadVersion));
  value += core::encode_evaluation_unindexed(ev);
  std::string record;
  record.reserve(1 + 8 + key.size() + value.size());
  store::put_u8(record, kOpPut);
  store::put_string(record, key);
  store::put_string(record, value);

  std::lock_guard<std::mutex> lk(mu_);
  journal_->append(record);
  entries_.insert_or_assign(key, std::move(value));
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

}  // namespace rat::explore
