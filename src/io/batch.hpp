// Batch evaluation of worksheet files.
//
// Evaluates many worksheet files through the shared thread pool
// (util::parallel_map) with partial-failure semantics: a malformed file
// produces a per-file Diagnostic while every other file is still
// evaluated — one bad worksheet never kills the batch. Results are
// emitted machine-readably (JSON with the full input set and every
// Eq. 1-11 output for both buffering modes, or flat CSV) so the batch
// pipeline can be scripted; the rat_batch app adds the human tables.
#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/throughput.hpp"
#include "io/loader.hpp"

namespace rat::io {

/// One worksheet file's batch outcome: the load result plus, on success,
/// the per-clock predictions (exactly core::predict_all on the inputs).
struct BatchEntry {
  LoadResult load;
  std::vector<core::ThroughputPrediction> predictions;
  /// Replayed from a checkpoint instead of evaluated this run.
  bool restored = false;

  bool ok() const { return load.ok(); }
};

struct BatchResult {
  /// Entries in the order the files were given (sorted for directories).
  std::vector<BatchEntry> entries;
  std::size_t n_ok = 0;
  std::size_t n_failed = 0;
  std::size_t n_restored = 0;  ///< entries replayed from the checkpoint

  bool all_ok() const { return n_failed == 0; }
};

/// Checkpoint/resume configuration for run_batch (docs/STORE.md). The
/// campaign identity is the ordered file list; each item's identity is
/// its raw worksheet bytes, so editing a file between runs is rejected
/// as E_STALE_CHECKPOINT rather than silently replaying a result for
/// data that changed. Unreadable files are never checkpointed — they are
/// retried on every resume.
struct BatchCheckpointConfig {
  std::filesystem::path path;
  bool sync_every_append = true;
};

struct BatchOptions {
  std::size_t n_threads = 0;  ///< 0 = auto (RAT_THREADS / hardware)
  std::optional<BatchCheckpointConfig> checkpoint;
  /// Crash-drill hook (scripts/check.sh): sleep this long after each
  /// *fresh* evaluation so a kill -9 reliably lands mid-campaign.
  /// Restored entries never sleep.
  unsigned throttle_ms = 0;
};

/// Evaluate each file (load_worksheet + predict_all), in parallel across
/// the pool. Never throws for a bad file — see BatchEntry::load
/// .diagnostic; with a checkpoint, throws store::StoreError for a stale
/// or unusable checkpoint file.
BatchResult run_batch(const std::vector<std::filesystem::path>& files,
                      const BatchOptions& options);
BatchResult run_batch(const std::vector<std::filesystem::path>& files,
                      std::size_t n_threads = 0);

/// run_batch over every "*.rat" file directly inside @p dir, sorted by
/// path. Throws core::ParseError (E_IO) only when the directory itself is
/// missing or unreadable.
BatchResult run_batch_dir(const std::filesystem::path& dir,
                          const BatchOptions& options);
BatchResult run_batch_dir(const std::filesystem::path& dir,
                          std::size_t n_threads = 0);

/// Machine-readable emitters (schema documented in
/// docs/WORKSHEET_FORMAT.md). JSON carries inputs + predictions +
/// diagnostics; CSV is one row per (file, clock), with failed files as a
/// single row whose `error` column holds the rendered diagnostic.
std::string batch_json(const BatchResult& result);
std::string batch_csv(const BatchResult& result);

/// The shared JSON fragment renderers behind batch_json, public so the
/// prediction service emits byte-identical inputs / prediction /
/// diagnostic payloads (numbers via io::append_json_number round-trip
/// exactly). Each appends to @p out.
void append_inputs_json(std::string& out, const core::RatInputs& inputs);
void append_prediction_json(std::string& out,
                            const core::ThroughputPrediction& prediction);
void append_diagnostic_json(std::string& out, const core::Diagnostic& d);

/// rat.store.v1 predictions payload: u32 count, then 13 f64 bit patterns
/// per prediction in declaration order. Exact IEEE-754 round-trip — the
/// basis for byte-identical checkpoint resume.
/// decode throws store::StoreError(kCorrupt) on malformed payloads.
std::string encode_predictions(
    const std::vector<core::ThroughputPrediction>& predictions);
std::vector<core::ThroughputPrediction> decode_predictions(
    std::string_view payload);

}  // namespace rat::io
