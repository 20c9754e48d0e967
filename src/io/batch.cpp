#include "io/batch.hpp"

#include <chrono>
#include <thread>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "store/checkpoint.hpp"
#include "store/checksum.hpp"
#include "store/codec.hpp"
#include "util/parallel_for.hpp"
#include "util/table.hpp"

namespace rat::io {

namespace {

/// Appends `key` then @p x; each key literal carries its own leading
/// punctuation (`{"name":`, `,"alpha_read":`, ...).
void field(std::string& out, std::string_view key, double x) {
  out += key;
  append_json_number(out, x);
}

void field(std::string& out, std::string_view key, std::size_t v) {
  out += key;
  append_json_int(out, v);
}

}  // namespace

void append_inputs_json(std::string& out, const core::RatInputs& in) {
  out += "{\"name\":";
  append_json_str(out, in.name);
  field(out, ",\"elements_in\":", in.dataset.elements_in);
  field(out, ",\"elements_out\":", in.dataset.elements_out);
  field(out, ",\"bytes_per_element\":", in.dataset.bytes_per_element);
  field(out, ",\"ideal_bw_bytes_per_sec\":", in.comm.ideal_bw_bytes_per_sec);
  field(out, ",\"alpha_write\":", in.comm.alpha_write);
  field(out, ",\"alpha_read\":", in.comm.alpha_read);
  field(out, ",\"ops_per_element\":", in.comp.ops_per_element);
  field(out, ",\"throughput_ops_per_cycle\":",
        in.comp.throughput_ops_per_cycle);
  out += ",\"fclock_hz\":[";
  for (std::size_t i = 0; i < in.comp.fclock_hz.size(); ++i) {
    if (i) out += ',';
    append_json_number(out, in.comp.fclock_hz[i]);
  }
  field(out, "],\"tsoft_sec\":", in.software.tsoft_sec);
  field(out, ",\"n_iterations\":", in.software.n_iterations);
  out += '}';
}

void append_prediction_json(std::string& out,
                            const core::ThroughputPrediction& p) {
  field(out, "{\"fclock_hz\":", p.fclock_hz);
  field(out, ",\"t_write_sec\":", p.t_write_sec);
  field(out, ",\"t_read_sec\":", p.t_read_sec);
  field(out, ",\"t_comm_sec\":", p.t_comm_sec);
  field(out, ",\"t_comp_sec\":", p.t_comp_sec);
  field(out, ",\"t_rc_sb_sec\":", p.t_rc_sb_sec);
  field(out, ",\"t_rc_db_sec\":", p.t_rc_db_sec);
  field(out, ",\"speedup_sb\":", p.speedup_sb);
  field(out, ",\"speedup_db\":", p.speedup_db);
  field(out, ",\"util_comp_sb\":", p.util_comp_sb);
  field(out, ",\"util_comm_sb\":", p.util_comm_sb);
  field(out, ",\"util_comp_db\":", p.util_comp_db);
  field(out, ",\"util_comm_db\":", p.util_comm_db);
  out += '}';
}

std::string encode_predictions(
    const std::vector<core::ThroughputPrediction>& predictions) {
  std::string out;
  out.reserve(4 + predictions.size() * 13 * 8);
  store::put_u32(out, static_cast<std::uint32_t>(predictions.size()));
  for (const auto& p : predictions) {
    store::put_f64(out, p.fclock_hz);
    store::put_f64(out, p.t_write_sec);
    store::put_f64(out, p.t_read_sec);
    store::put_f64(out, p.t_comm_sec);
    store::put_f64(out, p.t_comp_sec);
    store::put_f64(out, p.t_rc_sb_sec);
    store::put_f64(out, p.t_rc_db_sec);
    store::put_f64(out, p.speedup_sb);
    store::put_f64(out, p.speedup_db);
    store::put_f64(out, p.util_comp_sb);
    store::put_f64(out, p.util_comm_sb);
    store::put_f64(out, p.util_comp_db);
    store::put_f64(out, p.util_comm_db);
  }
  return out;
}

std::vector<core::ThroughputPrediction> decode_predictions(
    std::string_view payload) {
  store::Cursor cur(payload);
  const std::uint32_t count = cur.u32();
  // Validate the declared count against the actual byte budget before
  // reserving: a garbage count from corrupt bytes must surface as
  // kCorrupt, not as an allocation failure.
  if (cur.remaining() != static_cast<std::size_t>(count) * 13 * 8)
    throw store::StoreError(
        store::StoreErrorCode::kCorrupt, "",
        "prediction payload declares " + std::to_string(count) +
            " entries but carries " + std::to_string(cur.remaining()) +
            " byte(s)");
  std::vector<core::ThroughputPrediction> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    core::ThroughputPrediction p;
    p.fclock_hz = cur.f64();
    p.t_write_sec = cur.f64();
    p.t_read_sec = cur.f64();
    p.t_comm_sec = cur.f64();
    p.t_comp_sec = cur.f64();
    p.t_rc_sb_sec = cur.f64();
    p.t_rc_db_sec = cur.f64();
    p.speedup_sb = cur.f64();
    p.speedup_db = cur.f64();
    p.util_comp_sb = cur.f64();
    p.util_comm_sb = cur.f64();
    p.util_comp_db = cur.f64();
    p.util_comm_db = cur.f64();
    out.push_back(p);
  }
  cur.expect_done();
  return out;
}

void append_diagnostic_json(std::string& out, const core::Diagnostic& d) {
  out += "{\"file\":";
  append_json_str(out, d.file);
  field(out, ",\"line\":", d.line);
  field(out, ",\"column\":", d.column);
  out += ",\"code\":";
  append_json_str(out, core::error_code_name(d.code));
  out += ",\"key\":";
  append_json_str(out, d.key);
  out += ",\"message\":";
  append_json_str(out, d.message);
  out += ",\"rendered\":";
  append_json_str(out, d.to_string());
  out += '}';
}

namespace {

// Checkpoint item payload: u8 status (1 = ok, 0 = parse/validate
// failure), then the encoded predictions for ok items. Inputs and
// diagnostics are NOT stored — they are regenerated by re-parsing the
// worksheet text, which the item fingerprint guarantees is byte-for-byte
// what the recorded run parsed, so the regenerated values (and therefore
// the final batch output) are identical.
constexpr std::uint8_t kItemFailed = 0;
constexpr std::uint8_t kItemOk = 1;

std::uint64_t batch_campaign_fingerprint(
    const std::vector<std::filesystem::path>& files) {
  store::Fnv1a fp;
  fp.add_string("rat.batch.v1");
  fp.add_u64(files.size());
  for (const auto& f : files) fp.add_string(f.string());
  return fp.value();
}

/// Parse + evaluate one worksheet text, filling entry (never throws).
void evaluate_text(const std::string& text, BatchEntry& entry) {
  try {
    entry.load.inputs =
        parse_worksheet_text(text, entry.load.path.string());
    entry.predictions = core::predict_all(*entry.load.inputs);
  } catch (const core::ParseError& e) {
    entry.load.diagnostic = e.diagnostic();
  } catch (const std::exception& e) {
    entry.load.diagnostic =
        core::Diagnostic{entry.load.path.string(), 0, 0,
                         core::ParseErrorCode::kInternalError, "", e.what()};
  }
}

}  // namespace

BatchResult run_batch(const std::vector<std::filesystem::path>& files,
                      const BatchOptions& options) {
  obs::ScopedTimer batch_timer("batch.run");

  std::optional<store::CampaignCheckpoint> ckpt;
  if (options.checkpoint) {
    store::CampaignCheckpointOptions copts;
    copts.sync_every_append = options.checkpoint->sync_every_append;
    ckpt.emplace(options.checkpoint->path, "rat.batch.v1",
                 batch_campaign_fingerprint(files), copts);
  }

  BatchResult result;
  result.entries = util::parallel_map(
      files.size(),
      [&files, &ckpt, &options](std::size_t i) {
        // Per-file parse+evaluate span; detail carries the worksheet path
        // so the exported timeline names every file.
        obs::ScopedTimer file_timer("batch.file", files[i].string(),
                                    /*record_span=*/true);
        BatchEntry entry;
        entry.load.path = files[i];

        std::string text;
        try {
          text = read_worksheet_text(files[i]);
        } catch (const core::ParseError& e) {
          // Unreadable file: fail this entry but never checkpoint it —
          // there are no input bytes to fingerprint, and a resume should
          // retry it (the file may be back).
          entry.load.diagnostic = e.diagnostic();
          return entry;
        } catch (const std::exception& e) {
          entry.load.diagnostic =
              core::Diagnostic{files[i].string(), 0, 0,
                               core::ParseErrorCode::kInternalError, "",
                               e.what()};
          return entry;
        }

        const std::uint64_t item_fp = store::fnv1a64(text);
        if (ckpt) {
          // Throws StoreError(kStaleCheckpoint) if this file's bytes
          // changed since the item was recorded.
          if (const std::string* payload =
                  ckpt->restored_payload(i, item_fp)) {
            entry.restored = true;
            store::Cursor cur(*payload);
            if (cur.u8() == kItemOk) {
              entry.predictions = decode_predictions(
                  std::string_view(*payload).substr(1));
              // Same bytes => same parse; regenerating the inputs keeps
              // the payload small and the output byte-identical.
              entry.load.inputs =
                  parse_worksheet_text(text, files[i].string());
            } else {
              cur.expect_done();
              evaluate_text(text, entry);  // regenerate the diagnostic
            }
            return entry;
          }
        }

        evaluate_text(text, entry);
        if (ckpt) {
          std::string payload;
          store::put_u8(payload, entry.ok() ? kItemOk : kItemFailed);
          if (entry.ok()) payload += encode_predictions(entry.predictions);
          ckpt->record(i, item_fp, payload);
        }
        if (options.throttle_ms > 0)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options.throttle_ms));
        return entry;
      },
      options.n_threads);
  for (const auto& e : result.entries) {
    (e.ok() ? result.n_ok : result.n_failed) += 1;
    if (e.restored) ++result.n_restored;
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.add_counter("batch.files", result.entries.size());
    reg.add_counter("batch.files_ok", result.n_ok);
    reg.add_counter("batch.files_failed", result.n_failed);
    reg.add_counter("batch.files_restored", result.n_restored);
  }
  return result;
}

BatchResult run_batch(const std::vector<std::filesystem::path>& files,
                      std::size_t n_threads) {
  BatchOptions options;
  options.n_threads = n_threads;
  return run_batch(files, options);
}

BatchResult run_batch_dir(const std::filesystem::path& dir,
                          const BatchOptions& options) {
  // Enumerate serially (deterministic sorted order), evaluate in parallel.
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec))
    throw core::ParseError({dir.string(), 0, 0,
                            core::ParseErrorCode::kIoError, "",
                            ec ? "cannot stat directory: " + ec.message()
                               : "not a directory"});
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().extension() == kWorksheetExtension)
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return run_batch(files, options);
}

BatchResult run_batch_dir(const std::filesystem::path& dir,
                          std::size_t n_threads) {
  BatchOptions options;
  options.n_threads = n_threads;
  return run_batch_dir(dir, options);
}

std::string batch_json(const BatchResult& result) {
  std::string out = "{\"schema\":\"rat.batch.v1\"";
  field(out, ",\"n_worksheets\":", result.entries.size());
  field(out, ",\"n_ok\":", result.n_ok);
  field(out, ",\"n_failed\":", result.n_failed);
  out += ",\"worksheets\":[";
  for (std::size_t i = 0; i < result.entries.size(); ++i) {
    const BatchEntry& e = result.entries[i];
    if (i) out += ',';
    out += "{\"file\":";
    append_json_str(out, e.load.path.string());
    out += e.ok() ? ",\"status\":\"ok\"" : ",\"status\":\"error\"";
    if (e.ok()) {
      out += ",\"inputs\":";
      append_inputs_json(out, *e.load.inputs);
      out += ",\"predictions\":[";
      for (std::size_t j = 0; j < e.predictions.size(); ++j) {
        if (j) out += ',';
        append_prediction_json(out, e.predictions[j]);
      }
      out += ']';
    } else {
      out += ",\"diagnostic\":";
      append_diagnostic_json(out, *e.load.diagnostic);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string batch_csv(const BatchResult& result) {
  util::Table t({"file", "status", "name", "elements_in", "elements_out",
                 "bytes_per_element", "ideal_bw_bytes_per_sec", "alpha_write",
                 "alpha_read", "ops_per_element", "throughput_ops_per_cycle",
                 "tsoft_sec", "n_iterations", "fclock_hz", "t_write_sec",
                 "t_read_sec", "t_comm_sec", "t_comp_sec", "t_rc_sb_sec",
                 "t_rc_db_sec", "speedup_sb", "speedup_db", "util_comm_sb",
                 "util_comp_sb", "util_comm_db", "util_comp_db", "error"});
  for (const BatchEntry& e : result.entries) {
    if (!e.ok()) {
      std::vector<std::string> row(t.num_columns());
      row[0] = e.load.path.string();
      row[1] = "error";
      row.back() = e.load.diagnostic->to_string();
      t.add_row(std::move(row));
      continue;
    }
    const core::RatInputs& in = *e.load.inputs;
    for (const core::ThroughputPrediction& p : e.predictions) {
      t.add_row({e.load.path.string(), "ok", in.name,
                 std::to_string(in.dataset.elements_in),
                 std::to_string(in.dataset.elements_out),
                 json_number(in.dataset.bytes_per_element),
                 json_number(in.comm.ideal_bw_bytes_per_sec),
                 json_number(in.comm.alpha_write),
                 json_number(in.comm.alpha_read),
                 json_number(in.comp.ops_per_element),
                 json_number(in.comp.throughput_ops_per_cycle),
                 json_number(in.software.tsoft_sec),
                 std::to_string(in.software.n_iterations),
                 json_number(p.fclock_hz), json_number(p.t_write_sec),
                 json_number(p.t_read_sec), json_number(p.t_comm_sec),
                 json_number(p.t_comp_sec), json_number(p.t_rc_sb_sec),
                 json_number(p.t_rc_db_sec), json_number(p.speedup_sb),
                 json_number(p.speedup_db), json_number(p.util_comm_sb),
                 json_number(p.util_comp_sb), json_number(p.util_comm_db),
                 json_number(p.util_comp_db), ""});
    }
  }
  return t.to_csv();
}

}  // namespace rat::io
