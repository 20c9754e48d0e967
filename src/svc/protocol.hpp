// The rat.svc.v1 wire protocol: newline-delimited JSON requests and
// responses (full schema in docs/SERVICE.md).
//
// One request per line, one response line per request — never zero,
// never two. Responses carry the client's "id" verbatim so requests may
// be pipelined and answered out of order. The evaluate payload ("inputs"
// + "predictions") is rendered by the same io/batch.hpp fragment
// writers as rat_batch's JSON, so a service response and a batch run
// over the same worksheet agree byte for byte — and so do the cache-hit
// and cache-miss paths for one request, since the payload depends only
// on the parsed inputs and the deterministic predictions.
//
// Request grammar is strict in the spirit of the worksheet parser:
// unknown members, wrong member types and malformed JSON are rejected
// with E_BAD_REQUEST rather than ignored. Worksheet failures reuse the
// core::ParseError taxonomy (E_BAD_NUMBER, E_BAD_LIST, ...) and carry
// the full structured diagnostic.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/throughput.hpp"
#include "io/diagnostics.hpp"

namespace rat::svc {

inline constexpr const char* kProtocolSchema = "rat.svc.v1";

/// Service-level error codes, extending the worksheet E_* taxonomy.
enum class SvcErrorCode {
  kBadRequest,       ///< malformed JSON, unknown/ill-typed members, bad op
  kOverloaded,       ///< admission queue full — retry later
  kDeadlineExpired,  ///< request outlived its deadline before running
  kShuttingDown,     ///< service is draining; no new work accepted
};

constexpr const char* svc_error_code_name(SvcErrorCode code) {
  switch (code) {
    case SvcErrorCode::kBadRequest: return "E_BAD_REQUEST";
    case SvcErrorCode::kOverloaded: return "E_OVERLOADED";
    case SvcErrorCode::kDeadlineExpired: return "E_DEADLINE_EXPIRED";
    case SvcErrorCode::kShuttingDown: return "E_SHUTTING_DOWN";
  }
  return "E_BAD_REQUEST";
}

/// One parsed request line.
struct Request {
  enum class Op { kEvaluate, kPing, kStats, kShutdown };

  std::string id;           ///< echoed verbatim; may be empty
  Op op = Op::kEvaluate;
  std::string worksheet;    ///< inline worksheet text (evaluate)
  std::string file;         ///< server-side worksheet path (evaluate)
  bool has_worksheet = false;
  bool has_file = false;
  double deadline_ms = 0.0; ///< 0 = use the service default
  bool no_cache = false;    ///< bypass the result cache (benchmarks)
};

/// Thrown by parse_request. Carries the client id when the line was
/// well-formed enough to recover it, so the error response still
/// correlates with the request.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(SvcErrorCode code, const std::string& message,
                std::string id = {})
      : std::runtime_error(message), code_(code), id_(std::move(id)) {}

  SvcErrorCode code() const { return code_; }
  const std::string& id() const { return id_; }

 private:
  SvcErrorCode code_;
  std::string id_;
};

/// Parse one NDJSON request line. Throws ProtocolError (E_BAD_REQUEST)
/// on malformed JSON, non-object documents, unknown members, ill-typed
/// members, unknown ops, or an evaluate without exactly one worksheet
/// source.
Request parse_request(const std::string& line);

// ---- Response rendering (one line, no trailing newline) ----

/// Appends the head every response starts with:
/// {"schema":"rat.svc.v1","id":...,"status":"<status>"
/// An empty id renders as null. The stats renderers in service.cpp and
/// router.cpp continue from here.
void append_response_head(std::string& out, const std::string& id,
                          const char* status);

/// {"schema":...,"id":...,"status":"ok","op":"evaluate","fingerprint":...,
///  "inputs":{...},"predictions":[...]}
std::string evaluate_response(
    const std::string& id, std::uint64_t fp, const core::RatInputs& inputs,
    const std::vector<core::ThroughputPrediction>& predictions);

/// Service-level failure ({"status":"error","error":{"code":...}}).
std::string error_response(const std::string& id, SvcErrorCode code,
                           const std::string& message);

/// Worksheet failure: code is the diagnostic's E_* name and the full
/// structured diagnostic rides along, exactly as in rat_batch JSON.
std::string diagnostic_response(const std::string& id,
                                const core::Diagnostic& diagnostic);

/// Internal failure (unexpected exception while evaluating): E_INTERNAL.
std::string internal_error_response(const std::string& id,
                                    const std::string& message);

/// {"status":"ok","op":"ping"}
std::string pong_response(const std::string& id);

/// {"status":"ok","op":"shutdown","draining":true}
std::string shutdown_response(const std::string& id);

}  // namespace rat::svc
