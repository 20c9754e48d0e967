#include "svc/protocol.hpp"

#include <cmath>

#include "io/batch.hpp"
#include "io/json.hpp"
#include "svc/fingerprint.hpp"

namespace rat::svc {

void append_response_head(std::string& out, const std::string& id,
                          const char* status) {
  out += "{\"schema\":\"";
  out += kProtocolSchema;
  // Empty ids render as null so a response to an unparseable request is
  // still well-formed.
  out += "\",\"id\":";
  if (id.empty())
    out += "null";
  else
    io::append_json_str(out, id);
  out += ",\"status\":\"";
  out += status;
  out += '"';
}

Request parse_request(const std::string& line) {
  io::JsonValue doc;
  try {
    doc = io::parse_json(line);
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(SvcErrorCode::kBadRequest, e.what());
  }
  if (!doc.is_object())
    throw ProtocolError(SvcErrorCode::kBadRequest,
                        "request must be a JSON object");

  // Recover the id first so every later failure can echo it.
  Request req;
  if (const io::JsonValue* id = doc.find("id")) {
    if (id->is_string())
      req.id = id->string;
    else if (!id->is_null())
      throw ProtocolError(SvcErrorCode::kBadRequest,
                          "\"id\" must be a string");
  }

  auto bad = [&req](const std::string& message) {
    return ProtocolError(SvcErrorCode::kBadRequest, message, req.id);
  };

  for (const auto& [key, value] : doc.object) {
    if (key == "id") {
      continue;
    } else if (key == "schema") {
      // Optional, but when present it must name this protocol exactly.
      if (!value.is_string() || value.string != kProtocolSchema)
        throw bad(std::string("\"schema\" must be \"") + kProtocolSchema +
                  "\" when present");
    } else if (key == "op") {
      if (!value.is_string()) throw bad("\"op\" must be a string");
      if (value.string == "evaluate") req.op = Request::Op::kEvaluate;
      else if (value.string == "ping") req.op = Request::Op::kPing;
      else if (value.string == "stats") req.op = Request::Op::kStats;
      else if (value.string == "shutdown") req.op = Request::Op::kShutdown;
      else throw bad("unknown op: '" + value.string + "'");
    } else if (key == "worksheet") {
      if (!value.is_string()) throw bad("\"worksheet\" must be a string");
      req.worksheet = value.string;
      req.has_worksheet = true;
    } else if (key == "file") {
      if (!value.is_string()) throw bad("\"file\" must be a string");
      req.file = value.string;
      req.has_file = true;
    } else if (key == "deadline_ms") {
      // The JSON layer already refuses non-finite literals, but the
      // deadline feeds a float->integer cast downstream, so enforce
      // finiteness here too rather than rely on that coincidence.
      if (!value.is_number() || !std::isfinite(value.number) ||
          !(value.number > 0.0))
        throw bad("\"deadline_ms\" must be a positive finite number");
      req.deadline_ms = value.number;
    } else if (key == "no_cache") {
      if (!value.is_bool()) throw bad("\"no_cache\" must be a boolean");
      req.no_cache = value.boolean;
    } else {
      throw bad("unknown request member: '" + key + "'");
    }
  }

  if (req.op == Request::Op::kEvaluate) {
    if (req.has_worksheet == req.has_file)
      throw bad(
          "evaluate needs exactly one of \"worksheet\" (inline text) or "
          "\"file\" (server-side path)");
  } else if (req.has_worksheet || req.has_file) {
    throw bad("\"worksheet\"/\"file\" only apply to op \"evaluate\"");
  }
  return req;
}

std::string evaluate_response(
    const std::string& id, std::uint64_t fp, const core::RatInputs& inputs,
    const std::vector<core::ThroughputPrediction>& predictions) {
  // Head and inputs take ~500 bytes and each prediction ~480: one
  // allocation covers the whole line.
  std::string out;
  out.reserve(512 + id.size() + inputs.name.size() + 512 * predictions.size());
  append_response_head(out, id, "ok");
  out += ",\"op\":\"evaluate\",\"fingerprint\":\"";
  out += fingerprint_hex(fp);
  out += "\",\"inputs\":";
  io::append_inputs_json(out, inputs);
  out += ",\"predictions\":[";
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (i) out += ',';
    io::append_prediction_json(out, predictions[i]);
  }
  out += "]}";
  return out;
}

std::string error_response(const std::string& id, SvcErrorCode code,
                           const std::string& message) {
  std::string out;
  append_response_head(out, id, "error");
  out += ",\"error\":{\"code\":\"";
  out += svc_error_code_name(code);
  out += "\",\"message\":";
  io::append_json_str(out, message);
  out += "}}";
  return out;
}

std::string diagnostic_response(const std::string& id,
                                const core::Diagnostic& diagnostic) {
  std::string out;
  append_response_head(out, id, "error");
  out += ",\"error\":{\"code\":\"";
  out += core::error_code_name(diagnostic.code);
  out += "\",\"message\":";
  io::append_json_str(out, diagnostic.message);
  out += ",\"diagnostic\":";
  io::append_diagnostic_json(out, diagnostic);
  out += "}}";
  return out;
}

std::string internal_error_response(const std::string& id,
                                    const std::string& message) {
  std::string out;
  append_response_head(out, id, "error");
  out += ",\"error\":{\"code\":\"E_INTERNAL\",\"message\":";
  io::append_json_str(out, message);
  out += "}}";
  return out;
}

std::string pong_response(const std::string& id) {
  std::string out;
  append_response_head(out, id, "ok");
  out += ",\"op\":\"ping\"}";
  return out;
}

std::string shutdown_response(const std::string& id) {
  std::string out;
  append_response_head(out, id, "ok");
  out += ",\"op\":\"shutdown\",\"draining\":true}";
  return out;
}

}  // namespace rat::svc
