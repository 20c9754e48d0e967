// Minimal JSON reading/writing shared by the io emitters and the svc
// protocol.
//
// Writing: the number/escape helpers behind every JSON producer in the
// tree (batch runner, metrics export, service responses), so all of
// them render numbers and strings identically. That is what makes
// "same inputs => byte-identical output" hold across layers. Each
// helper has an append form that writes into a caller-owned string;
// the request path renders a whole response into one reserved buffer
// with them and never builds a temporary string per value.
//
// Reading: a small strict recursive-descent parser for the service's
// newline-delimited request objects. Deliberately minimal but not
// sloppy: full string escapes (including \uXXXX with surrogate pairs),
// from_chars numbers, a nesting-depth cap, and a hard error on trailing
// content. Failures throw std::invalid_argument naming the byte offset.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rat::io {

/// Appends @p x with the fewest of 15, 16 or 17 significant digits
/// ("%.*g" spelling) that parse back to exactly @p x. This is not always
/// the shortest string that round-trips: for about 0.65% of random bit
/// patterns a shorter one exists (53165205877497296 prints as the 20
/// characters "5.31652058774973e+16"; the 17 of "53165205877497296"
/// would also round-trip). The spelling is kept because it is the wire
/// format: responses, rat.batch.v1 output and the canonical fingerprint
/// text (and so every cache key) depend on it byte for byte. Non-finite
/// values print as inf / -inf / nan.
void append_json_number(std::string& out, double x);

/// append_json_number into a fresh string.
std::string json_number(double x);

/// Appends the decimal digits of @p v.
template <std::integral Int>
void append_json_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Appends @p s backslash-escaped for use inside a JSON string literal
/// (quotes, backslashes, control characters; no surrounding quotes).
void append_json_escaped(std::string& out, std::string_view s);

/// append_json_escaped into a fresh string.
std::string json_escape(std::string_view s);

/// Appends @p s as a complete JSON string literal, quotes included.
void append_json_str(std::string& out, std::string_view s);

/// append_json_str into a fresh string.
std::string json_str(std::string_view s);

/// One parsed JSON value. Object members keep their source order so
/// re-rendering (tests) is deterministic.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> items;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// First member named @p key, or nullptr (objects only).
  const JsonValue* find(std::string_view key) const;
};

/// Parse one complete JSON document. Throws std::invalid_argument
/// ("json: <what> at offset <n>") on malformed input, unsupported
/// nesting depth (> 64) or trailing non-whitespace content.
JsonValue parse_json(std::string_view text);

}  // namespace rat::io
