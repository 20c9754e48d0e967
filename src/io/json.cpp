#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace rat::io {

void append_json_number(std::string& out, double x) {
  // C++17 specifies to_chars with a precision as printf("%.*g"), so this
  // is the historical snprintf/sscanf loop's output, without the locale
  // and format-string parsing on every attempt.
  char buf[32];
  char* end = buf;
  for (int prec = 15; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof buf, x, std::chars_format::general,
                        prec)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == x) break;
  }
  out.append(buf, end);
}

std::string json_number(double x) {
  std::string out;
  append_json_number(out, x);
  return out;
}

void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char ch = static_cast<unsigned char>(s[i]);
    if (ch >= 0x20 && ch != '"' && ch != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[ch >> 4], kHex[ch & 15]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s, run, std::string_view::npos);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_escaped(out, s);
  return out;
}

void append_json_str(std::string& out, std::string_view s) {
  out += '"';
  append_json_escaped(out, s);
  out += '"';
}

std::string json_str(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_str(out, s);
  return out;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (!consume_literal("\\u")) fail("unpaired surrogate");
            const std::uint32_t lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const char* b = text_.data() + begin;
    const char* e = text_.data() + pos_;
    const auto r = std::from_chars(b, e, v.number);
    if (r.ec != std::errc{} || r.ptr != e) {
      pos_ = begin;
      fail("bad number");
    }
    if (!std::isfinite(v.number)) {
      pos_ = begin;
      fail("non-finite number");
    }
    return v;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    JsonValue v;
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.items.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
      return v;
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      v.kind = JsonValue::Kind::kNull;
      return v;
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).run(); }

}  // namespace rat::io
