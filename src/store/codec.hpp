// Little-endian binary encoding helpers shared by every rat.store.v1
// payload (checkpoint items, plan-cache entries, encoded evaluations and
// predictions).
//
// Writers append to a std::string; the Cursor reader is bounds-checked
// and throws StoreError(kCorrupt) instead of reading past the end, so a
// malformed payload can never turn into out-of-bounds access — decode
// failures surface as structured errors, not UB. Doubles travel as their
// exact IEEE-754 bit pattern (std::bit_cast), which is what makes
// "resumed and replayed results are byte-identical to fresh evaluation"
// possible: no decimal round-trip ever touches a stored value.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "store/error.hpp"

namespace rat::store {

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Length-prefixed byte string (u32 length, then bytes).
inline void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

/// Bounds-checked little-endian reader over one payload.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string string() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  /// Throws unless the payload has been consumed exactly (trailing bytes
  /// mean a format mismatch, not just noise).
  void expect_done() const {
    if (!done())
      throw StoreError(StoreErrorCode::kCorrupt, "",
                       "payload has " + std::to_string(remaining()) +
                           " trailing byte(s)");
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n)
      throw StoreError(StoreErrorCode::kCorrupt, "",
                       "payload truncated: need " + std::to_string(n) +
                           " byte(s), have " + std::to_string(remaining()));
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace rat::store
