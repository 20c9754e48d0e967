#include "svc/fingerprint.hpp"

#include <cstdio>

#include "io/json.hpp"

namespace rat::svc {

namespace {

/// Appends `key` then @p x and the line break (`key` carries its `=`).
void line(std::string& out, std::string_view key, double x) {
  out += key;
  io::append_json_number(out, x);
  out += '\n';
}

void line(std::string& out, std::string_view key, std::size_t v) {
  out += key;
  io::append_json_int(out, v);
  out += '\n';
}

}  // namespace

std::string canonical_text(const core::RatInputs& in) {
  std::string out;
  out.reserve(320 + in.name.size() + 24 * in.comp.fclock_hz.size());
  out += "rat.fp.v1\nname=";
  out += in.name;
  out += '\n';
  line(out, "elements_in=", in.dataset.elements_in);
  line(out, "elements_out=", in.dataset.elements_out);
  line(out, "bytes_per_element=", in.dataset.bytes_per_element);
  line(out, "ideal_bw_bytes_per_sec=", in.comm.ideal_bw_bytes_per_sec);
  line(out, "alpha_write=", in.comm.alpha_write);
  line(out, "alpha_read=", in.comm.alpha_read);
  line(out, "ops_per_element=", in.comp.ops_per_element);
  line(out, "throughput_ops_per_cycle=", in.comp.throughput_ops_per_cycle);
  out += "fclock_hz=";
  for (std::size_t i = 0; i < in.comp.fclock_hz.size(); ++i) {
    if (i) out += ',';
    io::append_json_number(out, in.comp.fclock_hz[i]);
  }
  out += '\n';
  line(out, "tsoft_sec=", in.software.tsoft_sec);
  line(out, "n_iterations=", in.software.n_iterations);
  return out;
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fingerprint(const core::RatInputs& inputs) {
  return fnv1a64(canonical_text(inputs));
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

}  // namespace rat::svc
