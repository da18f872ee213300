#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pb {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int variant_of(std::uint64_t seed) {
  std::uint64_t s = seed;
  return static_cast<int>(splitmix64(s) % kVariants);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::string fmt6(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

bool parity6(double got, double ref) {
  if (fmt6(got) == fmt6(ref)) return true;
  if (!std::isfinite(got) || !std::isfinite(ref)) return false;
  // One unit in the sixth significant digit of the reference.
  const double mag = ref == 0.0 ? 1.0 : std::pow(10.0, std::floor(std::log10(std::abs(ref))));
  return std::abs(got - ref) <= 1e-5 * mag;
}

void Checker::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void Checker::absorb(const Checker& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& m : other.messages_)
    if (messages_.size() < 8) messages_.push_back(m);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

serve::Json read_json(const std::string& path) {
  return serve::Json::parse(read_file(path));
}

}  // namespace pb
