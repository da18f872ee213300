#include "obs/telemetry.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "runtime/env.hpp"

namespace si::obs {

namespace {

bool env_default() {
  // Strict parse via the shared runtime helper (header-only, so no
  // si_obs -> si_runtime link cycle).  One wrinkle: this runs lazily
  // from enabled(), which noexcept probes (Counter::add) call — a
  // throw here would std::terminate.  So instead of propagating, an
  // unrecognized value is reported loudly on stderr exactly once and
  // telemetry stays off; SI_OBS=garbage can no longer be mistaken for
  // a deliberate SI_OBS=0.
  try {
    const auto v = runtime::parse_env_flag("SI_OBS");
    return v.value_or(false);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "si_obs: %s; telemetry disabled\n", e.what());
    return false;
  }
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> f{env_default()};
  return f;
}

/// Process-relative steady-clock epoch so span timestamps are small and
/// comparable across threads.
std::chrono::steady_clock::time_point epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

// Registered instruments live forever at stable addresses; the lock
// only guards registration and snapshotting, never recording.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry& registry() {
  static Registry r;
  return r;
}

template <typename T>
T& lookup(std::map<std::string, std::unique_ptr<T>, std::less<>>& m,
          std::string_view name) {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = m.find(name);
  if (it != m.end()) return *it->second;
  auto [ins, _] = m.emplace(std::string(name), std::make_unique<T>());
  return *ins->second;
}

/// Preallocated span ring.  A mutex (not per-slot atomics) keeps the
/// multi-field event writes TSan-clean; spans are coarse (one per
/// solve, not per iteration), so contention is negligible.
struct TraceRing {
  std::mutex mu;
  std::array<SpanEvent, kTraceRingCapacity> ring;
  std::uint64_t next = 0;  // total spans ever pushed

  void push(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns) {
    std::lock_guard<std::mutex> lock(mu);
    SpanEvent& e = ring[static_cast<std::size_t>(next % kTraceRingCapacity)];
    e.name = name;
    e.start_ns = start_ns;
    e.dur_ns = dur_ns;
    e.seq = next;
    ++next;
  }
};

TraceRing& trace_ring() {
  static TraceRing r;
  return r;
}

void json_escape(std::string& out, std::string_view s) {
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  if (on) epoch();  // pin the epoch before the first span completes
  enabled_flag().store(on, std::memory_order_relaxed);
}

void Histogram::record(double v) noexcept {
  if (!enabled()) return;
  int bin = 0;
  if (v > 0.0) {
    int exp = 0;
    std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
    bin = std::clamp(exp - 1 + kBias, 0, kBins - 1);
  }
  bins_[static_cast<std::size_t>(bin)].fetch_add(1, std::memory_order_relaxed);
  double s = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(s, s + v, std::memory_order_relaxed)) {
  }
  double lo = min_.load(std::memory_order_relaxed);
  while (v < lo &&
         !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (v > hi &&
         !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
  // Count last: min()/max() gate on count(), so a concurrent snapshot
  // never sees the sentinel extremes once count is nonzero.
  count_.fetch_add(1, std::memory_order_relaxed);
}

double Histogram::bin_lo(int k) noexcept { return std::ldexp(1.0, k - kBias); }

void Histogram::reset() noexcept {
  for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(1e300, std::memory_order_relaxed);
  max_.store(-1e300, std::memory_order_relaxed);
}

TraceSpan::~TraceSpan() {
  if (!armed_ || !enabled()) return;
  const auto end = std::chrono::steady_clock::now();
  const auto ns = [](auto d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  trace_ring().push(name_, ns(start_ - epoch()), ns(end - start_));
}

std::vector<SpanEvent> trace_events() {
  auto& r = trace_ring();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanEvent> out;
  const std::uint64_t total = r.next;
  const std::uint64_t kept = std::min<std::uint64_t>(total, kTraceRingCapacity);
  out.reserve(static_cast<std::size_t>(kept));
  for (std::uint64_t i = total - kept; i < total; ++i)
    out.push_back(r.ring[static_cast<std::size_t>(i % kTraceRingCapacity)]);
  return out;
}

Counter& counter(std::string_view name) {
  return lookup(registry().counters, name);
}
Timer& timer(std::string_view name) { return lookup(registry().timers, name); }
Histogram& histogram(std::string_view name) {
  return lookup(registry().histograms, name);
}

void reset() {
  auto& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    for (auto& [_, c] : reg.counters) c->reset();
    for (auto& [_, t] : reg.timers) t->reset();
    for (auto& [_, h] : reg.histograms) h->reset();
  }
  auto& r = trace_ring();
  std::lock_guard<std::mutex> lock(r.mu);
  r.next = 0;
}

std::string snapshot_json() {
  auto& reg = registry();
  std::string out;
  out.reserve(4096);
  out += "{\"compiled\": true, \"enabled\": ";
  out += enabled() ? "true" : "false";

  std::lock_guard<std::mutex> lock(reg.mu);
  out += ", \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : reg.counters) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    json_escape(out, name);
    out += "\": ";
    append_u64(out, c->value());
  }
  out += "}, \"timers\": {";
  first = true;
  for (const auto& [name, t] : reg.timers) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    json_escape(out, name);
    out += "\": {\"count\": ";
    append_u64(out, t->count());
    out += ", \"total_ns\": ";
    append_u64(out, t->total_ns());
    out += ", \"mean_ns\": ";
    append_double(out, t->count()
                           ? static_cast<double>(t->total_ns()) /
                                 static_cast<double>(t->count())
                           : 0.0);
    out += '}';
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : reg.histograms) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    json_escape(out, name);
    out += "\": {\"count\": ";
    append_u64(out, h->count());
    out += ", \"min\": ";
    append_double(out, h->min());
    out += ", \"max\": ";
    append_double(out, h->max());
    out += ", \"mean\": ";
    append_double(out,
                  h->count() ? h->sum() / static_cast<double>(h->count()) : 0.0);
    out += ", \"bins\": [";
    bool bfirst = true;
    for (int k = 0; k < Histogram::kBins; ++k) {
      const std::uint64_t n = h->bin(k);
      if (!n) continue;
      if (!bfirst) out += ", ";
      bfirst = false;
      out += "{\"lo\": ";
      append_double(out, Histogram::bin_lo(k));
      out += ", \"count\": ";
      append_u64(out, n);
      out += '}';
    }
    out += "]}";
  }
  out += "}, \"spans\": [";
  first = true;
  for (const auto& e : trace_events()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"";
    json_escape(out, e.name ? e.name : "");
    out += "\", \"start_ns\": ";
    append_u64(out, e.start_ns);
    out += ", \"dur_ns\": ";
    append_u64(out, e.dur_ns);
    out += ", \"seq\": ";
    append_u64(out, e.seq);
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

const char* si_time(double ns, double* scaled) {
  if (ns >= 1e9) return *scaled = ns / 1e9, "s";
  if (ns >= 1e6) return *scaled = ns / 1e6, "ms";
  if (ns >= 1e3) return *scaled = ns / 1e3, "us";
  return *scaled = ns, "ns";
}

}  // namespace

std::string snapshot_table() {
  auto& reg = registry();
  std::string out;
  char line[256];
  std::lock_guard<std::mutex> lock(reg.mu);

  out += "telemetry (" + std::string(enabled() ? "enabled" : "disabled") +
         ")\n";
  if (!reg.counters.empty()) out += "counters:\n";
  for (const auto& [name, c] : reg.counters) {
    std::snprintf(line, sizeof line, "  %-36s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += line;
  }
  if (!reg.timers.empty()) out += "timers:\n";
  for (const auto& [name, t] : reg.timers) {
    double total = 0.0, mean = 0.0;
    const char* tu = si_time(static_cast<double>(t->total_ns()), &total);
    const char* mu2 = si_time(
        t->count() ? static_cast<double>(t->total_ns()) /
                         static_cast<double>(t->count())
                   : 0.0,
        &mean);
    std::snprintf(line, sizeof line,
                  "  %-36s count=%-10llu total=%.3g%s mean=%.3g%s\n",
                  name.c_str(), static_cast<unsigned long long>(t->count()),
                  total, tu, mean, mu2);
    out += line;
  }
  if (!reg.histograms.empty()) out += "histograms:\n";
  for (const auto& [name, h] : reg.histograms) {
    std::snprintf(line, sizeof line,
                  "  %-36s count=%-10llu min=%.4g max=%.4g mean=%.4g\n",
                  name.c_str(), static_cast<unsigned long long>(h->count()),
                  h->min(), h->max(),
                  h->count() ? h->sum() / static_cast<double>(h->count())
                             : 0.0);
    out += line;
  }
  const auto spans = trace_events();
  std::snprintf(line, sizeof line, "spans: %zu buffered\n", spans.size());
  out += line;
  return out;
}

}  // namespace si::obs
