// Benchmark-side spans.  The benchmark opens a span around each call it
// makes into a library layer; nothing inside src/ is instrumented.  A
// span knows its parent (the span open on the same thread when it
// started) and, for service requests, the job id it belongs to, so a
// layer's self time is its span time minus the time of its children.
//
// Spans are kept in memory and written once, at the end of the traced
// run, as Chrome trace-event JSON (loadable in Perfetto / about:tracing)
// plus a per-layer summary.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

class Tracer {
 public:
  struct Record {
    const char* name = nullptr;   ///< string literal, e.g. "spice.tran"
    std::uint64_t id = 0;
    std::uint64_t parent = 0;     ///< 0 = root
    std::uint64_t tid = 0;
    std::int64_t start_ns = 0;    ///< relative to the tracer's epoch
    std::int64_t dur_ns = 0;
    std::string job;              ///< service job id, empty otherwise
  };

  /// A span belongs to the layer named by its prefix up to the first '.'.
  struct LayerTime {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t spans = 0;
  };

  /// RAII span.  Costs nothing beyond a branch when the tracer is off
  /// (or null), so the same call sites serve traced and untraced runs.
  class Span {
   public:
    Span(Tracer* t, const char* name, std::string job = {});
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
    Record rec_;
    Span* outer_ = nullptr;
    Clock::time_point start_;
  };

  Tracer();

  void set_enabled(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  std::vector<Record> records() const;
  /// Sum of durations of spans called `name`, in ms.
  double total_ms(const char* name) const;
  /// Durations of spans called `name`, in ms.
  std::vector<double> durations_ms(const char* name) const;
  std::map<std::string, LayerTime> layer_times() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chrome_json() const;

 private:
  void push(Record r);

  bool on_ = false;
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

}  // namespace pb
