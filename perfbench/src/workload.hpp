// The benchmark's workloads.  Each one is driven in rounds: a round is
// the unit a user waits for (a transient study, a sweep + yield study, a
// batch of service requests) and records its own set-up, rate and
// latency samples plus the output checks.
#pragma once

#include <memory>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace pb {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Loads the stored references and generates the seeded inputs.
  /// Untimed.
  virtual void prepare(const Options& opt) = 0;

  /// The generated inputs, rendered byte-for-byte (decks, stimulus
  /// parameters, request streams): the seed-determinism self-test
  /// compares two renderings.
  virtual std::string dump_inputs() const = 0;

  /// One measured round.  `tracer` is null or disabled on untraced runs.
  virtual void round(RunReport& r, Tracer* tracer) = 0;

  /// Traced runs only: extra traced calls made once, before the traced
  /// rounds and before the registry is reset (e.g. the service's
  /// single-thread replay of run_job).
  virtual void trace_extras(RunReport&, Tracer&) {}

  /// Workload-specific metrics from the samples the rounds recorded.
  virtual void summarize(RunReport& r) const = 0;

  /// Span-derived per-layer metrics of a traced run of `rounds` rounds
  /// (the registry-derived ones are filled by the driver).
  virtual void layers(RunReport& r, const Tracer& t, int rounds) const = 0;

  /// Reference outputs of every variant, as stored under
  /// perfbench/reference/.  Empty for workloads checked against a live
  /// oracle instead.
  virtual serve::Json make_reference() = 0;
};

std::unique_ptr<Workload> make_tran_workload(bool large);
std::unique_ptr<Workload> make_sweep_workload();
std::unique_ptr<Workload> make_serve_workload();

}  // namespace pb
