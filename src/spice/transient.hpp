// Fixed-grid transient analysis with Newton iteration per step.
// Switched-current circuits are clocked, so every run steps a fixed
// grid that resolves the clock edges (200 steps per clock period in the
// paper workloads; README "Transient step size" has the measured error
// curve behind that choice).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spice/dc.hpp"

namespace si::spice {

/// How each grid step is solved.  Both engines run inside the same
/// Transient::run loop: the same grid, DC start, probes and on_step
/// calls.
enum class TransientEngine {
  kMonolithic,  ///< full-circuit Newton solve at every step (the default)
  kEvent,       ///< event-driven engine (src/event): partitions the
                ///< circuit at switch boundaries and skips the steps on
                ///< which every block is latent
};

struct TransientOptions {
  double t_stop = 0.0;   ///< end time [s]
  double dt = 0.0;       ///< grid step [s]
  Integrator integrator = Integrator::kTrapezoidal;
  NewtonOptions newton;
  bool start_from_dc = true;  ///< solve the t=0 operating point first
  /// Run the static electrical-rule check before the first step and
  /// throw erc::ErcError on error-severity findings (see DcOptions).
  bool erc_gate = true;

  /// Engine selection (see TransientEngine).  A step the event engine
  /// solves is the monolithic solve; it differs from the monolithic
  /// waveform only by the holds of the whole steps it skips.
  TransientEngine engine = TransientEngine::kMonolithic;
  /// Event engine: a block is quiescent once the largest per-step change
  /// over its unknowns falls below this [V]; see the DESIGN.md block
  /// latency contract for how this bounds the parity error.  The
  /// stimulus-change tolerance and the settle count are constants of
  /// src/event (kWaveTol, kSettleSteps).
  double event_quiescent_tol = 1e-8;
};

/// Recorded waveforms: time base plus one sample vector per probe,
/// with per-run stepping statistics.
struct TransientResult {
  std::vector<double> time;
  std::map<std::string, std::vector<double>> signals;

  std::uint64_t steps_accepted = 0;  ///< grid steps taken (excl. t = 0)

  /// Event engine only (zero under the monolithic engine): block-level
  /// multi-rate statistics.  latency ratio = block_skips / (block_solves
  /// + block_skips); steps_skipped counts grid steps where every block
  /// was latent and the Newton solve was elided entirely.
  std::uint64_t event_steps_skipped = 0;
  std::uint64_t event_block_solves = 0;
  std::uint64_t event_block_skips = 0;
  /// Partition size the event engine ran with (0 for monolithic).
  std::uint64_t event_blocks = 0;

  const std::vector<double>& signal(const std::string& name) const;
};

/// Runs a transient analysis over a finalized circuit.
class Transient {
 public:
  Transient(Circuit& c, TransientOptions opt);

  /// Records the voltage of the named node each step.  Probe and preset
  /// names must exist in the netlist: run() throws
  /// std::invalid_argument otherwise.
  void probe_voltage(const std::string& node_name);

  /// Records the branch current of the named voltage source each step.
  void probe_current(const std::string& vsource_name);

  /// Presets a node voltage for the t = 0 state (implies
  /// start_from_dc = false; capacitor states initialize consistently).
  void set_initial_voltage(const std::string& node_name, double volts);

  /// Runs the analysis on the fixed grid: whole dt steps, plus one
  /// exact partial final step when t_stop is not a multiple of dt.
  /// `on_step`, if given, is called at t = 0 and after each step — the
  /// hook the SI experiments use to sample held output currents at
  /// clock-phase boundaries.
  TransientResult run(
      const std::function<void(double, const SolutionView&)>& on_step = {});

 private:
  Circuit* circuit_;
  TransientOptions opt_;
  std::vector<std::string> voltage_probes_;
  std::vector<std::string> current_probes_;
  std::vector<std::pair<std::string, double>> initial_voltages_;
};

}  // namespace si::spice
