// Static circuit verification: the public face of src/verify/.
//
// analyze() runs the interval abstract interpreter (absint.hpp) over a
// circuit, then evaluates the SI property checkers on the result:
//
//   si.supply-floor-worstcase  Vdd >= Vtn + Vtp + 2*Vov under tolerance
//                              (the paper's Eqs. (1)-(2))
//   si.overdrive-margin        both memory devices keep >= min_overdrive
//                              of gate overdrive while sampling
//   si.region-violation        a memory transistor provably leaves
//                              saturation during its hold phase
//   si.range-overflow          a node voltage escapes the rail window
//
// Witness soundness contract: the interval pass is a screen — a margin
// proven non-negative for every corner is reported safe and skipped.
// Anything else goes to a concrete corner search, and a violation is
// reported ONLY when a specific corner assignment (the witness) exhibits
// a negative margin under scalar evaluation.  The analysis may therefore
// over-approximate (fail to prove safety and also fail to certify a
// violation — it then stays silent) but never claims a violation without
// a concrete reproducing corner.
//
// Clock-phase timing is checked by ERC's si.clock-overlap rule on the
// cascaded sampling switches, through phase.hpp's exact overlap.
#pragma once

#include <string>
#include <vector>

#include "erc/diagnostics.hpp"
#include "verify/absint.hpp"

namespace si::verify {

struct VerifyOptions {
  AbsOptions abs;               ///< parameter tolerances
  double min_overdrive = 0.05;  ///< required gate overdrive [V]
};

/// One coordinate of a witness corner, e.g. {"vdd", 1.6856}.
struct WitnessVar {
  std::string name;
  double value = 0.0;
};

/// A certified property violation with its reproducing corner.
struct Finding {
  std::string rule;
  std::string element;  ///< offending pair ("MN/MP") or node
  std::string message;
  std::string fix;
  double margin = 0.0;  ///< signed margin at the witness corner [V]
  std::vector<WitnessVar> witness;
};

/// Proven voltage range of one node (hull over all clock segments).
struct NodeRange {
  std::string node;
  Interval v;
};

/// Analysis summary of one memory pair.
struct PairSummary {
  std::string mn, mp, drain;
  Interval i_in, v_drain, vov_n, vov_p;
  bool resolved = false;
  bool input_forked = false;
};

struct VerifyStats {
  std::size_t nodes = 0, segments = 0, pairs = 0, switches = 0;
  std::size_t nodes_resolved = 0;
  std::size_t iterations = 0, widenings = 0;
  std::size_t corners_evaluated = 0;
  /// Pair input currents evaluated by the witness corners, memoised
  /// within each corner (DESIGN.md, "Abstract domain & fixpoint
  /// contract").
  std::size_t pair_current_evals = 0;
  /// Distinct switch ON patterns resolved for the clock model
  /// (PhaseResolver).
  std::size_t phase_resolutions = 0;
};

struct VerifyResult {
  std::vector<Finding> findings;
  std::vector<NodeRange> ranges;
  std::vector<PairSummary> pairs;
  VerifyStats stats;
};

/// Runs the full static verification of `c`.
VerifyResult analyze(const spice::Circuit& c, const VerifyOptions& opt = {});

/// Files every finding into an ERC sink (error severity, rule ids as
/// above, the witness corner folded into the message).
void report(const VerifyResult& r, erc::DiagnosticSink& sink);

/// Machine-readable rendering: findings with witnesses, node ranges,
/// pair summaries and stats.
std::string to_json(const VerifyResult& r);

}  // namespace si::verify
