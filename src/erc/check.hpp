// Static electrical-rule check (ERC) over a parsed spice::Circuit and
// over SPICE-style deck text.  Runs *before* any simulation and catches
// the structural mistakes that otherwise only surface as a mysteriously
// wrong transient hours later.
//
// Rule catalog (stable ids):
//   Generic SPICE pack
//     spice.parse-error     E  deck failed to parse at all
//     spice.no-ground       E  no element is connected to node 0
//     spice.node-island     E  connected subcircuit with no path to ground
//     spice.floating-gate   E  MOSFET gate node with no DC drive
//     spice.dc-floating     W  node attached only to capacitor / sense
//                              terminals (no DC path)
//     spice.duplicate-name  E  two elements share a name
//     spice.shorted-source  E  voltage-defined source with both terminals
//                              on the same node (singular MNA row)
//     spice.self-loop       W  passive element with both terminals on the
//                              same node (stamps nothing)
//     spice.zero-source     N  source that is identically zero (the 0 V
//                              ammeter idiom)
//     spice.dangling-node   W  node touched by exactly one terminal
//     spice.unused-node     W  node created but attached to nothing
//     spice.probe-unknown   E  .probe references a node / source no
//                              element card defines (deck checks only)
//     (zero or negative element values are rejected by the element
//      constructors themselves; in decks they surface as
//      spice.parse-error with the offending line)
//   Paper-specific SI pack (class-AB memory cells, CMFF — Figs. 1-2)
//     si.supply-min         E  supply below the Eq. (1)-(2) minimum for
//                              the detected memory pair's thresholds
//     si.cmff-half-size     W  CMFF extraction devices not half-sized
//                              relative to the diode masters
//     si.classab-asymmetry  W  complementary memory pair with unbalanced
//                              beta (quiescent current mismatch)
//     si.clock-overlap      E  sampling switches of cascaded memory
//                              cells close on overlapping clock phases
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "erc/diagnostics.hpp"
#include "si/supply.hpp"
#include "spice/circuit.hpp"
#include "spice/parser.hpp"

namespace si::spice {
struct DeckCards;
}

namespace si::erc {

/// Minimum total quiescent overdrive (Vov_n + Vov_p) a class-AB pair
/// needs on top of Vt_n + Vt_p before si.supply-min fires [V].
constexpr double kMinPairOverdrive = 0.1;
/// Relative tolerance on the CMFF half-size ratio (si.cmff-half-size).
constexpr double kHalfSizeTolerance = 0.02;
/// Relative tolerance on the memory-pair beta match
/// (si.classab-asymmetry).
constexpr double kPairBetaTolerance = 0.05;

struct ErcOptions {
  /// Diagnostics below this severity are dropped.
  Severity min_severity = Severity::kNote;
  /// Rule ids to suppress entirely.
  std::vector<std::string> suppress;
  /// Enables the generic SPICE structural pack.
  bool spice_rules = true;
  /// Enables the paper-specific SI pack.
  bool si_rules = true;
  /// Enables the deep static-verification pack (src/verify/): interval
  /// abstract interpretation of node voltages plus the witness-backed
  /// si.supply-floor-worstcase / si.overdrive-margin /
  /// si.region-violation / si.range-overflow checkers, at the
  /// verify::VerifyOptions defaults.
  bool deep = false;
};

/// Runs every enabled rule over the circuit into `sink`.  `index`, if
/// given, maps elements / nodes back to deck lines (see ParseIndex).
void check(const spice::Circuit& c, DiagnosticSink& sink,
           const ErcOptions& opt = {},
           const spice::ParseIndex* index = nullptr);

/// Convenience wrapper: collects and returns the diagnostics.
std::vector<Diagnostic> check(const spice::Circuit& c,
                              const ErcOptions& opt = {});

/// Thrown by enforce() / the pre-simulation gate when error-severity
/// diagnostics are present.  what() carries the full rendered list.
class ErcError : public std::runtime_error {
 public:
  ErcError(const std::string& what, std::vector<Diagnostic> diags)
      : std::runtime_error(what), diagnostics_(std::move(diags)) {}

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

 private:
  std::vector<Diagnostic> diagnostics_;
};

/// The pre-simulation gate: throws ErcError listing every diagnostic if
/// any error-severity rule fires.  Called by default from
/// dc_operating_point / Transient::run / ac_analysis (see their opt-out
/// flags).
void enforce(const spice::Circuit& c, const ErcOptions& opt = {});

/// Result of a deck-level lint.
struct DeckReport {
  DiagnosticSink sink;
  bool parse_ok = true;  ///< false when the deck did not parse at all
  /// The circuit the element cards parsed to (set when parse_ok).  A
  /// caller that simulates the deck after linting it runs this circuit
  /// rather than parsing the deck again.
  std::optional<spice::Circuit> circuit;
};

/// Lints SPICE deck text: strips the analysis directives run_deck()
/// understands, honours "* erc-disable <rule-id>..." comment cards,
/// parses the element cards (parse failures become spice.parse-error
/// diagnostics), runs the circuit rules with deck line attribution, and
/// checks .probe directives against the defined nodes / sources.
DeckReport check_deck(const std::string& deck, const ErcOptions& opt = {});

/// The same lint over a deck already split by spice::split_deck.
DeckReport check_deck(const spice::DeckCards& cards,
                      const ErcOptions& opt = {});

/// Checks a behavioural supply design against the full Eq. (1)-(2)
/// requirement (see cells::minimum_supply): files si.supply-min when
/// `vdd` is below the requirement's minimum.
void check_supply(const cells::SupplyRequirement& req, double vdd,
                  DiagnosticSink& sink);

}  // namespace si::erc
