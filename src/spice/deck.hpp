// Deck runner: executes the analysis directives of a SPICE-style deck
// so a text file fully describes a simulation.
//
// Supported directives (on top of the element cards of parser.hpp):
//   .op                                  (always runs first)
//   .tran  <dt> <tstop>
//   .probe v(<node>) | i(<vsource>) ...  (transient probes)
//   .ac    dec <points/decade> <f_lo> <f_hi>
//   .noise v(<node>) dec <points/decade> <f_lo> <f_hi>
//
// AC excitation uses the `AC <mag>` suffix on V/I cards, e.g.
//   Vin in 0 DC 1.2 AC 1
#pragma once

#include <optional>
#include <string>

#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/noise.hpp"
#include "spice/transient.hpp"

namespace si::spice {

/// Everything a deck run produces.  The circuit is kept alive so node
/// ids in the results stay resolvable.
struct DeckRunResult {
  Circuit circuit;
  DcResult op;
  std::optional<TransientResult> tran;
  std::optional<AcResult> ac;
  std::optional<NoiseResult> noise;

  /// Node id lookup on the parsed circuit.
  NodeId node(const std::string& name) { return circuit.node(name); }
};

/// Execution controls for run_deck, used by callers (notably the
/// serve:: job server) that already validated the deck through the ERC
/// front-end and need cancellation plumbed into the solves.
struct DeckRunOptions {
  /// Newton controls for every solve in the run; `newton.cancel`
  /// carries the cooperative cancellation token into the DC, transient,
  /// AC and noise loops.
  NewtonOptions newton;
  /// Run the pre-simulation ERC gate (set false when the deck was
  /// already linted through erc::check_deck).
  bool erc_gate = true;
};

/// Parses and runs a full deck.  Throws ParseError for malformed
/// directives, ConvergenceError for failed solves, and
/// runtime::CancelledError when `opt.newton.cancel` fires.
DeckRunResult run_deck(const std::string& deck,
                       const DeckRunOptions& opt);
DeckRunResult run_deck(const std::string& deck);

}  // namespace si::spice
