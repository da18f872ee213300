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
// A directive is named by the whole first token of its card, in any
// case: ".options" or ".tranx" is not a directive, so it reaches the
// element parser, which rejects it as unsupported at its line.
//
// AC excitation uses the `AC <mag>` suffix on V/I cards, e.g.
//   Vin in 0 DC 1.2 AC 1
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/noise.hpp"
#include "spice/transient.hpp"

namespace si::spice {

enum class DirectiveKind { kOp, kTran, kProbe, kAc, kNoise };

/// One directive card: its kind, its 1-based deck line and its
/// whitespace-separated, lower-cased tokens (tokens[0] is the name).
struct Directive {
  DirectiveKind kind = DirectiveKind::kOp;
  std::size_t line = 0;
  std::vector<std::string> tokens;
};

/// A deck split into element cards and directives.  split_deck is the
/// one place deck lines are classified: run_deck, erc::check_deck and
/// the serve job path all read a deck through it.
struct DeckCards {
  /// The element cards for parse_netlist.  Each directive line is
  /// blanked to a comment card, so parse errors and ParseIndex lines
  /// are the deck's own.
  std::string elements;
  /// The directives, in deck order.
  std::vector<Directive> directives;
  /// Rule ids from "* erc-disable <rule-id>..." comment cards, which
  /// the deck-level lint honours.
  std::vector<std::string> erc_disable;

  bool has(DirectiveKind kind) const;
};

/// Splits deck text in one pass.  Never throws on deck content:
/// directive arguments are checked by parse_directives, element cards
/// by parse_netlist.
DeckCards split_deck(std::string_view deck);

/// The analyses a deck's directives request, with their arguments
/// checked.
struct DeckAnalyses {
  bool have_tran = false;
  double dt = 0.0, t_stop = 0.0;
  /// Transient probes: {'v', node} or {'i', voltage source}.
  std::vector<std::pair<char, std::string>> probes;
  bool have_ac = false;
  int ac_ppd = 10;
  double ac_lo = 0.0, ac_hi = 0.0;
  bool have_noise = false;
  std::string noise_node;
  int noise_ppd = 10;
  double noise_lo = 0.0, noise_hi = 0.0;
};

/// Checks the directives' arguments; throws ParseError at the line of
/// the first malformed card.
DeckAnalyses parse_directives(const std::vector<Directive>& directives);

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

/// Parses and runs a full deck: directives are checked before the
/// element cards are parsed.  Throws ParseError for malformed cards,
/// ConvergenceError for failed solves, and runtime::CancelledError when
/// `opt.newton.cancel` fires.
DeckRunResult run_deck(const std::string& deck,
                       const DeckRunOptions& opt);
DeckRunResult run_deck(const std::string& deck);

/// Runs `analyses` on an already parsed circuit: the operating point,
/// then the transient, AC and noise analyses it asks for.
DeckRunResult run_deck(Circuit circuit, const DeckAnalyses& analyses,
                       const DeckRunOptions& opt);

}  // namespace si::spice
