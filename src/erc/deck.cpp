// Deck-level lint: runs the circuit rules over SPICE deck text with
// line attribution, honours "* erc-disable" comment cards, and checks
// .probe directives against the nodes / sources the element cards
// actually define.
#include <optional>
#include <vector>

#include "erc/check.hpp"
#include "spice/deck.hpp"
#include "spice/elements.hpp"

namespace si::erc {

namespace {

struct Probe {
  char kind = 'v';  ///< 'v' (node voltage) or 'i' (source current)
  std::string target;
  std::size_t line = 0;
};

}  // namespace

DeckReport check_deck(const std::string& deck, const ErcOptions& opt) {
  return check_deck(spice::split_deck(deck), opt);
}

DeckReport check_deck(const spice::DeckCards& cards, const ErcOptions& opt) {
  DeckReport report;
  ErcOptions local = opt;
  local.suppress.insert(local.suppress.end(), cards.erc_disable.begin(),
                        cards.erc_disable.end());

  // Probe tokens look like v(node) / i(source); malformed ones are
  // reported here rather than at run time.
  std::vector<Probe> probes;
  for (const spice::Directive& d : cards.directives) {
    const bool is_noise = d.kind == spice::DirectiveKind::kNoise;
    if (d.kind != spice::DirectiveKind::kProbe && !is_noise) continue;
    const std::vector<std::string>& toks = d.tokens;
    const std::size_t last = is_noise ? 2 : toks.size();
    for (std::size_t k = 1; k < last && k < toks.size(); ++k) {
      const std::string& tok = toks[k];
      if (tok.size() < 4 || (tok[0] != 'v' && tok[0] != 'i') ||
          tok[1] != '(' || tok.back() != ')') {
        report.sink.report({Severity::kError, "spice.probe-unknown",
                            "malformed probe '" + tok +
                                "' (expected v(node) or i(source))",
                            d.line, "", ""});
        continue;
      }
      probes.push_back({tok[0], tok.substr(2, tok.size() - 3), d.line});
    }
  }

  report.sink.set_min_severity(local.min_severity);
  for (const auto& rule : local.suppress) report.sink.suppress(rule);

  spice::ParseIndex index;
  try {
    report.circuit.emplace(spice::parse_netlist(cards.elements, &index));
  } catch (const spice::ParseError& e) {
    report.parse_ok = false;
    report.sink.report({Severity::kError, "spice.parse-error", e.what(),
                        e.line(), "", "fix the card so the deck parses"});
    return report;
  }
  const spice::Circuit& circuit = *report.circuit;

  for (const Probe& p : probes) {
    if (p.kind == 'v') {
      // Resolved as the simulator resolves a probe, ground aliases
      // included.
      if (!circuit.find_node(p.target)) {
        report.sink.report({Severity::kError, "spice.probe-unknown",
                            "probe v(" + p.target + ") references node '" +
                                p.target + "' that no element card defines",
                            p.line, "",
                            "probe an existing node or fix the typo"});
      }
    } else {
      const spice::Element* e = circuit.find(p.target);
      if (!e || !dynamic_cast<const spice::VoltageSource*>(e)) {
        report.sink.report({Severity::kError, "spice.probe-unknown",
                            "probe i(" + p.target +
                                ") needs a voltage source named '" +
                                p.target + "'",
                            p.line, "",
                            "current probes sense voltage-source branches; "
                            "insert a 0 V ammeter if needed"});
      }
    }
  }

  check(circuit, report.sink, local, &index);
  return report;
}

}  // namespace si::erc
