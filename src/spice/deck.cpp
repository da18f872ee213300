#include "spice/deck.hpp"

#include <algorithm>
#include <cctype>

#include "erc/check.hpp"
#include "spice/parser.hpp"

namespace si::spice {

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

char lower_char(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

/// Whitespace-separated tokens of one card, lower-cased.
std::vector<std::string> lower_tokens(std::string_view card) {
  std::vector<std::string> out;
  std::size_t k = 0;
  while (true) {
    while (k < card.size() && is_space(card[k])) ++k;
    if (k == card.size()) return out;
    std::string& tok = out.emplace_back();
    while (k < card.size() && !is_space(card[k]))
      tok.push_back(lower_char(card[k++]));
  }
}

/// True when `card` begins with `prefix` (lower case), ignoring case.
bool starts_with_nocase(std::string_view card, std::string_view prefix) {
  if (card.size() < prefix.size()) return false;
  for (std::size_t k = 0; k < prefix.size(); ++k)
    if (lower_char(card[k]) != prefix[k]) return false;
  return true;
}

/// The directive named by the whole first token of a trimmed card.
std::optional<DirectiveKind> directive_kind(std::string_view card) {
  if (card.empty() || card[0] != '.') return std::nullopt;
  std::size_t n = 1;
  while (n < card.size() && !is_space(card[n])) ++n;
  static constexpr std::pair<std::string_view, DirectiveKind> kNames[] = {
      {".op", DirectiveKind::kOp},       {".tran", DirectiveKind::kTran},
      {".probe", DirectiveKind::kProbe}, {".ac", DirectiveKind::kAc},
      {".noise", DirectiveKind::kNoise}};
  for (const auto& [name, kind] : kNames)
    if (n == name.size() && starts_with_nocase(card, name)) return kind;
  return std::nullopt;
}

/// "v(node)" -> {'v', "node"}; "i(vs)" -> {'i', "vs"}.
std::pair<char, std::string> parse_probe_token(const std::string& tok,
                                               std::size_t line) {
  if (tok.size() < 4 || tok[1] != '(' || tok.back() != ')')
    throw ParseError(line, "bad probe '" + tok + "'");
  const char kind = tok[0];
  if (kind != 'v' && kind != 'i')
    throw ParseError(line, "probe must be v(...) or i(...)");
  return {kind, tok.substr(2, tok.size() - 3)};
}

/// A directive argument read with parse_value: a malformed number is a
/// ParseError at the card's line.
double directive_value(const std::string& tok, std::size_t line) {
  try {
    return parse_value(tok);
  } catch (const std::invalid_argument& e) {
    throw ParseError(line, e.what());
  }
}

/// The .ac / .noise sweep arguments log_space accepts.
void check_sweep(int ppd, double lo, double hi, std::size_t line) {
  if (ppd < 1 || !(lo > 0.0) || !(hi > lo))
    throw ParseError(line, "sweep needs <ppd> >= 1 and 0 < <f_lo> < <f_hi>");
}

}  // namespace

bool DeckCards::has(DirectiveKind kind) const {
  return std::any_of(directives.begin(), directives.end(),
                     [kind](const Directive& d) { return d.kind == kind; });
}

DeckCards split_deck(std::string_view deck) {
  DeckCards out;
  out.elements.reserve(deck.size() + 1);
  std::size_t lineno = 0, pos = 0;
  while (pos < deck.size()) {
    const std::size_t nl = deck.find('\n', pos);
    const std::string_view raw =
        deck.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    pos = nl == std::string_view::npos ? deck.size() : nl + 1;
    ++lineno;
    const auto b = raw.find_first_not_of(" \t\r");
    const std::string_view card =
        b == std::string_view::npos ? std::string_view() : raw.substr(b);
    if (const auto kind = directive_kind(card)) {
      out.directives.push_back({*kind, lineno, lower_tokens(card)});
      out.elements += "*\n";  // keeps the element cards' line numbers
      continue;
    }
    if (starts_with_nocase(card, "* erc-disable")) {
      // tokens: "*", "erc-disable", then the rule ids.
      std::vector<std::string> toks = lower_tokens(card);
      for (std::size_t k = 2; k < toks.size(); ++k)
        out.erc_disable.push_back(std::move(toks[k]));
    }
    out.elements.append(raw);
    out.elements += '\n';
  }
  return out;
}

DeckAnalyses parse_directives(const std::vector<Directive>& directives) {
  DeckAnalyses dir;
  for (const Directive& d : directives) {
    const std::vector<std::string>& toks = d.tokens;
    switch (d.kind) {
      case DirectiveKind::kOp:
        break;  // implied anyway
      case DirectiveKind::kTran:
        if (toks.size() != 3) throw ParseError(d.line, ".tran <dt> <tstop>");
        dir.have_tran = true;
        dir.dt = directive_value(toks[1], d.line);
        dir.t_stop = directive_value(toks[2], d.line);
        if (!(dir.dt > 0.0) || !(dir.t_stop > 0.0))
          throw ParseError(d.line, ".tran needs <dt> > 0 and <tstop> > 0");
        break;
      case DirectiveKind::kProbe:
        for (std::size_t k = 1; k < toks.size(); ++k)
          dir.probes.push_back(parse_probe_token(toks[k], d.line));
        break;
      case DirectiveKind::kAc:
        if (toks.size() != 5 || toks[1] != "dec")
          throw ParseError(d.line, ".ac dec <ppd> <f_lo> <f_hi>");
        dir.have_ac = true;
        dir.ac_ppd = static_cast<int>(directive_value(toks[2], d.line));
        dir.ac_lo = directive_value(toks[3], d.line);
        dir.ac_hi = directive_value(toks[4], d.line);
        check_sweep(dir.ac_ppd, dir.ac_lo, dir.ac_hi, d.line);
        break;
      case DirectiveKind::kNoise: {
        if (toks.size() != 6 || toks[2] != "dec")
          throw ParseError(d.line,
                           ".noise v(<node>) dec <ppd> <f_lo> <f_hi>");
        const auto probe = parse_probe_token(toks[1], d.line);
        if (probe.first != 'v')
          throw ParseError(d.line, ".noise output must be v(...)");
        dir.have_noise = true;
        dir.noise_node = probe.second;
        dir.noise_ppd = static_cast<int>(directive_value(toks[3], d.line));
        dir.noise_lo = directive_value(toks[4], d.line);
        dir.noise_hi = directive_value(toks[5], d.line);
        check_sweep(dir.noise_ppd, dir.noise_lo, dir.noise_hi, d.line);
        break;
      }
    }
  }
  return dir;
}

DeckRunResult run_deck(const std::string& deck) {
  return run_deck(deck, DeckRunOptions{});
}

DeckRunResult run_deck(const std::string& deck, const DeckRunOptions& opt) {
  const DeckCards cards = split_deck(deck);
  const DeckAnalyses analyses = parse_directives(cards.directives);
  Circuit circuit = parse_netlist(cards.elements);
  // The gate honours the deck's "* erc-disable" cards, as erc_lint does.
  DeckRunOptions gated = opt;
  if (opt.erc_gate) {
    erc::ErcOptions eo;
    eo.suppress = cards.erc_disable;
    erc::enforce(circuit, eo);
    gated.erc_gate = false;
  }
  return run_deck(std::move(circuit), analyses, gated);
}

DeckRunResult run_deck(Circuit circuit, const DeckAnalyses& dir,
                       const DeckRunOptions& opt) {
  DeckRunResult r{std::move(circuit), {}, {}, {}, {}};
  // Lint once: every analysis below runs on the same unchanged circuit.
  if (opt.erc_gate) erc::enforce(r.circuit);
  DcOptions dco;
  dco.newton = opt.newton;
  dco.erc_gate = false;
  r.op = dc_operating_point(r.circuit, dco);

  if (dir.have_tran) {
    TransientOptions topt;
    topt.dt = dir.dt;
    topt.t_stop = dir.t_stop;
    topt.newton = opt.newton;
    topt.erc_gate = false;
    Transient tr(r.circuit, topt);
    for (const auto& [kind, name] : dir.probes) {
      if (kind == 'v')
        tr.probe_voltage(name);
      else
        tr.probe_current(name);
    }
    r.tran = tr.run();
    // The transient leaves the elements at t = t_stop; restore the
    // operating point for the small-signal analyses.
    if (dir.have_ac || dir.have_noise) r.op = dc_operating_point(r.circuit, dco);
  }
  if (dir.have_ac) {
    AcOptions aopt;
    aopt.erc_gate = false;
    r.ac = ac_analysis(r.circuit,
                       log_space(dir.ac_lo, dir.ac_hi, dir.ac_ppd), aopt);
  }
  if (dir.have_noise) {
    NoiseOptions nopt;
    nopt.output_p = r.circuit.node(dir.noise_node);
    nopt.freqs = log_space(dir.noise_lo, dir.noise_hi, dir.noise_ppd);
    r.noise = noise_analysis(r.circuit, nopt);
  }
  return r;
}

}  // namespace si::spice
