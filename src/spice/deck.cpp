#include "spice/deck.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

#include "erc/check.hpp"
#include "spice/parser.hpp"

namespace si::spice {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::vector<std::string> split_ws(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  std::string t;
  while (in >> t) out.push_back(lower(t));
  return out;
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

struct Directives {
  bool have_tran = false;
  double dt = 0.0, t_stop = 0.0;
  std::vector<std::pair<char, std::string>> probes;
  bool have_ac = false;
  int ac_ppd = 10;
  double ac_lo = 0.0, ac_hi = 0.0;
  bool have_noise = false;
  std::string noise_node;
  int noise_ppd = 10;
  double noise_lo = 0.0, noise_hi = 0.0;
};

}  // namespace

DeckRunResult run_deck(const std::string& deck) {
  return run_deck(deck, DeckRunOptions{});
}

DeckRunResult run_deck(const std::string& deck, const DeckRunOptions& opt) {
  // Separate analysis directives from element cards.
  std::ostringstream element_deck;
  Directives dir;
  {
    std::istringstream in(deck);
    std::string raw;
    std::size_t lineno = 0;
    while (std::getline(in, raw)) {
      ++lineno;
      const auto b = raw.find_first_not_of(" \t\r");
      const std::string trimmed =
          (b == std::string::npos) ? "" : raw.substr(b);
      const std::string low = lower(trimmed);
      const bool is_directive = low.rfind(".tran", 0) == 0 ||
                                low.rfind(".ac", 0) == 0 ||
                                low.rfind(".noise", 0) == 0 ||
                                low.rfind(".probe", 0) == 0 ||
                                low.rfind(".op", 0) == 0;
      if (!is_directive) {
        element_deck << raw << "\n";
        continue;
      }
      const auto toks = split_ws(low);
      if (toks[0] == ".op") continue;  // implied anyway
      if (toks[0] == ".tran") {
        if (toks.size() != 3) throw ParseError(lineno, ".tran <dt> <tstop>");
        dir.have_tran = true;
        dir.dt = parse_value(toks[1]);
        dir.t_stop = parse_value(toks[2]);
      } else if (toks[0] == ".probe") {
        for (std::size_t k = 1; k < toks.size(); ++k)
          dir.probes.push_back(parse_probe_token(toks[k], lineno));
      } else if (toks[0] == ".ac") {
        if (toks.size() != 5 || toks[1] != "dec")
          throw ParseError(lineno, ".ac dec <ppd> <f_lo> <f_hi>");
        dir.have_ac = true;
        dir.ac_ppd = static_cast<int>(parse_value(toks[2]));
        dir.ac_lo = parse_value(toks[3]);
        dir.ac_hi = parse_value(toks[4]);
      } else {  // .noise
        if (toks.size() != 6 || toks[2] != "dec")
          throw ParseError(lineno,
                           ".noise v(<node>) dec <ppd> <f_lo> <f_hi>");
        const auto probe = parse_probe_token(toks[1], lineno);
        if (probe.first != 'v')
          throw ParseError(lineno, ".noise output must be v(...)");
        dir.have_noise = true;
        dir.noise_node = probe.second;
        dir.noise_ppd = static_cast<int>(parse_value(toks[3]));
        dir.noise_lo = parse_value(toks[4]);
        dir.noise_hi = parse_value(toks[5]);
      }
    }
  }

  DeckRunResult r{parse_netlist(element_deck.str()), {}, {}, {}, {}};
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
