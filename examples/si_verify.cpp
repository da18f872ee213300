// si_verify — deck-wide static verification CLI.
//
//   si_verify deck.sp [more.sp ...]      # human-readable report
//   si_verify --json deck.sp             # single JSON document
//
// Runs the interval abstract interpreter (src/verify/) over each deck:
// propagates supply / source / parameter-tolerance intervals to every
// node, checks the worst-case supply floor of Eqs. (1)-(2), sampling
// overdrive, hold-phase region retention, signal-range overflow, and
// the exact clock-phase overlap matrix.  Every violation carries a
// concrete witness corner that reproduces it.
//
// Options:
//   --json               emit the full analysis as JSON (findings,
//                        node ranges, pair summaries, timing, stats)
//   --stats              append the verify.* telemetry snapshot
//   --tol-supply=R       relative DC-source tolerance   (default 0.02)
//   --tol-vt=V           absolute Vt tolerance [V]      (default 0.05)
//   --tol-beta=R         relative beta tolerance        (default 0.05)
//   --tol-current=R      relative current tolerance     (default 0.05)
//   --min-overdrive=V    required sampling overdrive    (default 0.05)
//   --rail-margin=V      allowed rail excursion [V]     (default 0.3)
//
// Exit status: 0 every deck proves clean, 1 at least one finding,
// 2 usage / I/O / parse error.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "erc/diagnostics.hpp"
#include "obs/telemetry.hpp"
#include "spice/deck.hpp"
#include "spice/parser.hpp"
#include "verify/verify.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--json] [--stats] [--tol-supply=R] [--tol-vt=V]\n"
               "       [--tol-beta=R] [--tol-current=R] "
               "[--min-overdrive=V]\n"
               "       [--rail-margin=V] deck.sp...\n";
  return 2;
}

bool parse_double(const std::string& arg, const std::string& prefix,
                  double& out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  char* end = nullptr;
  const std::string v = arg.substr(prefix.size());
  out = std::strtod(v.c_str(), &end);
  return end && *end == '\0' && !v.empty();
}

}  // namespace

int main(int argc, char** argv) {
  namespace verify = si::verify;

  bool json = false;
  bool stats = false;
  verify::VerifyOptions opt;
  std::vector<std::string> decks;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    double v = 0.0;
    if (arg == "--json") {
      json = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (parse_double(arg, "--tol-supply=", v)) {
      opt.abs.supply_rel_tol = v;
    } else if (parse_double(arg, "--tol-vt=", v)) {
      opt.abs.vt_abs_tol = v;
    } else if (parse_double(arg, "--tol-beta=", v)) {
      opt.abs.beta_rel_tol = v;
    } else if (parse_double(arg, "--tol-current=", v)) {
      opt.abs.current_rel_tol = v;
    } else if (parse_double(arg, "--min-overdrive=", v)) {
      opt.min_overdrive = v;
    } else if (parse_double(arg, "--rail-margin=", v)) {
      opt.abs.rail_margin = v;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      decks.push_back(arg);
    }
  }
  if (decks.empty()) return usage(argv[0]);
  if (stats) si::obs::set_enabled(true);

  bool failed = false;
  std::ostringstream json_decks;
  for (const std::string& path : decks) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "si_verify: cannot open '" << path << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();

    si::spice::ParseIndex index;
    std::unique_ptr<si::spice::Circuit> circuit;
    try {
      circuit = std::make_unique<si::spice::Circuit>(
          si::spice::parse_netlist(si::spice::split_deck(text.str()).elements,
                                    &index));
    } catch (const si::spice::ParseError& e) {
      std::cerr << "si_verify: " << path << ":" << e.line() << ": "
                << e.what() << "\n";
      return 2;
    }

    const verify::VerifyResult result = verify::analyze(*circuit, opt);
    if (!result.findings.empty()) failed = true;

    if (json) {
      if (json_decks.tellp() > 0) json_decks << ",";
      json_decks << "{\"deck\":\"" << si::erc::json_escape(path)
                 << "\",\"report\":" << verify::to_json(result) << "}";
    } else {
      si::erc::DiagnosticSink sink;
      verify::report(result, sink);
      std::cout << sink.text();
      std::cout << path << ": " << result.findings.size()
                << " finding(s), " << result.stats.nodes_resolved << "/"
                << result.stats.nodes << " node(s) bounded, "
                << result.stats.pairs << " pair(s), "
                << result.stats.segments << " clock segment(s)\n";
    }
  }
  if (json) {
    std::cout << "{\"decks\":[" << json_decks.str() << "]";
    if (stats) std::cout << ",\"stats\":" << si::obs::snapshot_json();
    std::cout << "}\n";
  } else if (stats) {
    std::cout << si::obs::snapshot_json() << "\n";
  }
  return failed ? 1 : 0;
}
