// Rule implementations for the static electrical-rule checker: the
// generic SPICE structural pack (connectivity, floating gates, degenerate
// sources) and the paper-specific SI pack (Eq. (1)-(2) supply minimum,
// CMFF half-size mirrors, class-AB pair symmetry, two-phase clocking).
#include "erc/check.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"
#include "verify/phase.hpp"
#include "verify/topology.hpp"
#include "verify/verify.hpp"

namespace si::erc {

namespace {

using spice::Circuit;
using spice::Element;
using spice::Mosfet;
using spice::NodeId;

std::string fmt(double v, int digits = 4) {
  std::ostringstream out;
  out.precision(digits);
  out << v;
  return out.str();
}

/// fmt of a and b, with as many more digits as it takes for two
/// different values not to read equal.
std::pair<std::string, std::string> fmt_apart(double a, double b) {
  for (int digits = 4;; ++digits) {
    std::string sa = fmt(a, digits), sb = fmt(b, digits);
    if (sa != sb || a == b || digits >= 17) return {sa, sb};
  }
}

/// si.supply-min fires only when the supply is this far below the pair
/// floor [V], so a supply set exactly at Vt_n + Vt_p + Vov passes even
/// where the sum rounds up (0.8 + 0.8 + 0.1 > 1.7 in doubles).
constexpr double kSupplyFloorSlack = 1e-9;

/// Shared per-check state: the circuit and its topology index.
struct Ctx {
  const Circuit& c;
  const spice::ParseIndex* index;
  DiagnosticSink& sink;
  const verify::SiTopology topo;

  explicit Ctx(const Circuit& circuit, const spice::ParseIndex* idx,
               DiagnosticSink& s)
      : c(circuit), index(idx), sink(s), topo(circuit) {}

  const Element& element(std::size_t k) const { return *c.elements()[k]; }

  std::size_t line_of_element(const std::string& name) const {
    return index ? index->element(name) : 0;
  }
  std::size_t line_of_node(NodeId n) const {
    return index ? index->node(c.node_name(n)) : 0;
  }
};

// ---------------------------------------------------------------------
// Generic SPICE pack
// ---------------------------------------------------------------------

/// spice.no-ground + spice.node-island: union-find over the element
/// graph; every component that does not contain ground is undriven.
void check_connectivity(Ctx& ctx) {
  const std::size_t n = ctx.c.node_count();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::size_t a) {
    while (parent[a] != a) a = parent[a] = parent[parent[a]];
    return a;
  };
  const auto unite = [&](std::size_t a, std::size_t b) {
    parent[find(a)] = find(b);
  };
  for (const auto& terms : ctx.topo.terminals)
    for (std::size_t k = 1; k < terms.size(); ++k)
      unite(static_cast<std::size_t>(terms[k].node),
            static_cast<std::size_t>(terms[0].node));

  if (!ctx.c.elements().empty() && ctx.topo.attached[0].empty()) {
    ctx.sink.report({Severity::kError, "spice.no-ground",
                     "no element is connected to ground (node 0)", 0, "",
                     "reference the circuit to node 0 so the MNA system "
                     "has a defined zero"});
  }

  const std::size_t ground_root = find(0);
  std::map<std::size_t, std::vector<NodeId>> islands;
  for (std::size_t i = 1; i < n; ++i)
    if (!ctx.topo.attached[i].empty() && find(i) != ground_root)
      islands[find(i)].push_back(static_cast<NodeId>(i));
  for (const auto& [root, members] : islands) {
    std::ostringstream msg;
    msg << "node" << (members.size() > 1 ? "s" : "") << " ";
    for (std::size_t k = 0; k < members.size(); ++k) {
      if (k) msg << ", ";
      msg << "'" << ctx.c.node_name(members[k]) << "'";
    }
    msg << " form" << (members.size() > 1 ? "" : "s")
        << " a subcircuit with no path to ground";
    ctx.sink.report({Severity::kError, "spice.node-island", msg.str(),
                     ctx.line_of_node(members.front()), "",
                     "connect the subcircuit to the rest of the circuit "
                     "or remove it"});
  }
}

/// spice.floating-gate / spice.dc-floating / spice.dangling-node /
/// spice.unused-node: per-node terminal census.
void check_node_usage(Ctx& ctx) {
  for (std::size_t i = 1; i < ctx.c.node_count(); ++i) {
    const auto& at = ctx.topo.attached[i];
    const std::string& name = ctx.c.node_name(static_cast<NodeId>(i));
    if (at.empty()) {
      ctx.sink.report({Severity::kWarning, "spice.unused-node",
                       "node '" + name +
                           "' is referenced but no element connects to it",
                       ctx.line_of_node(static_cast<NodeId>(i)), "",
                       "remove the stray reference or wire the node up"});
      continue;
    }
    const bool all_blocking =
        std::all_of(at.begin(), at.end(),
                    [](const auto& p) { return p.second.dc_blocking; });
    if (all_blocking) {
      const auto gate = std::find_if(at.begin(), at.end(), [](const auto& p) {
        return std::string(p.second.role) == "g";
      });
      if (gate != at.end()) {
        const std::string& elem = ctx.element(gate->first).name();
        ctx.sink.report(
            {Severity::kError, "spice.floating-gate",
             "MOSFET '" + elem + "' gate node '" + name +
                 "' has no DC drive (only gate/capacitor terminals attach)",
             ctx.line_of_element(elem), elem,
             "drive the gate from a source, switch, or diode connection"});
      } else {
        ctx.sink.report({Severity::kWarning, "spice.dc-floating",
                         "node '" + name +
                             "' has no DC path (only capacitor or sensing "
                             "terminals attach)",
                         ctx.line_of_node(static_cast<NodeId>(i)), "",
                         "add a DC path (resistor or source) to define "
                         "the node's operating point"});
      }
    } else if (at.size() == 1) {
      const std::string& elem = ctx.element(at.front().first).name();
      ctx.sink.report({Severity::kWarning, "spice.dangling-node",
                       "node '" + name + "' connects only to '" + elem +
                           "' (single terminal)",
                       ctx.line_of_element(elem), elem,
                       "check for a typo in the node name"});
    }
  }
}

/// spice.duplicate-name: elements must be findable by name.
void check_duplicate_names(Ctx& ctx) {
  std::unordered_set<std::string_view> seen;
  seen.reserve(ctx.c.elements().size());
  for (std::size_t k = 0; k < ctx.c.elements().size(); ++k) {
    const std::string& name = ctx.element(k).name();
    if (!seen.insert(name).second) {
      ctx.sink.report({Severity::kError, "spice.duplicate-name",
                       "element name '" + name + "' is defined twice",
                       ctx.line_of_element(name), name,
                       "rename one of the elements"});
    }
  }
}

/// spice.shorted-source / spice.self-loop / spice.zero-value /
/// spice.bad-geometry / spice.zero-source: per-element sanity.
void check_elements(Ctx& ctx) {
  for (std::size_t k = 0; k < ctx.c.elements().size(); ++k) {
    const Element& e = ctx.element(k);
    const auto& terms = ctx.topo.terminals[k];
    const std::size_t line = ctx.line_of_element(e.name());

    const bool out_shorted =
        terms.size() >= 2 && terms[0].node == terms[1].node;
    if (const auto* v = dynamic_cast<const spice::VoltageSource*>(&e)) {
      if (out_shorted) {
        ctx.sink.report({Severity::kError, "spice.shorted-source",
                         "voltage source '" + e.name() +
                             "' has both terminals on node '" +
                             ctx.c.node_name(terms[0].node) +
                             "' (singular branch equation)",
                         line, e.name(), "connect the terminals to "
                         "distinct nodes"});
      } else if (dynamic_cast<const spice::DcWave*>(&v->waveform()) &&
                 v->waveform().dc_value() == 0.0 &&
                 v->ac_magnitude() == 0.0) {
        ctx.sink.report({Severity::kNote, "spice.zero-source",
                         "voltage source '" + e.name() +
                             "' is identically 0 V (ammeter idiom?)",
                         line, e.name(), ""});
      }
    } else if (dynamic_cast<const spice::Vcvs*>(&e) ||
               dynamic_cast<const spice::Ccvs*>(&e)) {
      if (out_shorted)
        ctx.sink.report({Severity::kError, "spice.shorted-source",
                         "voltage-defined source '" + e.name() +
                             "' has both output terminals on node '" +
                             ctx.c.node_name(terms[0].node) + "'",
                         line, e.name(), "connect the output to distinct "
                         "nodes"});
    } else if (const auto* i =
                   dynamic_cast<const spice::CurrentSource*>(&e)) {
      if (out_shorted) {
        ctx.sink.report({Severity::kWarning, "spice.self-loop",
                         "current source '" + e.name() +
                             "' drives both terminals on node '" +
                             ctx.c.node_name(terms[0].node) +
                             "' (no effect)",
                         line, e.name(), ""});
      } else if (dynamic_cast<const spice::DcWave*>(&i->waveform()) &&
                 i->waveform().dc_value() == 0.0 &&
                 i->ac_magnitude() == 0.0) {
        ctx.sink.report({Severity::kNote, "spice.zero-source",
                         "current source '" + e.name() +
                             "' is identically 0 A",
                         line, e.name(), ""});
      }
    } else if (dynamic_cast<const spice::Resistor*>(&e) ||
               dynamic_cast<const spice::Capacitor*>(&e) ||
               dynamic_cast<const spice::Switch*>(&e)) {
      // Zero / negative values are rejected at construction (and show
      // up as spice.parse-error in decks), so only topology is left.
      if (out_shorted)
        ctx.sink.report({Severity::kWarning, "spice.self-loop",
                         "element '" + e.name() +
                             "' has both terminals on node '" +
                             ctx.c.node_name(terms[0].node) +
                             "' (stamps nothing)",
                         line, e.name(), ""});
    }
  }
}

// ---------------------------------------------------------------------
// SI pack (paper-specific: class-AB memory cells, CMFF — Figs. 1-2)
// ---------------------------------------------------------------------

using verify::ClassAbCandidate;

/// DC supply magnitude feeding node `n` via a grounded voltage source,
/// or 0 when none is found.
double supply_at(const Ctx& ctx, NodeId n) {
  const verify::GroundedSource& g =
      ctx.topo.grounded_source[static_cast<std::size_t>(n)];
  if (!g.source) return 0.0;
  const double v = g.source->waveform().dc_value();
  return g.reversed ? -v : v;
}

/// si.supply-min + si.classab-asymmetry over detected memory pairs.
void check_memory_pairs(Ctx& ctx) {
  for (const ClassAbCandidate& mp : ctx.topo.class_ab) {
    if (mp.mn->source() != spice::kGroundNode) continue;
    const double vdd = supply_at(ctx, mp.mp->source());
    if (vdd == 0.0) continue;  // supply rail not identifiable

    const double vt_n = std::abs(mp.mn->params().vt0);
    const double vt_p = std::abs(mp.mp->params().vt0);
    const double floor = vt_n + vt_p + kMinPairOverdrive;
    if (vdd < floor - kSupplyFloorSlack) {
      const auto [vdd_text, floor_text] = fmt_apart(vdd, floor);
      ctx.sink.report(
          {Severity::kError, "si.supply-min",
           "supply " + vdd_text + " V is below the class-AB pair minimum " +
               floor_text + " V for '" + mp.mn->name() + "'/'" +
               mp.mp->name() + "' (Vt_n + Vt_p + Vov = " + fmt(vt_n) +
               " + " + fmt(vt_p) + " + " + fmt(kMinPairOverdrive) +
               ", paper Eqs. (1)-(2))",
           ctx.line_of_element(mp.mp->name()), mp.mp->name(),
           "raise the supply above " + floor_text +
               " V or use lower-Vt devices"});
    }

    const double beta_n = mp.mn->params().beta();
    const double beta_p = mp.mp->params().beta();
    const double rel = std::abs(beta_n - beta_p) / std::max(beta_n, beta_p);
    if (rel > kPairBetaTolerance) {
      ctx.sink.report(
          {Severity::kWarning, "si.classab-asymmetry",
           "class-AB pair '" + mp.mn->name() + "'/'" + mp.mp->name() +
               "' has unbalanced beta (" + fmt(beta_n * 1e6) + " vs " +
               fmt(beta_p * 1e6) + " uA/V^2, " + fmt(rel * 100.0) +
               "% apart): the quiescent point shifts off mid-rail",
           ctx.line_of_element(mp.mn->name()), mp.mn->name(),
           "size W_p/W_n to compensate the KP_n/KP_p ratio"});
    }
  }
}

/// si.clock-overlap: cascaded memory cells (drains joined by a transfer
/// switch) must sample on non-overlapping phases.  Pairs (i, j), i < j,
/// are visited in ascending order.
void check_clock_phases(Ctx& ctx) {
  const verify::SiTopology& topo = ctx.topo;
  const std::vector<ClassAbCandidate>& pairs = topo.class_ab;
  std::vector<std::vector<std::size_t>> pairs_at(ctx.c.node_count());
  for (std::size_t i = 0; i < pairs.size(); ++i)
    pairs_at[static_cast<std::size_t>(pairs[i].drain)].push_back(i);

  // Each pair's periodic sampling switch (ordinal, -1 = none), with its
  // ON pattern resolved at most once per switch and once per clock.
  std::vector<std::optional<verify::SwitchPhase>> phases(topo.switches.size());
  verify::PhaseResolver resolve;
  const auto sampling_phase = [&](const ClassAbCandidate& mp)
      -> const verify::SwitchPhase* {
    const int s = mp.sn >= 0 ? mp.sn : mp.sp;
    if (s < 0) return nullptr;
    const spice::Switch& sw = *topo.switches[static_cast<std::size_t>(s)];
    if (sw.control().period() <= 0.0) return nullptr;
    auto& ph = phases[static_cast<std::size_t>(s)];
    if (!ph) ph = resolve(sw);
    return &*ph;
  };

  std::vector<std::size_t> cascaded;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const ClassAbCandidate& a = pairs[i];
    // Pairs after i whose drain a switch joins to a's (a pair on a's own
    // drain is the same cell seen twice).
    cascaded.clear();
    for (const auto& [k, term] :
         topo.attached[static_cast<std::size_t>(a.drain)]) {
      if (topo.switch_ordinal[k] < 0) continue;
      const auto& t = topo.terminals[k];
      const NodeId other = t[0].node == a.drain ? t[1].node : t[0].node;
      if (other == a.drain) continue;
      for (const std::size_t j : pairs_at[static_cast<std::size_t>(other)])
        if (j > i) cascaded.push_back(j);
    }
    std::sort(cascaded.begin(), cascaded.end());
    cascaded.erase(std::unique(cascaded.begin(), cascaded.end()),
                   cascaded.end());
    for (const std::size_t j : cascaded) {
      const ClassAbCandidate& b = pairs[j];
      const verify::SwitchPhase* pa = sampling_phase(a);
      const verify::SwitchPhase* pb = sampling_phase(b);
      if (!pa || !pb) continue;  // aperiodic (DC study) or diode cells
      // ON intervals from waveform breakpoints, overlap computed
      // symbolically over the hyperperiod.  An overlap of any width —
      // down to one representable instant — is caught.
      const verify::OverlapReport rep = verify::phase_overlap(*pa, *pb);
      if (rep.overlap > 0.0) {
        const std::string& sb = pb->sw->name();
        ctx.sink.report(
            {Severity::kError, "si.clock-overlap",
             "cascaded memory cells at nodes '" + ctx.c.node_name(a.drain) +
                 "' and '" + ctx.c.node_name(b.drain) +
                 "' sample on overlapping clock phases (" +
                 fmt(rep.overlap * 1e9) + " ns of double-ON per " +
                 fmt(rep.hyperperiod * 1e9) +
                 " ns hyperperiod, non-overlap margin " +
                 fmt(rep.margin * 1e9) + " ns): the chain is transparent, "
                 "not a z^-1 delay",
             ctx.line_of_element(sb), sb,
             "clock the second cell on the opposite phase"});
      }
    }
  }
}

/// The deep static-verification pack: interval abstract interpretation
/// plus the witness-backed property checkers from src/verify/.
void check_deep(Ctx& ctx) {
  verify::report(verify::analyze(ctx.c), ctx.sink);
}

/// si.cmff-half-size: the CMFF extraction devices must be half the size
/// of the diode masters so Icm = (Id+ + Id-)/2 (Fig. 2).
void check_cmff_sizing(Ctx& ctx) {
  for (const auto& [master, ext] : ctx.topo.cmff) {
    const double master_ratio = master->params().w / master->params().l;
    const double ext_ratio = ext->params().w / ext->params().l;
    const double rel = ext_ratio / master_ratio - 0.5;
    if (std::abs(rel) > 0.5 * kHalfSizeTolerance) {
      ctx.sink.report(
          {Severity::kWarning, "si.cmff-half-size",
           "CMFF extraction device '" + ext->name() + "' is " +
               fmt(ext_ratio / master_ratio) + "x the master '" +
               master->name() +
               "' (expected 0.5x): the extracted common mode is off by " +
               fmt(rel / 0.5 * 100.0) + "%",
           ctx.line_of_element(ext->name()), ext->name(),
           "size the extraction pair at exactly half the master W/L"});
    }
  }
}

}  // namespace

void check(const Circuit& c, DiagnosticSink& sink, const ErcOptions& opt,
           const spice::ParseIndex* index) {
  // Counted so callers that chain analyses, or lint a deck and then
  // simulate it, can show the circuit is linted once per run.
  static obs::Counter& runs = obs::counter("erc.runs");
  runs.add();
  sink.set_min_severity(opt.min_severity);
  for (const auto& rule : opt.suppress) sink.suppress(rule);

  Ctx ctx(c, index, sink);
  if (opt.spice_rules) {
    check_connectivity(ctx);
    check_node_usage(ctx);
    check_duplicate_names(ctx);
    check_elements(ctx);
  }
  if (opt.si_rules) {
    check_memory_pairs(ctx);
    check_clock_phases(ctx);
    check_cmff_sizing(ctx);
  }
  if (opt.deep) check_deep(ctx);
  sink.sort_by_line();
}

std::vector<Diagnostic> check(const Circuit& c, const ErcOptions& opt) {
  DiagnosticSink sink;
  check(c, sink, opt);
  return sink.diagnostics();
}

void enforce(const Circuit& c, const ErcOptions& opt) {
  DiagnosticSink sink;
  check(c, sink, opt);
  if (!sink.ok()) {
    throw ErcError("ERC failed with " + std::to_string(sink.errors()) +
                       " error(s):\n" + sink.text(),
                   sink.diagnostics());
  }
}

void check_supply(const cells::SupplyRequirement& req, double vdd,
                  DiagnosticSink& sink) {
  if (req.feasible_at(vdd)) return;
  const auto [vdd_text, min_text] = fmt_apart(vdd, req.minimum_volts);
  sink.report({Severity::kError, "si.supply-min",
               "supply " + vdd_text + " V is below the Eq. (1)-(2) minimum " +
                   min_text + " V (GGA branch needs " +
                   fmt(req.eq1_volts) + " V, memory pair needs " +
                   fmt(req.eq2_volts) + " V)",
               0, "",
               "raise the supply above " + min_text +
                   " V or reduce the modulation index"});
}

}  // namespace si::erc
