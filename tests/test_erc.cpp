// Tests for the static electrical-rule checker: every rule's fire and
// no-fire case, the diagnostics engine (thresholds, suppression, text
// and JSON rendering), the deck-level lint with line attribution, and
// the pre-simulation gate in the DC / transient / AC entry points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "erc/check.hpp"
#include "si/netlists.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"
#include "spice/parser.hpp"
#include "spice/transient.hpp"
#include "verify/absint.hpp"
#include "verify/phase.hpp"

namespace {

using namespace si;
using erc::Diagnostic;
using erc::DiagnosticSink;
using erc::ErcOptions;
using erc::Severity;
using spice::Circuit;
using spice::NodeId;

std::size_t count_rule(const std::vector<Diagnostic>& diags,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

bool has_rule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return count_rule(diags, rule) > 0;
}

/// A clean resistor divider — must produce zero diagnostics.
Circuit divider() {
  Circuit c;
  const NodeId in = c.node("in"), mid = c.node("mid");
  c.add<spice::VoltageSource>("v1", in, spice::kGroundNode, 3.3);
  c.add<spice::Resistor>("r1", in, mid, 10e3);
  c.add<spice::Resistor>("r2", mid, spice::kGroundNode, 20e3);
  return c;
}

// ---------------------------------------------------------------------
// Generic SPICE pack
// ---------------------------------------------------------------------

TEST(ErcSpice, CleanDividerHasNoDiagnostics) {
  const Circuit c = divider();
  EXPECT_TRUE(erc::check(c).empty());
}

TEST(ErcSpice, NoGroundFires) {
  Circuit c;
  c.add<spice::Resistor>("r1", c.node("a"), c.node("b"), 1e3);
  const auto diags = erc::check(c);
  EXPECT_TRUE(has_rule(diags, "spice.no-ground"));
  EXPECT_TRUE(has_rule(diags, "spice.node-island"));
}

TEST(ErcSpice, NodeIslandFires) {
  Circuit c = divider();
  c.add<spice::Resistor>("r3", c.node("isla"), c.node("islb"), 1e3);
  c.add<spice::Resistor>("r4", c.node("isla"), c.node("islb"), 2e3);
  const auto diags = erc::check(c);
  ASSERT_EQ(count_rule(diags, "spice.node-island"), 1u);
  // One diagnostic per island, naming both member nodes.
  const auto it = std::find_if(diags.begin(), diags.end(), [](const auto& d) {
    return d.rule == "spice.node-island";
  });
  EXPECT_NE(it->message.find("isla"), std::string::npos);
  EXPECT_NE(it->message.find("islb"), std::string::npos);
  EXPECT_FALSE(has_rule(diags, "spice.no-ground"));
}

TEST(ErcSpice, FloatingGateFires) {
  Circuit c = divider();
  c.add<spice::Mosfet>("m1", spice::MosType::kNmos, c.node("in"),
                       c.node("float"), spice::kGroundNode,
                       spice::MosfetParams{});
  const auto diags = erc::check(c);
  ASSERT_EQ(count_rule(diags, "spice.floating-gate"), 1u);
}

TEST(ErcSpice, DiodeConnectedGateDoesNotFire) {
  Circuit c = divider();
  // Gate tied to drain: a diode-connected load, perfectly legal.
  c.add<spice::Mosfet>("m1", spice::MosType::kNmos, c.node("mid"),
                       c.node("mid"), spice::kGroundNode,
                       spice::MosfetParams{});
  EXPECT_FALSE(has_rule(erc::check(c), "spice.floating-gate"));
}

TEST(ErcSpice, DcFloatingFires) {
  Circuit c = divider();
  // Node between two series capacitors: no DC path, but not a gate.
  c.add<spice::Capacitor>("c1", c.node("in"), c.node("midcap"), 1e-12);
  c.add<spice::Capacitor>("c2", c.node("midcap"), spice::kGroundNode, 1e-12);
  const auto diags = erc::check(c);
  EXPECT_TRUE(has_rule(diags, "spice.dc-floating"));
  EXPECT_FALSE(has_rule(diags, "spice.floating-gate"));
}

TEST(ErcSpice, DanglingNodeFires) {
  Circuit c = divider();
  c.add<spice::Resistor>("r3", c.node("mid"), c.node("stub"), 1e3);
  const auto diags = erc::check(c);
  ASSERT_EQ(count_rule(diags, "spice.dangling-node"), 1u);
}

TEST(ErcSpice, UnusedNodeFires) {
  Circuit c = divider();
  c.node("orphan");  // created but never wired
  EXPECT_TRUE(has_rule(erc::check(c), "spice.unused-node"));
}

TEST(ErcSpice, DuplicateNameFires) {
  Circuit c = divider();
  c.add<spice::Resistor>("r1", c.node("mid"), spice::kGroundNode, 5e3);
  EXPECT_TRUE(has_rule(erc::check(c), "spice.duplicate-name"));
}

TEST(ErcSpice, ShortedSourceFires) {
  Circuit c = divider();
  c.add<spice::VoltageSource>("vshort", c.node("mid"), c.node("mid"), 1.0);
  EXPECT_TRUE(has_rule(erc::check(c), "spice.shorted-source"));
}

TEST(ErcSpice, SelfLoopFires) {
  Circuit c = divider();
  c.add<spice::Resistor>("rloop", c.node("mid"), c.node("mid"), 1e3);
  EXPECT_TRUE(has_rule(erc::check(c), "spice.self-loop"));
}

TEST(ErcSpice, ZeroValueResistorIsRejectedWithLineInfo) {
  // The Resistor constructor rejects R = 0; the deck lint must turn
  // that into a located parse-error diagnostic, not a loose exception.
  const auto report = erc::check_deck("V1 in 0 DC 1\nRz in 0 0\n");
  EXPECT_FALSE(report.parse_ok);
  ASSERT_EQ(report.sink.errors(), 1u);
  EXPECT_EQ(report.sink.diagnostics().front().rule, "spice.parse-error");
  EXPECT_EQ(report.sink.diagnostics().front().line, 2u);
}

TEST(ErcSpice, BadMosfetGeometryIsRejectedWithLineInfo) {
  const auto report = erc::check_deck(
      ".model m NMOS (KP=100u VTO=0.8)\nM1 d g 0 m W=0 L=1u\n");
  EXPECT_FALSE(report.parse_ok);
  ASSERT_EQ(report.sink.errors(), 1u);
  EXPECT_EQ(report.sink.diagnostics().front().rule, "spice.parse-error");
  EXPECT_EQ(report.sink.diagnostics().front().line, 2u);
}

TEST(ErcSpice, ZeroSourceIsNoteOnly) {
  Circuit c = divider();
  // The 0 V ammeter idiom must never block simulation.
  c.add<spice::VoltageSource>("vamm", c.node("mid"), c.node("mid2"), 0.0);
  c.add<spice::Resistor>("r3", c.node("mid2"), spice::kGroundNode, 1e3);
  const auto diags = erc::check(c);
  ASSERT_EQ(count_rule(diags, "spice.zero-source"), 1u);
  const auto it = std::find_if(diags.begin(), diags.end(), [](const auto& d) {
    return d.rule == "spice.zero-source";
  });
  EXPECT_EQ(it->severity, Severity::kNote);
  EXPECT_NO_THROW(erc::enforce(c));
}

// ---------------------------------------------------------------------
// SI pack
// ---------------------------------------------------------------------

/// Deck of a switch-sampled class-AB memory pair at the given supply.
std::string pair_deck(double vdd) {
  return "* class-AB memory pair\n"
         ".model nmem NMOS (KP=100u VTO=0.8 LAMBDA=0.02)\n"
         ".model pmem PMOS (KP=40u VTO=0.8 LAMBDA=0.02)\n"
         "Vdd vdd 0 DC " + std::to_string(vdd) + "\n"
         "MN d gn 0 nmem W=10u L=2u\n"
         "MP d gp vdd pmem W=25u L=2u\n"
         "SN gn d PULSE(0 3.3 0 10n 10n 480n 1u) 1k 1g\n"
         "SP gp d PULSE(0 3.3 0 10n 10n 480n 1u) 1k 1g\n"
         "Iin 0 d DC 8u\n";
}

TEST(ErcSi, SupplyMinFiresBelowEq12Minimum) {
  // 1.2 V < Vt_n + Vt_p + Vov = 0.8 + 0.8 + 0.1.
  const auto report = erc::check_deck(pair_deck(1.2));
  EXPECT_TRUE(has_rule(report.sink.diagnostics(), "si.supply-min"));
}

TEST(ErcSi, SupplyMinSilentAtPaperSupply) {
  const auto report = erc::check_deck(pair_deck(3.3));
  EXPECT_FALSE(has_rule(report.sink.diagnostics(), "si.supply-min"));
  EXPECT_TRUE(report.sink.ok());
}

/// A switch-sampled class-AB pair (Vt_n = Vt_p = 0.8 V) on a `vdd` rail.
Circuit pair_on_supply(double vdd) {
  Circuit c;
  c.add<spice::VoltageSource>("Vdd", c.node("vdd"), spice::kGroundNode, vdd);
  cells::netlists::MemoryPairOptions opt;
  cells::netlists::build_class_ab_memory_pair(c, opt, "m_");
  return c;
}

const Diagnostic* find_rule(const std::vector<Diagnostic>& diags,
                            const std::string& rule) {
  for (const Diagnostic& d : diags)
    if (d.rule == rule) return &d;
  return nullptr;
}

TEST(ErcSi, SupplyMinFiresOnlyBelowTheFloorMinusOneNanovolt) {
  // The floor sums as 1.7000000000000002, one ULP above a 1.7 V supply.
  const double floor = 0.8 + 0.8 + erc::kMinPairOverdrive;
  EXPECT_FALSE(has_rule(erc::check(pair_on_supply(1.7)), "si.supply-min"));
  EXPECT_FALSE(
      has_rule(erc::check(pair_on_supply(floor - 0.5e-9)), "si.supply-min"));

  const auto diags = erc::check(pair_on_supply(floor - 2e-9));
  const Diagnostic* d = find_rule(diags, "si.supply-min");
  ASSERT_NE(d, nullptr);
  // Enough digits that the two numbers never read equal.
  EXPECT_NE(d->message.find("supply 1.699999998 V is below the class-AB "
                            "pair minimum 1.7 V"),
            std::string::npos)
      << d->message;

  // The behavioural check prints its two numbers apart as well.
  const cells::SupplyRequirement req =
      cells::minimum_supply(cells::SupplyDesign{}, 1.0);
  DiagnosticSink sink;
  erc::check_supply(req, req.minimum_volts - 1e-7, sink);
  ASSERT_EQ(sink.errors(), 1u);
  const std::string& msg = sink.diagnostics().front().message;
  const std::size_t a = msg.find("supply ") + 7;
  const std::size_t b = msg.find("minimum ") + 8;
  EXPECT_NE(msg.substr(a, msg.find(' ', a) - a),
            msg.substr(b, msg.find(' ', b) - b))
      << msg;
}

TEST(ErcSi, ClassAbAsymmetryFires) {
  // KP_n/KP_p = 2.5 but W_p = W_n: betas 2.5x apart.
  const std::string deck =
      ".model nmem NMOS (KP=100u VTO=0.8)\n"
      ".model pmem PMOS (KP=40u VTO=0.8)\n"
      "Vdd vdd 0 DC 3.3\n"
      "MN d d 0 nmem W=10u L=2u\n"
      "MP d d vdd pmem W=10u L=2u\n"
      "Iin 0 d DC 8u\n";
  const auto report = erc::check_deck(deck);
  EXPECT_TRUE(has_rule(report.sink.diagnostics(), "si.classab-asymmetry"));
}

TEST(ErcSi, BalancedPairDoesNotFireAsymmetry) {
  const auto report = erc::check_deck(pair_deck(3.3));
  EXPECT_FALSE(
      has_rule(report.sink.diagnostics(), "si.classab-asymmetry"));
}

TEST(ErcSi, ClockOverlapFiresForSamePhaseCascade) {
  Circuit c;
  cells::netlists::MemoryPairOptions opt;
  auto p1 = cells::netlists::build_class_ab_memory_pair(c, opt, "a_");
  auto p2 = cells::netlists::build_class_ab_memory_pair(c, opt, "b_");
  // Transfer switch on the same phase the pairs sample on: the chain is
  // transparent instead of a z^-1 delay.
  const spice::TwoPhaseClock clk{opt.clock_period, 3.3, 0.0,
                                 opt.clock_period / 50.0,
                                 opt.clock_period / 20.0};
  c.add<spice::Switch>("sxfer", p1.d, p2.d, clk.phase1(), 1e3, 1e12);
  c.add<spice::CurrentSource>("iin", spice::kGroundNode, p1.d, 8e-6);
  EXPECT_TRUE(has_rule(erc::check(c), "si.clock-overlap"));
}

TEST(ErcSi, DelayStageClocksDoNotOverlap) {
  Circuit c;
  cells::netlists::DelayStageOptions opt;
  const auto h = cells::netlists::build_delay_stage(c, opt, "d_");
  c.add<spice::CurrentSource>("iin", spice::kGroundNode, h.in, 8e-6);
  EXPECT_FALSE(has_rule(erc::check(c), "si.clock-overlap"));
}

TEST(ErcSi, CmffBuilderIsCleanByConstruction) {
  Circuit c;
  cells::netlists::CmffOptions opt;
  cells::netlists::build_cmff(c, opt, "c_");
  EXPECT_FALSE(has_rule(erc::check(c), "si.cmff-half-size"));
}

TEST(ErcSi, CmffMismatchFires) {
  Circuit c;
  cells::netlists::CmffOptions opt;
  opt.extraction_mismatch = 0.2;  // 20% off the half-size ratio
  cells::netlists::build_cmff(c, opt, "c_");
  EXPECT_TRUE(has_rule(erc::check(c), "si.cmff-half-size"));
}

TEST(ErcSi, SiPackCanBeDisabled) {
  ErcOptions opt;
  opt.si_rules = false;
  const auto report = erc::check_deck(pair_deck(1.2), opt);
  EXPECT_FALSE(has_rule(report.sink.diagnostics(), "si.supply-min"));
}

TEST(ErcSi, CheckSupplyFilesRequirementViolation) {
  const cells::SupplyRequirement req =
      cells::minimum_supply(cells::SupplyDesign{}, 1.0);
  DiagnosticSink sink;
  erc::check_supply(req, req.minimum_volts - 0.1, sink);
  EXPECT_EQ(sink.errors(), 1u);
  EXPECT_EQ(sink.diagnostics().front().rule, "si.supply-min");

  DiagnosticSink ok;
  erc::check_supply(req, req.minimum_volts + 0.1, ok);
  EXPECT_TRUE(ok.diagnostics().empty());
}

// ---------------------------------------------------------------------
// Diagnostics engine
// ---------------------------------------------------------------------

TEST(ErcDiagnostics, SeverityThresholdDropsBelow) {
  DiagnosticSink sink;
  sink.set_min_severity(Severity::kWarning);
  sink.report({Severity::kNote, "x.note", "dropped", 0, "", ""});
  sink.report({Severity::kWarning, "x.warn", "kept", 0, "", ""});
  EXPECT_EQ(sink.diagnostics().size(), 1u);
  EXPECT_EQ(sink.notes(), 0u);
  EXPECT_EQ(sink.warnings(), 1u);
}

TEST(ErcDiagnostics, SuppressionDropsRule) {
  DiagnosticSink sink;
  sink.suppress("x.warn");
  sink.report({Severity::kWarning, "x.warn", "dropped", 0, "", ""});
  EXPECT_TRUE(sink.diagnostics().empty());
  EXPECT_TRUE(sink.is_suppressed("x.warn"));
}

TEST(ErcDiagnostics, TextFormat) {
  DiagnosticSink sink;
  sink.report({Severity::kError, "spice.zero-value", "resistor 'r1' bad", 7,
               "r1", "fix it"});
  EXPECT_EQ(sink.text(),
            "deck:7: error: [spice.zero-value] resistor 'r1' bad "
            "(fix: fix it)\n");
}

TEST(ErcDiagnostics, JsonGolden) {
  DiagnosticSink sink;
  sink.report({Severity::kWarning, "x.y", "say \"hi\"\n", 3, "r1", "do"});
  EXPECT_EQ(sink.json(),
            "{\"diagnostics\":[{\"severity\":\"warning\",\"rule\":\"x.y\","
            "\"message\":\"say \\\"hi\\\"\\n\",\"line\":3,"
            "\"element\":\"r1\",\"fix\":\"do\"}],"
            "\"notes\":0,\"warnings\":1,\"errors\":0}");
}

TEST(ErcDiagnostics, SortByLinePutsProgrammaticLast) {
  DiagnosticSink sink;
  sink.report({Severity::kNote, "a", "", 0, "", ""});
  sink.report({Severity::kNote, "b", "", 9, "", ""});
  sink.report({Severity::kNote, "c", "", 2, "", ""});
  sink.sort_by_line();
  EXPECT_EQ(sink.diagnostics()[0].rule, "c");
  EXPECT_EQ(sink.diagnostics()[1].rule, "b");
  EXPECT_EQ(sink.diagnostics()[2].rule, "a");
}

TEST(ErcDiagnostics, SuppressionViaOptions) {
  Circuit c = divider();
  c.add<spice::Resistor>("rloop", c.node("mid"), c.node("mid"), 1e3);
  EXPECT_TRUE(has_rule(erc::check(c), "spice.self-loop"));
  ErcOptions opt;
  opt.suppress.push_back("spice.self-loop");
  EXPECT_FALSE(has_rule(erc::check(c, opt), "spice.self-loop"));
}

// ---------------------------------------------------------------------
// Deck-level lint
// ---------------------------------------------------------------------

TEST(ErcDeck, LineAttributionSurvivesDirectiveStripping) {
  // The .tran directive sits between the cards; the shorted source is
  // on deck line 5 and the diagnostic must say so.
  const std::string deck =
      "V1 in 0 DC 1\n"
      "R1 in mid 1k\n"
      ".tran 1n 1u\n"
      ".probe v(mid)\n"
      "Vs mid mid DC 1\n"
      "R2 mid 0 1k\n";
  const auto report = erc::check_deck(deck);
  const auto& diags = report.sink.diagnostics();
  ASSERT_TRUE(has_rule(diags, "spice.shorted-source"));
  const auto it = std::find_if(diags.begin(), diags.end(), [](const auto& d) {
    return d.rule == "spice.shorted-source";
  });
  EXPECT_EQ(it->line, 5u);
  EXPECT_EQ(it->element, "vs");
}

TEST(ErcDeck, ErcDisableCommentSuppresses) {
  const std::string deck =
      "* erc-disable spice.self-loop spice.zero-source\n"
      "V1 in 0 DC 1\n"
      "Rloop in in 1k\n"
      "R1 in 0 1k\n";
  const auto report = erc::check_deck(deck);
  EXPECT_TRUE(report.sink.diagnostics().empty());
  EXPECT_TRUE(report.sink.ok());
}

TEST(ErcDeck, ParseFailureBecomesDiagnostic) {
  // A bad value, and cards that only start like a directive (names
  // match as whole tokens, so these reach the element parser).
  for (const std::string deck :
       {"R1 in 0 10kz\n", ".options reltol=1e-3\nR1 in 0 1k\n",
        ".opt\nR1 in 0 1k\n", ".tranx 1u 10u\nR1 in 0 1k\n"}) {
    const auto report = erc::check_deck(deck);
    EXPECT_FALSE(report.parse_ok) << deck;
    ASSERT_EQ(report.sink.errors(), 1u) << deck;
    EXPECT_EQ(report.sink.diagnostics().front().rule, "spice.parse-error");
    EXPECT_EQ(report.sink.diagnostics().front().line, 1u);
  }
}

TEST(ErcDeck, ProbeUnknownNodeFires) {
  const std::string deck =
      "V1 in 0 DC 1\n"
      "R1 in 0 1k\n"
      ".probe v(typo) i(r1)\n";
  const auto report = erc::check_deck(deck);
  // v(typo): undefined node; i(r1): not a voltage source.
  EXPECT_EQ(count_rule(report.sink.diagnostics(), "spice.probe-unknown"), 2u);
}

TEST(ErcDeck, ValidProbesDoNotFire) {
  // Ground probes through its aliases, as the transient does.
  const std::string deck =
      "V1 in 0 DC 1\n"
      "R1 in 0 1k\n"
      ".probe v(in) i(v1) v(0) v(gnd)\n"
      ".ac dec 10 1k 1meg\n";
  const auto report = erc::check_deck(deck);
  EXPECT_FALSE(has_rule(report.sink.diagnostics(), "spice.probe-unknown"));
}

// ---------------------------------------------------------------------
// Pre-simulation gate
// ---------------------------------------------------------------------

TEST(ErcGate, DcRejectsBadCircuitByDefault) {
  spice::ParseIndex index;
  Circuit c = spice::parse_netlist(pair_deck(1.2), &index);
  try {
    spice::dc_operating_point(c);
    FAIL() << "expected ErcError";
  } catch (const erc::ErcError& e) {
    EXPECT_TRUE(has_rule(e.diagnostics(), "si.supply-min"));
    EXPECT_NE(std::string(e.what()).find("si.supply-min"),
              std::string::npos);
  }
}

TEST(ErcGate, DcOptOutSimulatesAnyway) {
  Circuit c = spice::parse_netlist(pair_deck(1.2));
  spice::DcOptions opt;
  opt.erc_gate = false;
  EXPECT_NO_THROW(spice::dc_operating_point(c, opt));
}

TEST(ErcGate, TransientRejectsBadCircuitByDefault) {
  Circuit c = spice::parse_netlist(pair_deck(1.2));
  spice::TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 10e-9;
  spice::Transient tr(c, opt);
  EXPECT_THROW(tr.run(), erc::ErcError);
}

TEST(ErcGate, TransientOptOutRuns) {
  Circuit c = spice::parse_netlist(pair_deck(1.2));
  spice::TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 10e-9;
  opt.erc_gate = false;
  spice::Transient tr(c, opt);
  EXPECT_NO_THROW(tr.run());
}

TEST(ErcGate, AcRejectsBadCircuitByDefault) {
  Circuit c = spice::parse_netlist(pair_deck(1.2));
  EXPECT_THROW(spice::ac_analysis(c, {1e3}), erc::ErcError);
}

TEST(ErcGate, AcOptOutRuns) {
  Circuit c = spice::parse_netlist(pair_deck(1.2));
  spice::DcOptions dco;
  dco.erc_gate = false;
  spice::dc_operating_point(c, dco);  // capture an operating point
  spice::AcOptions aco;
  aco.erc_gate = false;
  EXPECT_NO_THROW(spice::ac_analysis(c, {1e3}, aco));
}

TEST(ErcGate, CleanCircuitPassesUnimpeded) {
  Circuit c = divider();
  EXPECT_NO_THROW(spice::dc_operating_point(c));
}


// ---------------------------------------------------------------------
// Differential check of the SI topology index
// ---------------------------------------------------------------------
//
// The SI pack and verify's pair classification read verify::SiTopology.
// The reference below is the nested-scan form they replaced: every NMOS
// x PMOS, a full element scan per switch or supply lookup, and every
// pair of pairs.  Both must agree on the diagnostics (text and JSON, so
// order included) and on the classified pairs.

namespace reference {

using spice::Mosfet;
using spice::Switch;

struct Pair {
  const Mosfet* mn = nullptr;
  const Mosfet* mp = nullptr;
  NodeId drain = spice::kGroundNode;
  const Switch* sn = nullptr;
  const Switch* sp = nullptr;
};

const Switch* switch_between(const Circuit& c, NodeId a, NodeId b) {
  for (const auto& e : c.elements()) {
    const auto* sw = dynamic_cast<const Switch*>(e.get());
    if (sw && ((sw->p() == a && sw->m() == b) ||
               (sw->p() == b && sw->m() == a)))
      return sw;
  }
  return nullptr;
}

void split_mosfets(const Circuit& c, std::vector<const Mosfet*>& nmos,
                   std::vector<const Mosfet*>& pmos) {
  for (const auto& e : c.elements())
    if (const auto* m = dynamic_cast<const Mosfet*>(e.get()))
      (m->type() == spice::MosType::kNmos ? nmos : pmos).push_back(m);
}

/// Gates tied to the shared drain directly or through a switch.
bool tie(const Circuit& c, const Mosfet* n, const Mosfet* p, Pair& out) {
  out = {n, p, n->drain(), nullptr, nullptr};
  if (n->gate() != out.drain) out.sn = switch_between(c, n->gate(), out.drain);
  if (p->gate() != out.drain) out.sp = switch_between(c, p->gate(), out.drain);
  return (n->gate() == out.drain || out.sn) &&
         (p->gate() == out.drain || out.sp);
}

/// ERC's pairs: every tied NMOS x PMOS sharing a drain.
std::vector<Pair> erc_pairs(const Circuit& c) {
  std::vector<const Mosfet*> nmos, pmos;
  split_mosfets(c, nmos, pmos);
  std::vector<Pair> pairs;
  for (const Mosfet* n : nmos)
    for (const Mosfet* p : pmos) {
      Pair pr;
      if (n->drain() == p->drain() && tie(c, n, p, pr)) pairs.push_back(pr);
    }
  return pairs;
}

/// Verify's pairs: NMOS source grounded, PMOS source on a grounded
/// voltage source, and each device in its first match only.
std::vector<Pair> verify_pairs(const Circuit& c) {
  std::vector<unsigned char> pinned(c.node_count(), 0);
  for (const auto& e : c.elements())
    if (dynamic_cast<const spice::VoltageSource*>(e.get())) {
      const auto t = e->terminals();
      if (t[1].node == 0 && t[0].node != 0) pinned[t[0].node] = 1;
      if (t[0].node == 0 && t[1].node != 0) pinned[t[1].node] = 1;
    }
  std::vector<const Mosfet*> nmos, pmos;
  split_mosfets(c, nmos, pmos);
  std::vector<const Mosfet*> used;
  const auto is_used = [&](const Mosfet* m) {
    return std::find(used.begin(), used.end(), m) != used.end();
  };
  std::vector<Pair> pairs;
  for (const Mosfet* n : nmos) {
    if (is_used(n) || n->source() != spice::kGroundNode) continue;
    for (const Mosfet* p : pmos) {
      Pair pr;
      if (is_used(p) || n->drain() != p->drain() || !pinned[p->source()] ||
          !tie(c, n, p, pr))
        continue;
      pairs.push_back(pr);
      used.push_back(n);
      used.push_back(p);
      break;
    }
  }
  return pairs;
}

double supply_at(const Circuit& c, NodeId n) {
  for (const auto& e : c.elements()) {
    const auto* v = dynamic_cast<const spice::VoltageSource*>(e.get());
    if (!v) continue;
    const auto t = v->terminals();
    if (t[0].node == n && t[1].node == 0) return v->waveform().dc_value();
    if (t[1].node == n && t[0].node == 0) return -v->waveform().dc_value();
  }
  return 0.0;
}

std::string fmt(double v, int digits = 4) {
  std::ostringstream out;
  out.precision(digits);
  out << v;
  return out.str();
}

std::pair<std::string, std::string> fmt_apart(double a, double b) {
  for (int digits = 4;; ++digits) {
    std::string sa = fmt(a, digits), sb = fmt(b, digits);
    if (sa != sb || a == b || digits >= 17) return {sa, sb};
  }
}

void si_pack(const Circuit& c, DiagnosticSink& sink) {
  const std::vector<Pair> pairs = erc_pairs(c);
  for (const Pair& mp : pairs) {
    if (mp.mn->source() != spice::kGroundNode) continue;
    const double vdd = supply_at(c, mp.mp->source());
    if (vdd == 0.0) continue;
    const double vt_n = std::abs(mp.mn->params().vt0);
    const double vt_p = std::abs(mp.mp->params().vt0);
    const double floor = vt_n + vt_p + erc::kMinPairOverdrive;
    if (vdd < floor - 1e-9) {
      const auto [vs, fs] = fmt_apart(vdd, floor);
      sink.report({Severity::kError, "si.supply-min",
                   "supply " + vs + " V is below the class-AB pair minimum " +
                       fs + " V for '" + mp.mn->name() + "'/'" +
                       mp.mp->name() + "' (Vt_n + Vt_p + Vov = " + fmt(vt_n) +
                       " + " + fmt(vt_p) + " + " +
                       fmt(erc::kMinPairOverdrive) +
                       ", paper Eqs. (1)-(2))",
                   0, mp.mp->name(),
                   "raise the supply above " + fs +
                       " V or use lower-Vt devices"});
    }
    const double beta_n = mp.mn->params().beta();
    const double beta_p = mp.mp->params().beta();
    const double rel = std::abs(beta_n - beta_p) / std::max(beta_n, beta_p);
    if (rel > erc::kPairBetaTolerance)
      sink.report({Severity::kWarning, "si.classab-asymmetry",
                   "class-AB pair '" + mp.mn->name() + "'/'" +
                       mp.mp->name() + "' has unbalanced beta (" +
                       fmt(beta_n * 1e6) + " vs " + fmt(beta_p * 1e6) +
                       " uA/V^2, " + fmt(rel * 100.0) +
                       "% apart): the quiescent point shifts off mid-rail",
                   0, mp.mn->name(),
                   "size W_p/W_n to compensate the KP_n/KP_p ratio"});
  }
  const auto sampling = [](const Pair& mp) -> const Switch* {
    const Switch* sw = mp.sn ? mp.sn : mp.sp;
    return sw && sw->control().period() > 0.0 ? sw : nullptr;
  };
  for (std::size_t i = 0; i < pairs.size(); ++i)
    for (std::size_t j = i + 1; j < pairs.size(); ++j) {
      const Pair& a = pairs[i];
      const Pair& b = pairs[j];
      if (a.drain == b.drain || !switch_between(c, a.drain, b.drain)) continue;
      const Switch* sa = sampling(a);
      const Switch* sb = sampling(b);
      if (!sa || !sb) continue;
      const verify::OverlapReport rep = verify::phase_overlap(
          verify::switch_phase(*sa), verify::switch_phase(*sb));
      if (rep.overlap > 0.0)
        sink.report({Severity::kError, "si.clock-overlap",
                     "cascaded memory cells at nodes '" +
                         c.node_name(a.drain) + "' and '" +
                         c.node_name(b.drain) +
                         "' sample on overlapping clock phases (" +
                         fmt(rep.overlap * 1e9) + " ns of double-ON per " +
                         fmt(rep.hyperperiod * 1e9) +
                         " ns hyperperiod, non-overlap margin " +
                         fmt(rep.margin * 1e9) +
                         " ns): the chain is transparent, not a z^-1 delay",
                     0, sb->name(),
                     "clock the second cell on the opposite phase"});
    }
  std::vector<const Mosfet*> nmos, pmos;
  split_mosfets(c, nmos, pmos);
  const auto diode = [](const Mosfet* m) { return m->gate() == m->drain(); };
  for (const Mosfet* master : nmos) {
    if (!diode(master)) continue;
    for (const Mosfet* ext : nmos) {
      if (ext == master || ext->gate() != master->drain() ||
          ext->drain() == master->drain() ||
          ext->source() != master->source() ||
          std::none_of(pmos.begin(), pmos.end(), [&](const Mosfet* p) {
            return diode(p) && p->drain() == ext->drain();
          }))
        continue;
      const double ratio = (ext->params().w / ext->params().l) /
                           (master->params().w / master->params().l);
      const double rel = ratio - 0.5;
      if (std::abs(rel) > 0.5 * erc::kHalfSizeTolerance)
        sink.report({Severity::kWarning, "si.cmff-half-size",
                     "CMFF extraction device '" + ext->name() + "' is " +
                         fmt(ratio) + "x the master '" + master->name() +
                         "' (expected 0.5x): the extracted common mode is "
                         "off by " +
                         fmt(rel / 0.5 * 100.0) + "%",
                     0, ext->name(),
                     "size the extraction pair at exactly half the master "
                     "W/L"});
    }
  }
  sink.sort_by_line();
}

}  // namespace reference

/// A seeded netlist dense in the SI pack's motifs: MOSFETs on a few
/// shared nodes (many shared drains, some diodes), gates tied to drains
/// through one or two switches on one of several clocks, switches
/// between drains, CMFF extraction motifs (half-size or not), and
/// grounded sources in both orientations, so some PMOS sources sit on
/// no pinned rail and some nodes have two sources.
Circuit random_si_netlist(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto one_of = [&](const std::vector<NodeId>& v) {
    return v[pick(v.size())];
  };
  Circuit c;
  std::vector<NodeId> nodes;
  for (std::size_t k = 0, n = 3 + pick(8); k < n; ++k)
    nodes.push_back(c.node("n" + std::to_string(k)));
  int serial = 0;
  const auto name = [&](const char* prefix) {
    return prefix + std::to_string(serial++);
  };

  const double volts[] = {3.3, 2.2, 1.7, 1.6999999, 1.2};
  std::vector<NodeId> rails;
  for (std::size_t k = 0, n = 1 + pick(3); k < n; ++k) {
    const double v = volts[pick(5)];
    const NodeId r = one_of(nodes);
    rails.push_back(r);
    if (pick(2))
      c.add<spice::VoltageSource>(name("v"), r, spice::kGroundNode, v);
    else
      c.add<spice::VoltageSource>(name("v"), spice::kGroundNode, r, -v);
  }
  const auto rail = [&] { return pick(4) ? one_of(rails) : one_of(nodes); };
  const auto clock = [&]() -> std::unique_ptr<spice::Waveform> {
    if (pick(6) == 0) return std::make_unique<spice::DcWave>(3.3);
    return std::make_unique<spice::PulseWave>(
        0.0, 3.3, pick(4) * 250e-9, 10e-9, 10e-9, (1 + pick(3)) * 200e-9,
        1e-6);
  };
  const auto add_switch = [&](NodeId a, NodeId b) {
    c.add<spice::Switch>(name("s"), a, b, clock(), 1e3, 1e12);
  };
  const auto mos = [&](bool n_type, NodeId d, NodeId g, NodeId s, double w) {
    spice::MosfetParams p;
    p.kp = n_type ? 100e-6 : 40e-6;
    p.vt0 = pick(3) ? 0.8 : 0.9;
    p.w = w;
    p.l = 2e-6;
    c.add<spice::Mosfet>(name("m"),
                         n_type ? spice::MosType::kNmos : spice::MosType::kPmos,
                         d, g, s, p);
  };

  std::vector<NodeId> drains;
  for (std::size_t k = 0, n = 2 + pick(10); k < n; ++k) {
    const bool n_type = pick(2) == 0;
    const NodeId d = one_of(nodes);
    const NodeId g = pick(3) == 0 ? d : one_of(nodes);
    const NodeId s =
        n_type ? (pick(4) ? spice::kGroundNode : one_of(nodes)) : rail();
    mos(n_type, d, g, s, (1 + pick(12)) * 1e-6);
    drains.push_back(d);
    if (g != d && pick(3)) {
      if (pick(2))
        add_switch(g, d);
      else
        add_switch(d, g);
      if (pick(3) == 0) add_switch(d, g);  // a second switch, other clock
    }
  }
  for (std::size_t k = 0, n = pick(4); k < n; ++k)
    add_switch(one_of(drains), one_of(drains));
  for (std::size_t k = 0, n = pick(3); k < n; ++k) {
    // CMFF: NMOS diode master at x, extraction NMOS gated by x, PMOS
    // diode at the extraction drain y.
    const NodeId x = one_of(nodes), y = one_of(nodes);
    const double w = (2 + pick(8)) * 1e-6;
    mos(true, x, x, spice::kGroundNode, w);
    mos(true, y, x, spice::kGroundNode,
        pick(2) ? 0.5 * w : (0.3 + 0.1 * pick(5)) * w);
    mos(false, y, y, rail(), 2.5 * w);
  }
  return c;
}

void expect_same_as_reference(const Circuit& c, const std::string& label) {
  ErcOptions si_only;
  si_only.spice_rules = false;
  DiagnosticSink got, want;
  erc::check(c, got, si_only);
  reference::si_pack(c, want);
  EXPECT_EQ(got.text(), want.text()) << label;
  EXPECT_EQ(got.json(), want.json()) << label;

  const auto pairs = verify::AbstractInterpreter(c, {}).run().pairs;
  const auto ref = reference::verify_pairs(c);
  ASSERT_EQ(pairs.size(), ref.size()) << label;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_EQ(pairs[k].mn, ref[k].mn) << label << " pair " << k;
    EXPECT_EQ(pairs[k].mp, ref[k].mp) << label << " pair " << k;
    EXPECT_EQ(pairs[k].drain, ref[k].drain) << label << " pair " << k;
    EXPECT_EQ(pairs[k].sn, ref[k].sn) << label << " pair " << k;
    EXPECT_EQ(pairs[k].sp, ref[k].sp) << label << " pair " << k;
  }
}

TEST(ErcTopology, SiPackAndVerifyPairsMatchNestedScansOnRandomNetlists) {
  std::size_t diags = 0, pairs = 0;
  for (std::uint32_t seed = 1; seed <= 400; ++seed) {
    const Circuit c = random_si_netlist(seed);
    expect_same_as_reference(c, "seed " + std::to_string(seed));
    ErcOptions si_only;
    si_only.spice_rules = false;
    diags += erc::check(c, si_only).size();
    pairs += reference::verify_pairs(c).size();
    if (HasFailure()) return;
  }
  // The generator must exercise the rules, not just agree on silence.
  EXPECT_GT(diags, 400u);
  EXPECT_GT(pairs, 100u);
}

TEST(ErcTopology, SiPackAndVerifyPairsMatchNestedScansOnBuilders) {
  namespace nets = cells::netlists;
  for (const int sections : {1, 2, 3})
    for (const double vdd : {3.3, 1.7, 1.2}) {
      Circuit c;
      c.add<spice::VoltageSource>("Vdd", c.node("vdd"), spice::kGroundNode,
                                  vdd);
      const auto h = nets::build_modulator_core(c, sections, {}, "mod_");
      c.add<spice::CurrentSource>("Iinp", spice::kGroundNode, h.in_p, 1e-6);
      c.add<spice::CurrentSource>("Iinm", spice::kGroundNode, h.in_m, -1e-6);
      expect_same_as_reference(c, "modulator " + std::to_string(sections));
    }
  {
    Circuit c;
    c.add<spice::VoltageSource>("Vdd", c.node("vdd"), spice::kGroundNode, 3.3);
    const auto h = nets::build_delay_line_chain(c, 3, {}, "dl_");
    c.add<spice::CurrentSource>("iin", spice::kGroundNode, h.in, 8e-6);
    expect_same_as_reference(c, "delay line");
  }
  {
    Circuit c;
    nets::CmffOptions opt;
    opt.extraction_mismatch = 0.2;
    nets::build_cmff(c, opt, "c_");
    expect_same_as_reference(c, "cmff");
  }
  {
    // Two same-phase cells behind a transfer switch: si.clock-overlap.
    Circuit c;
    nets::MemoryPairOptions opt;
    const auto p1 = nets::build_class_ab_memory_pair(c, opt, "a_");
    const auto p2 = nets::build_class_ab_memory_pair(c, opt, "b_");
    const spice::TwoPhaseClock clk{opt.clock_period, 3.3, 0.0,
                                   opt.clock_period / 50.0,
                                   opt.clock_period / 20.0};
    c.add<spice::Switch>("sxfer", p1.d, p2.d, clk.phase1(), 1e3, 1e12);
    ErcOptions si_only;
    si_only.spice_rules = false;
    EXPECT_TRUE(has_rule(erc::check(c, si_only), "si.clock-overlap"));
    expect_same_as_reference(c, "overlapping cascade");
  }
}

}  // namespace
