// Tests for the static electrical-rule checker: every rule's fire and
// no-fire case, the diagnostics engine (thresholds, suppression, text
// and JSON rendering), the deck-level lint with line attribution, and
// the pre-simulation gate in the DC / transient / AC entry points.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "erc/check.hpp"
#include "si/netlists.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"
#include "spice/parser.hpp"
#include "spice/transient.hpp"

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

}  // namespace
