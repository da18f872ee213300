// End-to-end tests of the static verification pack: the abstract
// interpreter's soundness against the DC solver, the witness-backed
// property checkers (every reported corner must reproduce), the exact
// clock-phase timing including the sub-sample overlap regression, and
// the verify.* telemetry counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "erc/check.hpp"
#include "obs/telemetry.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"
#include "spice/parser.hpp"
#include "verify/phase.hpp"
#include "verify/verify.hpp"

namespace {

using namespace si;
using spice::Circuit;
using spice::NodeId;

Circuit parse(const std::string& deck) { return spice::parse_netlist(deck); }

const char* kModels =
    ".model nmem NMOS (KP=100u VTO=0.8 LAMBDA=0.02 CGS=0.15p)\n"
    ".model pmem PMOS (KP=40u  VTO=0.8 LAMBDA=0.02 CGS=0.15p)\n";

/// The examples/decks delay line, inlined: two cascaded class-AB cells
/// on non-overlapping 1 MHz phases.
std::string delay_line_deck(double vdd) {
  const std::string v = std::to_string(vdd);
  return std::string(kModels) + "Vdd vdd 0 DC " + v +
         "\n"
         "MN1 d1 gn1 0   nmem W=4u  L=4u\n"
         "MP1 d1 gp1 vdd pmem W=10u L=4u\n"
         "S1N gn1 d1 PULSE(0 " + v + " 20n 10n 10n 460n 1u) 1k 1g\n"
         "S1P gp1 d1 PULSE(0 " + v + " 20n 10n 10n 460n 1u) 1k 1g\n"
         "Ib1 0 d1 DC 10u\n"
         "Iin 0 d1 DC 2u\n"
         "MN2 d2 gn2 0   nmem W=4u  L=4u\n"
         "MP2 d2 gp2 vdd pmem W=10u L=4u\n"
         "S2N gn2 d2 PULSE(0 " + v + " 520n 10n 10n 460n 1u) 1k 1g\n"
         "S2P gp2 d2 PULSE(0 " + v + " 520n 10n 10n 460n 1u) 1k 1g\n"
         "SC  d1  d2 PULSE(0 " + v + " 520n 10n 10n 460n 1u) 1k 1g\n"
         "Ib2 0 d2 DC 10u\n";
}

/// The examples/decks modulator section (integrator pair, sense diode,
/// switched feedback mirror), parameterized on the supply.
std::string modulator_deck(double vdd) {
  const std::string v = std::to_string(vdd);
  return std::string(kModels) + "Vdd vdd 0 DC " + v +
         "\n"
         "MN1 d1 gn1 0   nmem W=4u  L=4u\n"
         "MP1 d1 gp1 vdd pmem W=10u L=4u\n"
         "S1N gn1 d1 PULSE(0 " + v + " 20n 10n 10n 460n 1u) 1k 1g\n"
         "S1P gp1 d1 PULSE(0 " + v + " 20n 10n 10n 460n 1u) 1k 1g\n"
         "Ib1 0 d1 DC 10u\n"
         "Iin 0 d1 DC 2u\n"
         "SC  d1 d2 PULSE(0 " + v + " 520n 10n 10n 460n 1u) 1k 1g\n"
         "MD  d2 d2 0 nmem W=4u L=4u\n"
         "IbD 0 d2 DC 10u\n"
         "MM  df d2 0 nmem W=2u L=4u\n"
         "SF  df d1 PULSE(0 " + v + " 20n 10n 10n 460n 1u) 1k 1g\n";
}

const verify::Finding* find_rule(const verify::VerifyResult& r,
                                 const std::string& rule) {
  for (const auto& f : r.findings)
    if (f.rule == rule) return &f;
  return nullptr;
}

double witness(const verify::Finding& f, const std::string& name) {
  for (const auto& w : f.witness)
    if (w.name == name) return w.value;
  return std::numeric_limits<double>::quiet_NaN();
}

// ---------------------------------------------------------------------
// Clean decks prove clean, with every node bounded
// ---------------------------------------------------------------------

TEST(Verify, DelayLineDeckProvesClean) {
  Circuit c = parse(delay_line_deck(3.3));
  const verify::VerifyResult r = verify::analyze(c);
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.pairs.size(), 2u);
  EXPECT_TRUE(r.pairs[0].resolved);
  EXPECT_TRUE(r.pairs[1].resolved);
  EXPECT_EQ(r.stats.nodes_resolved, r.stats.nodes);
  EXPECT_GT(r.stats.segments, 1u);
}

TEST(Verify, ModulatorFeedbackLoopResolvesToFixpoint) {
  Circuit c = parse(modulator_deck(3.3));
  const verify::VerifyResult r = verify::analyze(c);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.stats.nodes_resolved, r.stats.nodes);
  // The feedback loop must converge well before the iteration cap.
  EXPECT_LT(r.stats.iterations, 64u);
}

TEST(Verify, CleanMemoryCellBuilderStaysClean) {
  Circuit c;
  cells::netlists::MemoryPairOptions opt;
  cells::netlists::build_class_ab_memory_pair(c, opt, "m_");
  const verify::VerifyResult r = verify::analyze(c);
  EXPECT_TRUE(r.findings.empty());
}

// ---------------------------------------------------------------------
// Soundness: the DC solution lies inside the abstract ranges
// ---------------------------------------------------------------------

TEST(Verify, AbstractRangesContainDcOperatingPoint) {
  // Diode-tied pair (always sampling) so the DC solve is well-posed.
  const std::string deck = std::string(kModels) +
                           "Vdd vdd 0 DC 3.3\n"
                           "MN1 d d 0   nmem W=4u  L=4u\n"
                           "MP1 d d vdd pmem W=10u L=4u\n"
                           "Iin 0 d DC 12u\n";
  Circuit c = parse(deck);
  const verify::VerifyResult r = verify::analyze(c);
  ASSERT_TRUE(r.findings.empty());

  Circuit cs = parse(deck);
  spice::DcOptions o;
  o.erc_gate = false;  // soundness is what is under test here
  const spice::DcResult dc = spice::dc_operating_point(cs, o);
  const spice::SolutionView sol(cs, dc.x);
  for (const auto& nr : r.ranges) {
    const NodeId n = cs.node(nr.node);
    ASSERT_FALSE(nr.v.is_empty()) << nr.node;
    EXPECT_GE(sol.voltage(n), nr.v.lo) << nr.node;
    EXPECT_LE(sol.voltage(n), nr.v.hi) << nr.node;
  }
}

// ---------------------------------------------------------------------
// Witness round trips
// ---------------------------------------------------------------------

TEST(Verify, SupplyFloorWitnessRoundTrip) {
  // 1.72 V clears the nominal Eq. (1)-(2) floor (1.7 V) but not the
  // worst-case corner: Vdd at -2 % against both Vt at +50 mV.
  Circuit c = parse(modulator_deck(1.72));
  const verify::VerifyResult r = verify::analyze(c);
  const verify::Finding* f = find_rule(r, "si.supply-floor-worstcase");
  ASSERT_NE(f, nullptr);
  EXPECT_LT(f->margin, 0.0);
  EXPECT_NEAR(witness(*f, "vdd"), 1.72 * 0.98, 1e-6);
  EXPECT_NEAR(witness(*f, "vt_n"), 0.85, 1e-9);
  EXPECT_NEAR(witness(*f, "vt_p"), 0.85, 1e-9);

  // Round trip: simulate the pair at the witness corner.  The solved
  // operating point must exhibit the claimed collapse — the total
  // overdrive left between the rails is below 2 * min_overdrive.
  const std::string corner_deck =
      ".model nc NMOS (KP=100u VTO=0.85 LAMBDA=0.02)\n"
      ".model pc PMOS (KP=40u  VTO=0.85 LAMBDA=0.02)\n"
      "Vdd vdd 0 DC 1.6856\n"
      "MN1 d d 0   nc W=4u  L=4u\n"
      "MP1 d d vdd pc W=10u L=4u\n"
      "Ib1 0 d DC 10u\n"
      "Iin 0 d DC 2u\n";
  Circuit cs = parse(corner_deck);
  spice::DcOptions o;
  o.erc_gate = false;  // the corner trips si.supply-min by design
  const spice::DcResult dc = spice::dc_operating_point(cs, o);
  const spice::SolutionView sol(cs, dc.x);
  const double vd = sol.voltage(cs.node("d"));
  const double vov_n = vd - 0.85;
  const double vov_p = 1.6856 - vd - 0.85;
  EXPECT_LT(std::min(vov_n, vov_p), 0.05);
}

TEST(Verify, OverdriveMarginFiresOnLowVdd) {
  Circuit c = parse(modulator_deck(1.72));
  const verify::VerifyResult r = verify::analyze(c);
  const verify::Finding* f = find_rule(r, "si.overdrive-margin");
  ASSERT_NE(f, nullptr);
  EXPECT_LT(f->margin, 0.05);
  // The witness names the supply corner that collapses the overdrive.
  EXPECT_NEAR(witness(*f, "vdd"), 1.72 * 0.98, 1e-6);
}

TEST(Verify, RegionViolationWhenHoldDrainPinnedLow) {
  // During phi2 the held pair's drain is switched onto a 0.2 V rail:
  // far below the NMOS overdrive, so the held device leaves saturation
  // and the stored current is corrupted.
  const std::string deck = std::string(kModels) +
                           "Vdd vdd 0 DC 3.3\n"
                           "MN1 d gn 0   nmem W=4u  L=4u\n"
                           "MP1 d gp vdd pmem W=10u L=4u\n"
                           "SN gn d PULSE(0 3.3 20n 10n 10n 460n 1u) 1k 1g\n"
                           "SP gp d PULSE(0 3.3 20n 10n 10n 460n 1u) 1k 1g\n"
                           "Ib 0 d DC 12u\n"
                           "SC d x PULSE(0 3.3 520n 10n 10n 460n 1u) 1k 1g\n"
                           "Vx x 0 DC 0.2\n";
  Circuit c = parse(deck);
  const verify::VerifyResult r = verify::analyze(c);
  const verify::Finding* f = find_rule(r, "si.region-violation");
  ASSERT_NE(f, nullptr);
  EXPECT_LT(f->margin, 0.0);
}

TEST(Verify, RangeOverflowOnOverdrivenPair) {
  // 500 uA through a 100 uA/V^2 pair needs ~3.2 V of NMOS overdrive:
  // the drain is pushed past the Vdd + rail_margin window.
  const std::string deck = std::string(kModels) +
                           "Vdd vdd 0 DC 3.3\n"
                           "MN1 d d 0   nmem W=4u  L=4u\n"
                           "MP1 d d vdd pmem W=10u L=4u\n"
                           "Iin 0 d DC 500u\n";
  Circuit c = parse(deck);
  const verify::VerifyResult r = verify::analyze(c);
  const verify::Finding* f = find_rule(r, "si.range-overflow");
  ASSERT_NE(f, nullptr);
  EXPECT_LT(f->margin, 0.0);
}

// ---------------------------------------------------------------------
// Exact clock-phase timing
// ---------------------------------------------------------------------

/// Two-stage cascade whose stage-2 phase leads stage 1's falling edge
/// by `overlap` seconds (0 = exactly abutting, negative = underlap).
Circuit cascade_with_overlap(double overlap) {
  Circuit out;
  const NodeId vdd = out.node("vdd");
  out.add<spice::VoltageSource>("vdd_src", vdd, out.ground(), 3.3);
  const double T = 1e-6, w = 500e-9;
  auto phase1 = [&] {
    return std::make_unique<spice::PulseWave>(0.0, 3.3, 0.0, 0.0, 0.0, w, T);
  };
  auto phase2 = [&] {
    return std::make_unique<spice::PulseWave>(0.0, 3.3, w - overlap, 0.0,
                                              0.0, w - 40e-9, T);
  };
  spice::MosfetParams mp;
  mp.w = 4e-6;
  mp.l = 4e-6;
  mp.kp = 100e-6;
  mp.vt0 = 0.8;
  spice::MosfetParams pp = mp;
  pp.kp = 40e-6;
  pp.w = 10e-6;
  for (int i = 1; i <= 2; ++i) {
    const std::string k = std::to_string(i);
    const NodeId d = out.node("d" + k), gn = out.node("gn" + k),
                 gp = out.node("gp" + k);
    out.add<spice::Mosfet>("mn" + k, spice::MosType::kNmos, d, gn,
                           out.ground(), mp);
    out.add<spice::Mosfet>("mp" + k, spice::MosType::kPmos, d, gp, vdd, pp);
    out.add<spice::Switch>("s" + k + "n", gn, d,
                           i == 1 ? phase1() : phase2(), 1e3, 1e12);
    out.add<spice::Switch>("s" + k + "p", gp, d,
                           i == 1 ? phase1() : phase2(), 1e3, 1e12);
  }
  out.add<spice::Switch>("sc", out.node("d1"), out.node("d2"), phase2(), 1e3,
                         1e12);
  out.add<spice::CurrentSource>("ib1", out.ground(), out.node("d1"), 10e-6);
  out.add<spice::CurrentSource>("ib2", out.ground(), out.node("d2"), 10e-6);
  return out;
}

TEST(VerifyTiming, ExactOverlapCatchesOneNanoPeriodOverlap) {
  // Overlap of 1e-15 s on a 1e-6 s period: 1e-9 periods — three orders
  // of magnitude below what a 128-point sampled scan would resolve.
  Circuit c = cascade_with_overlap(1e-15);
  const auto is_overlap = [](const erc::Diagnostic& d) {
    return d.rule == "si.clock-overlap";
  };
  const auto exact_diags = erc::check(c);
  EXPECT_TRUE(
      std::any_of(exact_diags.begin(), exact_diags.end(), is_overlap));
}

TEST(VerifyTiming, NonOverlappingCascadeIsCleanWithMargin) {
  Circuit c = cascade_with_overlap(-20e-9);  // 20 ns underlap
  const auto diags = erc::check(c);
  EXPECT_FALSE(std::any_of(
      diags.begin(), diags.end(),
      [](const erc::Diagnostic& d) { return d.rule == "si.clock-overlap"; }));

  // The timing matrix reports the exact non-overlap margin.
  const spice::Switch* a = nullptr;
  const spice::Switch* b = nullptr;
  for (const auto& e : c.elements()) {
    if (e->name() == "s1n") a = dynamic_cast<const spice::Switch*>(e.get());
    if (e->name() == "s2n") b = dynamic_cast<const spice::Switch*>(e.get());
  }
  ASSERT_TRUE(a != nullptr && b != nullptr);
  const verify::OverlapReport rep =
      verify::phase_overlap(verify::switch_phase(*a), verify::switch_phase(*b));
  EXPECT_EQ(rep.overlap, 0.0);
  EXPECT_NEAR(rep.margin, 20e-9, 1e-12);
}

TEST(VerifyTiming, SubSampleOverlapIsMeasuredExactly) {
  Circuit c = cascade_with_overlap(1e-15);
  const spice::Switch* a = nullptr;
  const spice::Switch* b = nullptr;
  for (const auto& e : c.elements()) {
    if (e->name() == "s1n") a = dynamic_cast<const spice::Switch*>(e.get());
    if (e->name() == "s2n") b = dynamic_cast<const spice::Switch*>(e.get());
  }
  ASSERT_TRUE(a != nullptr && b != nullptr);
  const verify::OverlapReport rep =
      verify::phase_overlap(verify::switch_phase(*a), verify::switch_phase(*b));
  EXPECT_GT(rep.overlap, 0.0);
  EXPECT_LT(rep.overlap, 1e-12);
}

// ---------------------------------------------------------------------
// Robustness and telemetry
// ---------------------------------------------------------------------

TEST(Verify, TerminatesOnInconsistentSourceRing) {
  // A ring of floating 1 V sources around a grounded anchor: the join
  // constraints chase each other around the loop; the analysis must
  // still terminate within the iteration cap.
  Circuit c;
  const NodeId a = c.node("a"), b = c.node("b"), d = c.node("d");
  c.add<spice::VoltageSource>("vg", a, c.ground(), 1.0);
  c.add<spice::VoltageSource>("v1", b, a, 1.0);
  c.add<spice::VoltageSource>("v2", d, b, 1.0);
  c.add<spice::VoltageSource>("v3", a, d, 1.0);
  const verify::VerifyResult r = verify::analyze(c);
  EXPECT_LE(r.stats.iterations, 64u);
  EXPECT_GE(r.stats.nodes, 3u);
}

/// The Table 2 modulator core (`sections` sections) on a 3.3 V
/// supply with a 1 uA differential DC input.
Circuit modulator_core(int sections) {
  Circuit c;
  c.add<spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  cells::netlists::ModulatorCoreOptions opt;
  const auto h =
      cells::netlists::build_modulator_core(c, sections, opt, "mod_");
  c.add<spice::CurrentSource>("Iinp", c.ground(), h.in_p, 1e-6);
  c.add<spice::CurrentSource>("Iinm", c.ground(), h.in_m, -1e-6);
  return c;
}

TEST(Verify, WitnessEvaluationsGrowLinearlyWithSections) {
  // Each CMFF diode sums both differential halves, so without the
  // per-call memo of pair input currents the witness evaluation doubled
  // with every section (306x more evaluations per corner at 12 sections
  // than at 6).  With it, each upstream pair is evaluated about once per
  // corner.
  obs::set_enabled(true);
#if SI_OBS_ENABLED
  const auto evals0 = obs::counter("verify.pair_current_evals").value();
#endif
  const verify::VerifyResult r6 = verify::analyze(modulator_core(6));
  const verify::VerifyResult r12 = verify::analyze(modulator_core(12));
#if SI_OBS_ENABLED
  EXPECT_EQ(obs::counter("verify.pair_current_evals").value() - evals0,
            r6.stats.pair_current_evals + r12.stats.pair_current_evals);
#endif
  obs::set_enabled(false);
  ASSERT_GT(r6.stats.corners_evaluated, 0u);
  ASSERT_GT(r12.stats.corners_evaluated, 0u);
  const double per6 = static_cast<double>(r6.stats.pair_current_evals) /
                      static_cast<double>(r6.stats.corners_evaluated);
  const double per12 = static_cast<double>(r12.stats.pair_current_evals) /
                       static_cast<double>(r12.stats.corners_evaluated);
  EXPECT_GE(per6, 1.0);
  EXPECT_LE(per12, 2.5 * per6) << "per corner: " << per6 << " at 6 sections, "
                               << per12 << " at 12";
}

TEST(Verify, TelemetryCountersRecorded) {
  obs::set_enabled(true);
  const auto runs0 = obs::counter("verify.runs").value();
  const auto corners0 = obs::counter("verify.corners_evaluated").value();
  Circuit c = parse(modulator_deck(1.72));
  const verify::VerifyResult r = verify::analyze(c);
  obs::set_enabled(false);
  EXPECT_EQ(obs::counter("verify.runs").value(), runs0 + 1);
  EXPECT_GT(obs::counter("verify.corners_evaluated").value(), corners0);
  EXPECT_GE(r.stats.corners_evaluated, 1u);
  const std::string js = obs::snapshot_json();
  EXPECT_NE(js.find("verify.runs"), std::string::npos);
  EXPECT_NE(js.find("verify.findings"), std::string::npos);
}

}  // namespace
