// Event-engine parity and latency-exploitation assertions: a step the
// event engine (src/event) solves is the monolithic solve, so on the
// paper's Table 1 / Table 2 workloads with a moving input, where no
// step is skipped, its waveforms equal the monolithic engine's bit for
// bit; on a quiescent DC-hold run it skips whole steps and stays within
// the hold's error bound.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "obs/telemetry.hpp"
#include "si/netlists.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si::spice;
using namespace si::cells::netlists;

std::string fmt6(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// The parity contract between the engines: identical time grids and,
/// per sample, agreement at %.6g (solved steps are the monolithic
/// solve; the holds of skipped steps may differ below the quiescence
/// tolerance, far under the 1e-6 relative granularity of %.6g).
void expect_engine_parity(const TransientResult& mono,
                          const TransientResult& event) {
  ASSERT_EQ(mono.time.size(), event.time.size());
  ASSERT_EQ(mono.signals.size(), event.signals.size());
  for (std::size_t k = 0; k < mono.time.size(); ++k)
    ASSERT_DOUBLE_EQ(mono.time[k], event.time[k]) << "sample " << k;
  for (const auto& [label, mv] : mono.signals) {
    const auto& ev = event.signal(label);
    ASSERT_EQ(mv.size(), ev.size()) << label;
    for (std::size_t k = 0; k < mv.size(); ++k) {
      EXPECT_NEAR(mv[k], ev[k], 2e-6) << label << " sample " << k;
      EXPECT_EQ(fmt6(mv[k]), fmt6(ev[k])) << label << " sample " << k;
    }
  }
}

TransientResult run_table1_chain(
    TransientEngine engine,
    double quiescent_tol = TransientOptions{}.event_quiescent_tol) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  DelayStageOptions opt;
  const auto h = build_delay_line_chain(c, 3, opt, "dl_");
  const double T = opt.pair.clock_period;
  c.add<CurrentSource>(
      "Iin", c.ground(), h.in,
      std::make_unique<SineWave>(0.0, 5e-6, 1.0 / (8.0 * T), 0.0));
  TransientOptions topt;
  topt.t_stop = 2.0 * T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;
  topt.engine = engine;
  topt.event_quiescent_tol = quiescent_tol;
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.in));
  tr.probe_voltage(c.node_name(h.out));
  return tr.run();
}

TransientResult run_table2_modulator(
    TransientEngine engine, bool dc_hold = false, double periods = 1.0,
    double quiescent_tol = TransientOptions{}.event_quiescent_tol,
    int sections = 1) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  ModulatorCoreOptions opt;
  const auto h = build_modulator_core(c, sections, opt, "mod_");
  const double T = opt.stage.pair.clock_period;
  if (dc_hold) {
    c.add<CurrentSource>("Iinp", c.ground(), h.in_p,
                         std::make_unique<DcWave>(1e-6));
    c.add<CurrentSource>("Iinm", c.ground(), h.in_m,
                         std::make_unique<DcWave>(-1e-6));
  } else {
    c.add<CurrentSource>(
        "Iinp", c.ground(), h.in_p,
        std::make_unique<SineWave>(0.0, 4e-6, 1.0 / (8.0 * T), 0.0));
    c.add<CurrentSource>(
        "Iinm", c.ground(), h.in_m,
        std::make_unique<SineWave>(0.0, -4e-6, 1.0 / (8.0 * T), 0.0));
  }
  TransientOptions topt;
  topt.t_stop = periods * T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;
  topt.engine = engine;
  topt.event_quiescent_tol = quiescent_tol;
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out_p));
  tr.probe_voltage(c.node_name(h.out_m));
  return tr.run();
}

TEST(EventParity, Table1DelayLineTransient) {
  const auto mono = run_table1_chain(TransientEngine::kMonolithic);
  const auto event = run_table1_chain(TransientEngine::kEvent);
  EXPECT_GT(event.event_blocks, 2u);
  EXPECT_GT(event.event_block_solves, 0u);
  EXPECT_EQ(mono.event_blocks, 0u);
  expect_engine_parity(mono, event);
}

TEST(EventParity, Table2ModulatorTransient) {
  const auto mono = run_table2_modulator(TransientEngine::kMonolithic);
  const auto event = run_table2_modulator(TransientEngine::kEvent);
  EXPECT_GT(event.event_blocks, 2u);
  expect_engine_parity(mono, event);
}

/// Every bit of every probed sample: identical time grids and waveforms.
void expect_bit_identical(const TransientResult& mono,
                          const TransientResult& event,
                          const std::string& what) {
  ASSERT_EQ(mono.time.size(), event.time.size()) << what;
  for (std::size_t k = 0; k < mono.time.size(); ++k)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(mono.time[k]),
              std::bit_cast<std::uint64_t>(event.time[k]))
        << what << " sample " << k;
  ASSERT_EQ(mono.signals.size(), event.signals.size()) << what;
  for (const auto& [label, mv] : mono.signals) {
    const auto& ev = event.signal(label);
    ASSERT_EQ(mv.size(), ev.size()) << what << " " << label;
    for (std::size_t k = 0; k < mv.size(); ++k)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(mv[k]),
                std::bit_cast<std::uint64_t>(ev[k]))
          << what << " " << label << " sample " << k << ": " << mv[k]
          << " vs " << ev[k];
  }
}

/// A step the event engine does not skip is the monolithic solve on the
/// same engine: with a moving input no step is all-latent, so the
/// waveforms must agree in every bit, at the default tolerance and at
/// the relaxed 1e-6 the benchmarks use.
TEST(EventParity, SolvedStepsMatchMonolithicBitForBit) {
  for (const double tol : {TransientOptions{}.event_quiescent_tol, 1e-6}) {
    const std::string at = " tol=" + fmt6(tol);
    const auto chain = run_table1_chain(TransientEngine::kEvent, tol);
    EXPECT_EQ(chain.event_steps_skipped, 0u) << "chain" << at;
    expect_bit_identical(run_table1_chain(TransientEngine::kMonolithic),
                         chain, "chain" + at);
    for (const int sections : {1, 8}) {
      const std::string what = std::to_string(sections) + "-section" + at;
      const auto event = run_table2_modulator(
          TransientEngine::kEvent, /*dc_hold=*/false, 2.0, tol, sections);
      EXPECT_EQ(event.event_steps_skipped, 0u) << what;
      expect_bit_identical(
          run_table2_modulator(TransientEngine::kMonolithic,
                               /*dc_hold=*/false, 2.0, tol, sections),
          event, what);
    }
  }
}

/// The latency-exploitation scenario: with DC inputs the modulator
/// settles into a steady state where re-sampling reproduces the held
/// values, so the engine must start skipping block solves — and whole
/// steps — while staying within the quiescence tolerance of the
/// monolithic waveforms.
TEST(EventEngine, DcHoldExploitsLatency) {
  const double periods = 20.0;
  const auto mono = run_table2_modulator(TransientEngine::kMonolithic,
                                         /*dc_hold=*/true, periods);
  const auto event = run_table2_modulator(TransientEngine::kEvent,
                                          /*dc_hold=*/true, periods,
                                          /*quiescent_tol=*/1e-6);
  EXPECT_GT(event.event_block_skips, 0u) << "no block ever went latent";
  EXPECT_GT(event.event_steps_skipped, 0u)
      << "no fully-latent step was skipped";

  ASSERT_EQ(mono.time.size(), event.time.size());
  double maxerr = 0.0;
  for (const auto& [label, mv] : mono.signals) {
    const auto& ev = event.signal(label);
    ASSERT_EQ(mv.size(), ev.size()) << label;
    for (std::size_t k = 0; k < mv.size(); ++k)
      maxerr = std::max(maxerr, std::abs(mv[k] - ev[k]));
  }
  // Only whole skipped steps hold, and the hold error is bounded by the
  // geometric settling tail the quiescence rule budgets for (see
  // DESIGN.md).
  EXPECT_LT(maxerr, 1e-5);
}

/// The event.* telemetry counters must advance across an event-engine
/// run so the bench-smoke schema check has something to validate.
TEST(EventEngine, TelemetryCountersAdvance) {
  si::obs::set_enabled(true);
  si::obs::reset();
  (void)run_table1_chain(TransientEngine::kEvent);
  EXPECT_GE(si::obs::counter("event.runs").value(), 1u);
  EXPECT_GT(si::obs::counter("event.block_solves").value(), 0u);
  EXPECT_GT(si::obs::counter("mna.newton_solves").value(), 0u);
  EXPECT_GT(si::obs::counter("event.events_dispatched").value(), 0u);
  si::obs::reset();
  si::obs::set_enabled(false);
}

}  // namespace
