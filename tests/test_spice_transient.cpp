#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si::spice;

/// Both engines run inside the same Transient::run loop, so the grid,
/// probe, preset and callback tests run on each.
class SpiceTransient : public ::testing::TestWithParam<TransientEngine> {
 protected:
  TransientOptions options() const {
    TransientOptions opt;
    opt.engine = GetParam();
    return opt;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Engines, SpiceTransient,
    ::testing::Values(TransientEngine::kMonolithic, TransientEngine::kEvent),
    [](const ::testing::TestParamInfo<TransientEngine>& info) {
      return std::string(info.param == TransientEngine::kEvent ? "Event"
                                                                : "Monolithic");
    });

TEST_P(SpiceTransient, RcStepResponseMatchesAnalytic) {
  // 1V step into RC (tau = 1 ms): v(t) = 1 - exp(-t/tau).
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>(
      "V1", in, c.ground(),
      std::make_unique<PulseWave>(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 2.0));
  c.add<Resistor>("R1", in, out, 1e3);
  c.add<Capacitor>("C1", out, c.ground(), 1e-6);

  TransientOptions opt = options();
  opt.t_stop = 5e-3;
  opt.dt = 1e-6;
  Transient tr(c, opt);
  tr.probe_voltage("out");
  const TransientResult res = tr.run();
  const auto& v = res.signal("v(out)");
  ASSERT_EQ(v.size(), res.time.size());
  for (std::size_t k = 100; k < res.time.size(); k += 500) {
    const double expected = 1.0 - std::exp(-res.time[k] / 1e-3);
    EXPECT_NEAR(v[k], expected, 2e-3) << "t=" << res.time[k];
  }
}

TEST_P(SpiceTransient, BackwardEulerAlsoConverges) {
  Circuit c;
  const NodeId out = c.node("out");
  c.add<CurrentSource>("I1", c.ground(), out, 1e-3);
  c.add<Capacitor>("C1", out, c.ground(), 1e-6);
  c.add<Resistor>("Rbig", out, c.ground(), 1e9);

  TransientOptions opt = options();
  opt.t_stop = 1e-3;
  opt.dt = 1e-6;
  opt.integrator = Integrator::kBackwardEuler;
  // Start from zero state: a DC solve would put 1 mA into the 1 GOhm
  // bleeder and start the capacitor at 1 MV.
  opt.start_from_dc = false;
  Transient tr(c, opt);
  tr.probe_voltage("out");
  const auto res = tr.run();
  // Capacitor integrates: v = I*t/C = 1 V at 1 ms.
  EXPECT_NEAR(res.signal("v(out)").back(), 1.0, 5e-3);
}

TEST_P(SpiceTransient, SineSteadyStateAmplitude) {
  // RC lowpass driven at its corner: |H| = 1/sqrt(2).
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  const double rr = 1e3, cc_f = 1e-6;
  const double f0 = 1.0 / (2.0 * std::numbers::pi * rr * cc_f);
  c.add<VoltageSource>("V1", in, c.ground(),
                       std::make_unique<SineWave>(0.0, 1.0, f0));
  c.add<Resistor>("R1", in, out, rr);
  c.add<Capacitor>("C1", out, c.ground(), cc_f);

  TransientOptions opt = options();
  opt.t_stop = 20.0 / f0;
  opt.dt = 1.0 / (f0 * 400.0);
  Transient tr(c, opt);
  tr.probe_voltage("out");
  const auto res = tr.run();
  const auto& v = res.signal("v(out)");
  double peak = 0.0;
  for (std::size_t k = v.size() / 2; k < v.size(); ++k)
    peak = std::max(peak, std::abs(v[k]));
  EXPECT_NEAR(peak, 1.0 / std::sqrt(2.0), 0.01);
}

TEST_P(SpiceTransient, SwitchTracksClock) {
  // Switch chops a DC source into a load; output follows the clock.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("V1", in, c.ground(), 2.0);
  TwoPhaseClock clk{1e-6, 3.3, 0.0, 1e-9, 20e-9};
  c.add<Switch>("S1", in, out, clk.phase1(), 1.0, 1e12);
  c.add<Resistor>("RL", out, c.ground(), 1e3);

  TransientOptions opt = options();
  opt.t_stop = 3e-6;
  opt.dt = 5e-9;
  Transient tr(c, opt);
  tr.probe_voltage("out");
  const auto res = tr.run();
  const auto& v = res.signal("v(out)");
  // Mid phase-1 of the second period (t = 1.25 us): on.
  const auto idx_of = [&](double t) {
    return static_cast<std::size_t>(std::llround(t / opt.dt));
  };
  EXPECT_NEAR(v[idx_of(1.25e-6)], 2.0, 1e-2);
  // Mid phase-2 (t = 1.75 us): off.
  EXPECT_NEAR(v[idx_of(1.75e-6)], 0.0, 1e-2);
}

TEST_P(SpiceTransient, CurrentProbeRecordsBranch) {
  Circuit c;
  const NodeId in = c.node("in");
  c.add<VoltageSource>("V1", in, c.ground(), 1.0);
  c.add<Resistor>("R1", in, c.ground(), 500.0);
  TransientOptions opt = options();
  opt.t_stop = 1e-6;
  opt.dt = 1e-7;
  Transient tr(c, opt);
  tr.probe_current("V1");
  const auto res = tr.run();
  for (double i : res.signal("i(V1)")) EXPECT_NEAR(i, -2e-3, 1e-9);
}

TEST_P(SpiceTransient, OnStepCallbackFires) {
  Circuit c;
  const NodeId n1 = c.node("n1");
  c.add<CurrentSource>("I1", c.ground(), n1, 1e-3);
  c.add<Resistor>("R1", n1, c.ground(), 1e3);
  TransientOptions opt = options();
  opt.t_stop = 1e-6;
  opt.dt = 1e-7;
  Transient tr(c, opt);
  int calls = 0;
  tr.run([&](double, const SolutionView& sol) {
    ++calls;
    EXPECT_NEAR(sol.voltage(n1), 1.0, 1e-9);
  });
  EXPECT_EQ(calls, 11);  // t=0 plus 10 steps
}

TEST_P(SpiceTransient, NonMultipleTStopEndsWithExactPartialStep) {
  // t_stop = 10.5 dt: the grid must take 10 full steps plus one half
  // step landing exactly on t_stop.  The old llround() grid rounded to
  // 11 full steps and overshot t_stop by dt/2.  RC discharge (smooth,
  // no source discontinuity) so the analytic check isolates the
  // partial-step integration itself.
  Circuit c;
  const NodeId out = c.node("out");
  c.add<Resistor>("R1", out, c.ground(), 1e3);
  c.add<Capacitor>("C1", out, c.ground(), 1e-6);

  TransientOptions opt = options();
  opt.dt = 1e-4;
  opt.t_stop = 10.5 * opt.dt;
  Transient tr(c, opt);
  tr.set_initial_voltage("out", 2.0);
  tr.probe_voltage("out");
  const auto res = tr.run();

  ASSERT_EQ(res.time.size(), 12u);  // t = 0, 10 full steps, 1 half step
  EXPECT_DOUBLE_EQ(res.time.back(), opt.t_stop);
  EXPECT_DOUBLE_EQ(res.time[10], 10.0 * opt.dt);
  EXPECT_NEAR(res.time[11] - res.time[10], 0.5 * opt.dt, 1e-18);
  EXPECT_EQ(res.steps_accepted, 11u);
  // The shortened final step integrates its actual dt/2 interval: the
  // decay ratio across it matches exp(-dt/2tau) (tau = 1 ms).  An
  // absolute compare would be polluted by the first-step companion
  // start-up error, which this grid fix does not touch.
  const auto& v = res.signal("v(out)");
  EXPECT_NEAR(v[11] / v[10], std::exp(-0.5 * opt.dt / 1e-3), 1e-4);
}

TEST_P(SpiceTransient, ExactMultipleTStopKeepsFullGrid) {
  Circuit c;
  const NodeId n1 = c.node("n1");
  c.add<CurrentSource>("I1", c.ground(), n1, 1e-3);
  c.add<Resistor>("R1", n1, c.ground(), 1e3);
  TransientOptions opt = options();
  opt.t_stop = 1e-6;
  opt.dt = 1e-7;
  Transient tr(c, opt);
  const auto res = tr.run();
  ASSERT_EQ(res.time.size(), 11u);
  EXPECT_DOUBLE_EQ(res.time.back(), opt.t_stop);
  EXPECT_EQ(res.steps_accepted, 10u);
}

TEST_P(SpiceTransient, TStopShorterThanDtStillReachesTStop) {
  // t_stop = 0.4 dt used to round to zero steps, returning only t = 0.
  Circuit c;
  const NodeId n1 = c.node("n1");
  c.add<CurrentSource>("I1", c.ground(), n1, 1e-3);
  c.add<Resistor>("R1", n1, c.ground(), 1e3);
  TransientOptions opt = options();
  opt.dt = 1e-6;
  opt.t_stop = 0.4 * opt.dt;
  Transient tr(c, opt);
  tr.probe_voltage("n1");
  const auto res = tr.run();
  ASSERT_EQ(res.time.size(), 2u);
  EXPECT_DOUBLE_EQ(res.time.back(), opt.t_stop);
  EXPECT_NEAR(res.signal("v(n1)").back(), 1.0, 1e-9);
}

TEST_P(SpiceTransient, DuplicateProbesCollapseToOneSink) {
  // Probing the same node (or source) twice used to register two sinks
  // feeding one signals vector, interleaving doubled samples.
  Circuit c;
  const NodeId in = c.node("in");
  c.add<VoltageSource>("V1", in, c.ground(), 1.0);
  c.add<Resistor>("R1", in, c.ground(), 500.0);
  TransientOptions opt = options();
  opt.t_stop = 1e-6;
  opt.dt = 1e-7;
  Transient tr(c, opt);
  tr.probe_voltage("in");
  tr.probe_voltage("in");
  tr.probe_current("V1");
  tr.probe_current("V1");
  const auto res = tr.run();
  EXPECT_EQ(res.signals.size(), 2u);
  const auto& v = res.signal("v(in)");
  const auto& i = res.signal("i(V1)");
  ASSERT_EQ(v.size(), res.time.size());
  ASSERT_EQ(i.size(), res.time.size());
  for (double vv : v) EXPECT_NEAR(vv, 1.0, 1e-9);
  for (double ii : i) EXPECT_NEAR(ii, -2e-3, 1e-9);
}

TEST_P(SpiceTransient, InitialVoltagePresetsCapacitor) {
  // RC discharge from a preset initial condition: v(t) = v0 e^{-t/tau}.
  Circuit c;
  const NodeId out = c.node("out");
  c.add<Resistor>("R1", out, c.ground(), 1e3);
  c.add<Capacitor>("C1", out, c.ground(), 1e-6);
  TransientOptions opt = options();
  opt.t_stop = 2e-3;
  opt.dt = 1e-6;
  Transient tr(c, opt);
  tr.set_initial_voltage("out", 2.0);
  tr.probe_voltage("out");
  const auto res = tr.run();
  const auto& v = res.signal("v(out)");
  EXPECT_NEAR(v[0], 2.0, 1e-9);
  for (std::size_t k = 100; k < v.size(); k += 400) {
    EXPECT_NEAR(v[k], 2.0 * std::exp(-res.time[k] / 1e-3), 5e-3)
        << res.time[k];
  }
}

// Option and name checks fail before either engine is built, so they
// run once rather than per engine.

TEST(SpiceTransient, RejectsBadOptions) {
  Circuit c;
  c.add<Resistor>("R", c.node("a"), c.ground(), 1.0);
  TransientOptions opt;
  opt.t_stop = 0.0;
  opt.dt = 1e-9;
  EXPECT_THROW(Transient(c, opt), std::invalid_argument);
  opt.t_stop = 1e-6;
  opt.dt = 0.0;
  EXPECT_THROW(Transient(c, opt), std::invalid_argument);
}

TEST(SpiceTransient, UnknownProbeThrows) {
  // Names are looked up, never created: a misspelled node must not
  // become a new floating node recorded at 0 V (probe), nor index past
  // the node range of the state vector (preset).
  Circuit c;
  c.add<Resistor>("R", c.node("a"), c.ground(), 1.0);
  TransientOptions opt;
  opt.t_stop = 1e-6;
  opt.dt = 1e-7;
  const std::size_t nodes = c.node_count();
  {
    Transient tr(c, opt);
    tr.probe_current("missing");
    EXPECT_THROW(tr.run(), std::invalid_argument);
  }
  {
    Transient tr(c, opt);
    tr.probe_voltage("aa");
    EXPECT_THROW(tr.run(), std::invalid_argument);
  }
  {
    Transient tr(c, opt);
    tr.set_initial_voltage("aa", 1.0);
    EXPECT_THROW(tr.run(), std::invalid_argument);
  }
  EXPECT_EQ(c.node_count(), nodes);
  // Ground aliases stay valid names.
  Transient tr(c, opt);
  tr.probe_voltage("gnd");
  EXPECT_EQ(tr.run().signal("v(gnd)").back(), 0.0);
}

}  // namespace
