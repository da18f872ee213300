// Tier-1 solver-parity assertions: the Table 1 delay-line and Table 2
// modulator-core transients must produce the same waveforms on the
// dense representation (each circuit as is, below kSparseAutoThreshold)
// and on the sparse one (the same circuit padded past it) — within 1e-9
// on the raw doubles, and byte-identical once formatted at the %.6g
// precision the bench tables emit.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "mna_fixtures.hpp"
#include "obs/telemetry.hpp"
#include "si/netlists.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si::spice;
using namespace si::cells::netlists;

/// Runs the transient `tr` and checks, through the registry's factor
/// counters, that it solved on the representation `sparse` names.
TransientResult run_on(Transient& tr, bool sparse) {
  si::obs::set_enabled(true);
#if SI_OBS_ENABLED
  auto& dense_factors = si::obs::counter("mna.dense_factors");
  auto& symbolic_factors = si::obs::counter("mna.symbolic_factors");
  const auto dense_before = dense_factors.value();
  const auto symbolic_before = symbolic_factors.value();
#endif
  auto r = tr.run();
#if SI_OBS_ENABLED
  EXPECT_EQ(dense_factors.value() > dense_before, !sparse);
  EXPECT_EQ(symbolic_factors.value() > symbolic_before, sparse);
#endif
  si::obs::set_enabled(false);
  return r;
}

std::string fmt6(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void expect_signals_match(const TransientResult& dense,
                          const TransientResult& sparse) {
  ASSERT_EQ(dense.time.size(), sparse.time.size());
  ASSERT_EQ(dense.signals.size(), sparse.signals.size());
  for (const auto& [label, dv] : dense.signals) {
    const auto& sv = sparse.signal(label);
    ASSERT_EQ(dv.size(), sv.size()) << label;
    for (std::size_t k = 0; k < dv.size(); ++k) {
      EXPECT_NEAR(dv[k], sv[k], 1e-9) << label << " sample " << k;
      EXPECT_EQ(fmt6(dv[k]), fmt6(sv[k])) << label << " sample " << k;
    }
  }
}

TransientResult run_table1_chain(bool sparse) {
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
  if (sparse) si::test::pad_unknowns(c);
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.in));
  tr.probe_voltage(c.node_name(h.out));
  return run_on(tr, sparse);
}

TransientResult run_table2_modulator(bool sparse) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  ModulatorCoreOptions opt;
  const auto h = build_modulator_core(c, 1, opt, "mod_");
  const double T = opt.stage.pair.clock_period;
  c.add<CurrentSource>(
      "Iinp", c.ground(), h.in_p,
      std::make_unique<SineWave>(0.0, 4e-6, 1.0 / (8.0 * T), 0.0));
  c.add<CurrentSource>(
      "Iinm", c.ground(), h.in_m,
      std::make_unique<SineWave>(0.0, -4e-6, 1.0 / (8.0 * T), 0.0));
  TransientOptions topt;
  topt.t_stop = T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;
  if (sparse) si::test::pad_unknowns(c);
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out_p));
  tr.probe_voltage(c.node_name(h.out_m));
  return run_on(tr, sparse);
}

TEST(SolverParity, Table1DelayLineTransient) {
  expect_signals_match(run_table1_chain(false), run_table1_chain(true));
}

TEST(SolverParity, Table2ModulatorTransient) {
  expect_signals_match(run_table2_modulator(false), run_table2_modulator(true));
}

TEST(SolverParity, MemoryPairTransientAgreesAcrossSolvers) {
  auto run = [](bool sparse) {
    Circuit c;
    c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    MemoryPairOptions opt;
    const auto h = build_class_ab_memory_pair(c, opt, "m_");
    c.add<CurrentSource>("Iin", c.ground(), h.d, 8e-6);
    if (sparse) si::test::pad_unknowns(c);
    TransientOptions topt;
    topt.t_stop = 0.75 * opt.clock_period;
    topt.dt = opt.clock_period / 500.0;
    Transient tr(c, topt);
    tr.probe_voltage("m_gn");
    return run_on(tr, sparse);
  };
  expect_signals_match(run(false), run(true));
}

}  // namespace
