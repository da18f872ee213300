// ADC design exploration with the library's analytic models: given a
// signal bandwidth and a resolution target, which (clock, OSR) designs
// are feasible for an SI delta-sigma converter, and what do they cost?
//
// Uses the linear model (quantization limit), the noise budget (the SI
// thermal floor that actually limits the paper's chip), and the power /
// supply models — then spot-checks one candidate by full simulation.
#include <cmath>
#include <iostream>

#include "analysis/mc_batch.hpp"
#include "analysis/measure.hpp"
#include "analysis/table.hpp"
#include "dsm/linear_model.hpp"
#include "dsm/modulator.hpp"
#include "runtime/parallel.hpp"
#include "si/noise_model.hpp"
#include "si/power_area.hpp"
#include "si/supply.hpp"

int main() {
  using namespace si;

  const double band = 9.6e3;       // paper's signal bandwidth
  const double full_scale = 6e-6;  // 0-dB level

  analysis::print_banner(std::cout,
                         "SI delta-sigma ADC design exploration (9.6 kHz band)");

  cells::NoiseBudget noise;  // the paper's ~33 nA floor
  const cells::PowerModel power(3.3, cells::CellCurrentBudget{});

  analysis::Table t({"OSR", "clock", "quant.-limited [bit]",
                     "thermal-limited [bit]", "achievable [bit]",
                     "power [mW]"});
  // Candidate designs are independent: evaluate the grid concurrently
  // through the runtime pool, then print the rows in OSR order.
  const std::vector<double> osr_grid{32.0, 64.0, 128.0, 256.0, 512.0};
  const auto rows = runtime::parallel_map(
      osr_grid,
      [&](const double& osr) {
        const double fclk = 2.0 * band * osr;
        const double q_bits =
            dsm::bits_from_dr_db(dsm::theoretical_peak_sqnr_db(2, osr));
        const double t_bits = dsm::bits_from_dr_db(dsm::noise_limited_dr_db(
            noise.cell_current_rms(), full_scale, osr));
        const double bits = std::min(q_bits, t_bits);
        const auto p = power.modulator(full_scale, false);
        return std::vector<std::string>{
            analysis::fmt(osr, 0), analysis::fmt_eng(fclk, "Hz", 2),
            analysis::fmt(q_bits, 1), analysis::fmt(t_bits, 1),
            analysis::fmt(bits, 1), analysis::fmt(p.total_mw, 1)};
      },
      /*grain=*/1);
  for (const auto& row : rows) t.add_row(row);
  t.print(std::cout);
  std::cout
      << "  Above OSR ~32 the SI thermal floor, not quantization, limits\n"
         "  the resolution (3 dB per OSR octave instead of 15): exactly\n"
         "  why the paper's chip stops at 10.5 bits at OSR 128.\n";

  // Supply headroom across modulation indices for this design.
  const cells::SupplyDesign supply;
  std::cout << "\nSupply feasibility (Vt = 1 V): min Vdd at m_i = 1 is "
            << analysis::fmt(cells::minimum_supply(supply, 1.0).minimum_volts,
                             2)
            << " V -> 3.3 V operation holds (paper Sec. II).\n";

  // Spot-check the paper's operating point by simulation.
  analysis::ToneTestConfig cfg;
  cfg.clock_hz = 2.0 * band * 128.0;
  cfg.tone_hz = 2e3;
  cfg.band_hz = band;
  cfg.fft_points = 1 << 15;
  auto dut = [&](const std::vector<double>& x) {
    dsm::SiModulatorConfig mc;
    dsm::SiSigmaDeltaModulator m(mc);
    auto y = m.run(x);
    for (auto& v : y) v *= mc.full_scale;
    return y;
  };
  const auto r = analysis::run_tone_test(dut, 0.5 * full_scale, cfg);
  std::cout << "\nSimulated spot check at OSR 128, -6 dBFS: SNDR = "
            << analysis::fmt(r.metrics.sndr_db, 1) << " dB ("
            << analysis::fmt(r.metrics.enob_bits, 1)
            << " bits at this level)\n";

  // Mismatch yield at transistor level: the candidate design's SI
  // delay-line signal path under per-device kp / Vt0 process draws,
  // solved through analysis::monte_carlo_dc.  The chain's output bias
  // point must stay inside the memory cells' gate-drive window for the
  // die to meet its settling spec, so the spread against a +-50 mV
  // window is the yield question.
  {
    const int dies = 64;
    analysis::McOptions mo;
    mo.seed0 = 17;
    const auto w = analysis::delay_line_mismatch_workload(2, /*sigma=*/0.02);
    const auto st = analysis::monte_carlo_dc(dies, w, mo);
    const double budget = 50e-3;  // |shift from ensemble median|, volts
    const double median = st.percentile(0.5);
    std::size_t pass = 0;
    for (double s : st.samples) pass += std::abs(s - median) <= budget;
    std::cout << "\nMismatch yield (transistor level, " << dies
              << " dies, 2 % sigma): bias spread sigma = " << analysis::fmt(st.sigma * 1e3, 2)
              << " mV, yield(|shift| <= 50 mV) = "
              << analysis::fmt(100.0 * static_cast<double>(pass) / dies, 0)
              << " %\n";
  }
  return 0;
}
