// Table 2: performance of the two SI delta-sigma modulators
// (chopper-stabilized and non-chopper-stabilized).
#include <iostream>

#include "analysis/measure.hpp"
#include "analysis/table.hpp"
#include "dsm/modulator.hpp"
#include "si/power_area.hpp"
#include "size_arg.hpp"

using namespace si;

namespace {

analysis::SweepResult measure_dr(bool chopper, int fft_log2) {
  analysis::ToneTestConfig cfg;
  cfg.clock_hz = 2.45e6;
  cfg.tone_hz = 2e3;
  cfg.band_hz = 2.45e6 / 256.0;  // OSR 128
  cfg.fft_points = std::size_t{1} << fft_log2;
  const double fs_amp = 6e-6;
  std::uint64_t seed = chopper ? 500 : 400;
  return analysis::amplitude_sweep(
      [&](double) {
        const std::uint64_t s = seed++;
        return [chopper, s](const std::vector<double>& x) {
          dsm::SiModulatorConfig cfg2;
          cfg2.chopper = chopper;
          cfg2.seed = s;
          dsm::SiSigmaDeltaModulator m(cfg2);
          auto y = m.run(x);
          for (auto& v : y) v *= cfg2.full_scale;
          return y;
        };
      },
      analysis::level_grid(-70.0, -2.0, 4.0), fs_amp, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  // FFT length 2^N per tone test (default 2^15, the printed study).
  const int fft_log2 = si::bench::size_arg(argc, argv, "fft-log2", 15, 10, 20);
  analysis::print_banner(std::cout, "Table 2 - SI modulator performance");

  const auto dr_plain = measure_dr(false, fft_log2);
  const auto dr_chop = measure_dr(true, fft_log2);

  const cells::PowerModel power(3.3, cells::CellCurrentBudget{});
  const auto p_plain = power.modulator(6e-6, false);
  const auto p_chop = power.modulator(6e-6, true);
  const cells::AreaModel area;

  analysis::Table t({"quantity", "chopper-stabilized", "non chopper-stab.",
                     "paper (both)"});
  t.add_row({"process", "sim. 0.8 um CMOS", "sim. 0.8 um CMOS",
             "0.8 um single-poly"});
  t.add_row({"chip area", analysis::fmt(area.modulator_mm2(true), 2) + " mm^2",
             analysis::fmt(area.modulator_mm2(false), 2) + " mm^2",
             "0.26 / 0.21 mm^2"});
  t.add_row({"supply voltage", "3.3 V", "3.3 V", "3.3 V"});
  t.add_row({"power dissipation", analysis::fmt(p_chop.total_mw, 1) + " mW",
             analysis::fmt(p_plain.total_mw, 1) + " mW", "3.2 mW"});
  t.add_row({"clock frequency", "2.45 MHz", "2.45 MHz", "2.45 MHz"});
  t.add_row({"OSR", "128", "128", "128"});
  t.add_row({"signal bandwidth", "9.6 kHz", "9.6 kHz", "9.6 kHz"});
  t.add_row({"0-dB level", "6 uA", "6 uA", "6 uA"});
  t.add_row({"dynamic range",
             analysis::fmt(dr_chop.dynamic_range_bits, 1) + " bits",
             analysis::fmt(dr_plain.dynamic_range_bits, 1) + " bits",
             "10.5 bits"});
  t.print(std::cout);

  std::cout << "\n  peak SNDR: chopper "
            << analysis::fmt(dr_chop.peak_sndr_db, 1) << " dB @ "
            << analysis::fmt(dr_chop.peak_sndr_level_db, 0)
            << " dB, non-chopper " << analysis::fmt(dr_plain.peak_sndr_db, 1)
            << " dB @ " << analysis::fmt(dr_plain.peak_sndr_level_db, 0)
            << " dB\n";
  return 0;
}
