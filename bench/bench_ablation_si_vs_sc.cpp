// Ablation A5: SI vs SC (paper Sec. V).  "Large thermal noise in SI
// circuits is due to the small storage capacitance ... SC circuits can
// usually deliver higher dynamic range, but need a double-poly process.
// The SI technique is an inexpensive alternative for medium accuracy."
// We run the same second-order loop with the SI cell noise floor and
// with a kT/C-limited SC model across storage capacitances.
#include <iostream>

#include "analysis/measure.hpp"
#include "analysis/table.hpp"
#include "dsm/linear_model.hpp"
#include "dsm/modulator.hpp"
#include "size_arg.hpp"

using namespace si;

namespace {

analysis::SweepResult sweep_dut(
    const std::function<analysis::StreamProcessor(double)>& make,
    double fs_amp, int fft_log2) {
  analysis::ToneTestConfig cfg;
  cfg.clock_hz = 2.45e6;
  cfg.tone_hz = 2e3;
  cfg.band_hz = 2.45e6 / 256.0;
  cfg.fft_points = std::size_t{1} << fft_log2;
  return analysis::amplitude_sweep(make,
                                   analysis::level_grid(-90.0, -2.0, 4.0),
                                   fs_amp, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  // FFT length 2^N per tone test (default 2^15, the printed study).
  const int fft_log2 = si::bench::size_arg(argc, argv, "fft-log2", 15, 10, 20);
  analysis::print_banner(std::cout, "Ablation A5 - SI vs SC dynamic range");
  const double fs_amp = 6e-6;

  std::uint64_t seed = 900;
  const auto si_sweep = sweep_dut(
      [&](double) {
        const std::uint64_t s = seed++;
        return [s, fs_amp](const std::vector<double>& x) {
          dsm::SiModulatorConfig mc;
          mc.seed = s;
          dsm::SiSigmaDeltaModulator m(mc);
          auto y = m.run(x);
          for (auto& v : y) v *= fs_amp;
          return y;
        };
      },
      fs_amp, fft_log2);

  analysis::Table t({"technology", "storage cap", "process",
                     "dynamic range [bits]"});
  t.add_row({"SI (this paper)", "~0.15 pF gate", "single-poly digital",
             analysis::fmt(si_sweep.dynamic_range_bits, 1)});
  for (double cap : {1e-12, 4e-12, 16e-12}) {
    std::uint64_t s2 = 1700;
    const auto sc_sweep = sweep_dut(
        [&](double) {
          const std::uint64_t s = s2++;
          return [s, cap, fs_amp](const std::vector<double>& x) {
            dsm::ScBaselineModulator m(fs_amp, cap, 1.0, s);
            auto y = m.run(x);
            for (auto& v : y) v *= fs_amp;
            return y;
          };
        },
        fs_amp, fft_log2);
    t.add_row({"SC baseline", analysis::fmt(cap * 1e12, 0) + " pF",
               "double-poly needed",
               analysis::fmt(sc_sweep.dynamic_range_bits, 1)});
  }
  t.print(std::cout);

  std::cout << "\n  SC reaches the quantization limit ("
            << analysis::fmt(
                   dsm::bits_from_dr_db(dsm::theoretical_peak_sqnr_db(2, 128)),
                   1)
            << " bits at OSR 128) long before kT/C matters; the SI floor"
               "\n  caps the modulator near 10.5 bits — the paper's"
               " medium-accuracy positioning.\n";
  return 0;
}
