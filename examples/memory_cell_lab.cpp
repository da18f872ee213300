// Transistor-level lab session with the class-AB memory cell: the kind
// of experiment an analog designer runs before committing to layout.
//   * bias point vs supply voltage (where does the cell stop working?)
//   * small-signal input impedance of the cell and of the GGA
//   * device noise breakdown of the storage branch
// Exercises the spice:: API directly (DC sweep, AC, noise analyses).
#include <cmath>
#include <iostream>

#include "analysis/table.hpp"
#include "si/netlists.hpp"
#include "si/supply.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/noise.hpp"

int main() {
  using namespace si;
  using namespace si::cells::netlists;

  analysis::print_banner(std::cout, "Class-AB memory cell lab (spice level)");

  // ---- 1. bias vs supply -------------------------------------------
  analysis::Table t({"Vdd [V]", "Iq [uA]", "MN region", "MP region"});
  for (double vdd : {3.3, 3.0, 2.6, 2.2, 1.9, 1.7}) {
    spice::Circuit c;
    c.add<spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), vdd);
    MemoryPairOptions opt;
    opt.process.vdd = vdd;
    opt.switches_always_on = true;
    const auto h = build_class_ab_memory_pair(c, opt, "m_");
    // The sweep runs down to the Eq. (2) floor on purpose, so the ERC
    // gate (si.supply-min) stays off for it.
    spice::DcOptions dco;
    dco.erc_gate = false;
    spice::dc_operating_point(c, dco);
    auto region = [](spice::MosRegion r) {
      return r == spice::MosRegion::kSaturation
                 ? "saturation"
                 : (r == spice::MosRegion::kTriode ? "triode" : "cutoff");
    };
    t.add_row({analysis::fmt(vdd, 1),
               analysis::fmt(std::abs(h.mn->id()) * 1e6, 2),
               region(h.mn->region()), region(h.mp->region())});
  }
  t.print(std::cout);
  const auto req = cells::minimum_supply(cells::SupplyDesign{}, 0.0);
  std::cout << "  Eq.(2) predicts a " << analysis::fmt(req.eq2_volts, 2)
            << " V floor for the designed overdrives; below it the cell"
               " re-biases\n  with collapsing quiescent current and dies"
               " entirely at Vt_n + Vt_p = 1.6 V.\n";

  // ---- 2. input impedance ------------------------------------------
  spice::Circuit c;
  c.add<spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  MemoryPairOptions opt;
  opt.switches_always_on = true;
  const auto h = build_class_ab_memory_pair(c, opt, "m_");
  auto& iin = c.add<spice::CurrentSource>("Iin", c.ground(), h.d, 0.0);
  iin.set_ac_magnitude(1.0);
  spice::dc_operating_point(c);
  const auto freqs = spice::log_space(1e3, 10e6, 4);
  const auto ac = spice::ac_analysis(c, freqs);
  analysis::Table t2({"freq", "Zin [kohm]"});
  for (std::size_t k = 0; k < freqs.size(); k += 4) {
    t2.add_row({analysis::fmt_eng(freqs[k], "Hz", 1),
                analysis::fmt(std::abs(ac.voltage(c, k, h.d)) / 1e3, 1)});
  }
  t2.print(std::cout);
  std::cout << "  (1/(gm_n + gm_p) at low frequency, falling once the"
               " storage caps take over)\n";

  // ---- 3. noise breakdown ------------------------------------------
  spice::NoiseOptions nopt;
  nopt.output_p = h.d;
  nopt.freqs = spice::log_space(1e3, 50e6, 8);
  const auto noise = spice::noise_analysis(c, nopt);
  std::cout << "\nDevice noise at the storage node (spot, 1 MHz):\n";
  analysis::Table t3({"source", "PSD [V^2/Hz]"});
  const std::size_t k_1mhz = [&] {
    std::size_t best = 0;
    for (std::size_t k = 0; k < noise.freq.size(); ++k)
      if (std::abs(noise.freq[k] - 1e6) < std::abs(noise.freq[best] - 1e6))
        best = k;
    return best;
  }();
  for (const auto& s : noise.by_source)
    t3.add_row({s.label, analysis::fmt_eng(s.psd[k_1mhz], "", 3)});
  t3.print(std::cout);
  std::cout << "  integrated rms over 1 kHz - 50 MHz: "
            << analysis::fmt_eng(noise.rms(1e3, 50e6), "V", 1)
            << " on the gate -> times gm gives the sampled current noise"
               " of the cell.\n";
  return 0;
}
