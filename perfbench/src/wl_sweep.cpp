// sweep_yield: the two studies an analog designer runs on the runtime
// pool.
//
//  1. Fig. 7: SNDR versus input level (15 levels, -70..0 dB) for the
//     plain and the chopper-stabilized behavioural modulator, OSR 128,
//     32K-point Blackman FFT; per-level seeds derive from the level
//     index, so the dynamic ranges are thread-count invariant.
//  2. A transistor-level mismatch-yield Monte-Carlo study: 4096 DC trials
//     of a 32-stage delay-line chain (monte_carlo_dc, batched lanes).
//
// Set-up is the pool start (spawning the workers and running one task on
// each).
#include <atomic>
#include <cmath>
#include <sstream>

#include "analysis/mc_batch.hpp"
#include "analysis/measure.hpp"
#include "dsm/modulator.hpp"
#include "dsp/metrics.hpp"
#include "dsp/signal.hpp"
#include "runtime/parallel.hpp"
#include "workload.hpp"

namespace pb {

namespace {

using namespace si;

constexpr double kFullScale = 6e-6;  // the paper's 0-dB level
constexpr int kMcStages = 32;
constexpr int kMcTrials = 4096;
constexpr double kMcSigma = 0.02;
constexpr double kYieldBudgetVolts = 50e-3;  // |shift from ensemble median|
constexpr double kDrToleranceDb = 0.1;
constexpr double kPaperDrDb = 63.0;

struct McSummary {
  double mean, sigma, min, max, p05, p50, p95, yield;
};

McSummary summarize_mc(const analysis::McStatistics& st) {
  const double med = st.percentile(0.5);
  std::size_t pass = 0;
  for (double s : st.samples) pass += std::abs(s - med) <= kYieldBudgetVolts;
  return {st.mean, st.sigma, st.min, st.max, st.percentile(0.05), med,
          st.percentile(0.95), static_cast<double>(pass) / static_cast<double>(st.count())};
}

constexpr const char* kMcFields[] = {"mean", "sigma", "min", "max", "p05", "p50", "p95", "yield"};

std::vector<double> mc_values(const McSummary& s) {
  return {s.mean, s.sigma, s.min, s.max, s.p05, s.p50, s.p95, s.yield};
}

class SweepWorkload final : public Workload {
 public:
  void prepare(const Options& opt) override {
    variant_ = variant_of(opt.seed);
    levels_ = analysis::level_grid(-70.0, 0.0, 5.0);
    cfg_.clock_hz = 2.45e6;
    cfg_.tone_hz = 2e3;
    cfg_.band_hz = 2.45e6 / (2.0 * 128.0);  // OSR 128
    cfg_.fft_points = 1 << 15;
    mc_ = analysis::delay_line_mismatch_workload(kMcStages, kMcSigma);
    if (opt.write_references) return;
    const serve::Json doc = read_json(opt.ref_dir + "/sweep_yield.json");
    const serve::Json& v = doc.find("variants")->items().at(static_cast<std::size_t>(variant_));
    ref_dr_plain_ = v.find("dr_plain_db")->as_number();
    ref_dr_chop_ = v.find("dr_chopper_db")->as_number();
    for (const char* f : kMcFields) ref_mc_.push_back(v.find("mc")->find(f)->as_number());
  }

  std::string dump_inputs() const override {
    std::ostringstream os;
    os.precision(17);
    os << "sweep_yield variant=" << variant_ << " levels_db=";
    for (double l : levels_) os << l << ",";
    os << " plain_seed0=" << plain_seed0() << " chopper_seed0=" << chop_seed0()
       << " fft=" << cfg_.fft_points << " band_hz=" << cfg_.band_hz
       << " mc_stages=" << kMcStages << " mc_trials=" << kMcTrials
       << " mc_sigma=" << kMcSigma << " mc_seed0=" << mc_seed0() << "\n";
    return os.str();
  }

  void round(RunReport& r, Tracer* t) override {
    r.setup_s.push_back(restart_pool(t));

    const auto t_sweep = Clock::now();
    const double dr_plain = sweep(false, t);
    const double dr_chop = sweep(true, t);
    const double sweep_s = seconds_since(t_sweep);
    r.latency_ms.push_back(sweep_s * 1e3);
    r.samples["sweep_wall_ms"].push_back(sweep_s * 1e3);
    r.samples["dr_plain_db"].push_back(dr_plain);
    r.samples["dr_chopper_db"].push_back(dr_chop);
    r.check.expect(std::abs(dr_plain - ref_dr_plain_) <= kDrToleranceDb,
                   "Fig. 7 plain DR " + fmt6(dr_plain) + " dB, reference " + fmt6(ref_dr_plain_));
    r.check.expect(std::abs(dr_chop - ref_dr_chop_) <= kDrToleranceDb,
                   "Fig. 7 chopper DR " + fmt6(dr_chop) + " dB, reference " + fmt6(ref_dr_chop_));

    const auto t_mc = Clock::now();
    const McSummary mc = run_mc(t);
    r.unit_s.push_back(seconds_since(t_mc) / kMcTrials);
    const std::vector<double> got = mc_values(mc);
    std::string bad;
    for (std::size_t i = 0; i < got.size() && bad.empty(); ++i)
      if (got[i] != ref_mc_[i])
        bad = std::string(kMcFields[i]) + " " + std::to_string(got[i]) + " != " +
              std::to_string(ref_mc_[i]);
    r.check.expect(bad.empty(), "MC statistics not bit-identical: " + bad);
  }

  void summarize(RunReport& r) const override {
    r.detail.push_back({"sweep_s", fast(r.latency_ms) * 1e-3, "s", "lower"});
    r.detail.push_back({"mc_trials_per_s", 1.0 / fast(r.unit_s), "trials/s", "higher"});
    // The model's error against the paper (printed beside it, not gated).
    const double plain = median(r.samples.at("dr_plain_db"));
    const double chop = median(r.samples.at("dr_chopper_db"));
    r.detail.push_back({"fig7_dr_plain_db", plain, "dB", "higher"});
    r.detail.push_back({"fig7_dr_chopper_db", chop, "dB", "higher"});
    r.detail.push_back({"fig7_dr_plain_vs_paper_db", plain - kPaperDrDb, "dB", "higher"});
    r.detail.push_back({"fig7_dr_bits", (plain - 1.76) / 6.02, "bits", "higher"});
  }

  void layers(RunReport& r, const Tracer& t, int) const override {
    auto& L = r.layers;
    const double dsm_ms = t.total_ms("dsm.run");
    const double tone_ms = t.total_ms("analysis.run_tone_test");
    const auto tone_count = static_cast<double>(t.durations_ms("analysis.run_tone_test").size());
    const double samples = static_cast<double>(dsm_samples_.load());
    L["dsm.ns_per_sample"] = samples > 0.0 ? dsm_ms * 1e6 / samples : 0.0;
    L["dsp.spectrum_ms_per_level"] = tone_count > 0.0 ? (tone_ms - dsm_ms) / tone_count : 0.0;
    double wall_ms = 0.0;
    for (double v : r.samples.at("sweep_wall_ms")) wall_ms += v;
    const double threads = static_cast<double>(runtime::thread_count());
    L["runtime.pool_util"] = wall_ms > 0.0 ? tone_ms / (wall_ms * threads) : 0.0;
  }

  serve::Json make_reference() override {
    serve::Json variants = serve::Json::array();
    for (int v = 0; v < kVariants; ++v) {
      variant_ = v;
      serve::Json row = serve::Json::object();
      row.set("variant", v);
      row.set("dr_plain_db", sweep(false, nullptr));
      row.set("dr_chopper_db", sweep(true, nullptr));
      serve::Json mc = serve::Json::object();
      const std::vector<double> vals = mc_values(run_mc(nullptr));
      for (std::size_t i = 0; i < vals.size(); ++i) mc.set(kMcFields[i], vals[i]);
      row.set("mc", std::move(mc));
      variants.push(std::move(row));
    }
    serve::Json doc = serve::Json::object();
    doc.set("workload", "sweep_yield");
    doc.set("paper_dr_db", kPaperDrDb);
    doc.set("variants", std::move(variants));
    return doc;
  }

 private:
  std::uint64_t plain_seed0() const { return 7 + 1000 * static_cast<std::uint64_t>(variant_); }
  std::uint64_t chop_seed0() const { return 107 + 1000 * static_cast<std::uint64_t>(variant_); }
  std::uint64_t mc_seed0() const { return 17 + static_cast<std::uint64_t>(variant_); }

  /// Drops the shared pool and starts it again at the default width.
  static double restart_pool(Tracer* t) {
    runtime::set_thread_count(1);  // a different width destroys the pool
    runtime::set_thread_count(0);
    const auto t0 = Clock::now();
    {
      Tracer::Span s(t, "runtime.pool_start");
      const unsigned n = runtime::global_pool().size();
      runtime::parallel_for(n, [](std::size_t, std::size_t) {}, 1);
    }
    return seconds_since(t0);
  }

  analysis::StreamProcessor make_dut(bool chopper, std::uint64_t seed, Tracer* t) {
    return [this, chopper, seed, t](const std::vector<double>& x) {
      dsm::SiModulatorConfig mc;
      mc.chopper = chopper;
      mc.seed = seed;
      dsm::SiSigmaDeltaModulator m(mc);
      std::vector<double> y;
      {
        Tracer::Span s(t, "dsm.run");
        y = m.run(x);
      }
      if (t && t->enabled()) dsm_samples_.fetch_add(x.size(), std::memory_order_relaxed);
      for (double& v : y) v *= kFullScale;
      return y;
    };
  }

  /// One Fig. 7 sweep; returns its dynamic range.  Untraced runs call
  /// amplitude_sweep_parallel as a user would; traced runs make the same
  /// per-level calls themselves so each run_tone_test gets a span.
  double sweep(bool chopper, Tracer* t) {
    const std::uint64_t seed0 = chopper ? chop_seed0() : plain_seed0();
    if (!(t && t->enabled()))
      return analysis::amplitude_sweep_parallel(
                 [&](std::size_t k, double) { return make_dut(chopper, seed0 + k, nullptr); },
                 levels_, kFullScale, cfg_)
          .dynamic_range_db;
    const std::vector<double> sndr = runtime::parallel_map_indexed(
        levels_.size(),
        [&](std::size_t k) {
          const double amp = kFullScale * dsp::amplitude_ratio_from_db(levels_[k]);
          Tracer::Span s(t, "analysis.run_tone_test");
          return analysis::run_tone_test(make_dut(chopper, seed0 + k, t), amp, cfg_)
              .metrics.sndr_db;
        },
        /*grain=*/1);
    return dsp::dynamic_range_db(levels_, sndr);
  }

  McSummary run_mc(Tracer* t) {
    analysis::McBatchOptions mo;
    mo.seed0 = mc_seed0();
    Tracer::Span s(t, "analysis.monte_carlo_dc");
    return summarize_mc(analysis::monte_carlo_dc(kMcTrials, mc_, mo));
  }

  int variant_ = 0;
  std::vector<double> levels_;
  analysis::ToneTestConfig cfg_;
  analysis::McDcWorkload mc_;
  double ref_dr_plain_ = 0.0, ref_dr_chop_ = 0.0;
  std::vector<double> ref_mc_;
  std::atomic<std::uint64_t> dsm_samples_{0};
};

}  // namespace

std::unique_ptr<Workload> make_sweep_workload() { return std::make_unique<SweepWorkload>(); }

}  // namespace pb
