// Transistor-level transient workloads on the Table 2 modulator core.
//
//   tran_table2  8 sections (138 unknowns).  A round is the static deep
//                check (verify::analyze), a sine-input transient on the
//                monolithic engine, and a DC-hold transient on the
//                event-driven engine.
//   tran_large   64 sections (1090 unknowns), sine input, on the default
//                solver path (auto: BBD/Schur from 768 unknowns) with a
//                one-thread runtime pool: a wider pool is both slower and
//                at the mercy of whatever else the host runs.
//
// Set-up is the time from the start of the build to the transient's first
// step callback, made at t = 0 right after the DC operating point (build +
// ERC gate + pattern + DC operating point with its first factor).
#include <cmath>
#include <sstream>

#include "erc/check.hpp"
#include "runtime/parallel.hpp"
#include "si/netlists.hpp"
#include "spice/transient.hpp"
#include "verify/verify.hpp"
#include "workload.hpp"

namespace pb {

namespace {

using namespace si;
namespace nets = si::cells::netlists;

constexpr int kStepsPerPeriod = 200;
/// Event-engine latency tolerance: the setting under which the DC-hold
/// study exploits block latency (see DESIGN.md, block-latency contract).
constexpr double kEventQuiescentTol = 1e-6;
/// The event engine's documented waveform bound against monolithic.
constexpr double kEventParityVolts = 1e-5;

struct TranSpec {
  const char* name;
  int sections;
  int sine_periods;
  int sine_samples_per_period;  ///< reference sampling of the sine study
  int hold_periods;             ///< 0 = no hold study
  int hold_sample_every;        ///< reference sampling of the hold study
  bool verify;
  bool erc_gate;  ///< the large core skips ERC: its cost would hide the solver
  unsigned threads;  ///< runtime pool width; 0 = the default
};

constexpr TranSpec kTable2{"tran_table2", 8, 20, 2, 200, 5, true, true, 0};
constexpr TranSpec kLarge{"tran_large", 64, 2, 10, 0, 1, false, false, 1};

/// Seeded stimulus of one variant.  Variants differ in the sine's phase
/// and, by a few percent, in its amplitude and the held level: different
/// waveforms, but the same Newton work per step, so the seed does not
/// move the timings.
struct Stimulus {
  double sine_amp = 0.0;
  double sine_phase = 0.0;  ///< [rad]
  double hold = 0.0;
};

Stimulus stimulus_of(int variant) {
  constexpr double kPi = 3.14159265358979323846;
  return {4e-6 * (1.0 + 0.01 * variant), 2.0 * kPi * variant / kVariants,
          1e-6 * (1.0 + 0.02 * variant)};
}

struct Core {
  spice::Circuit c;
  nets::ModulatorCoreHandles h;
  double period = 0.0;
};

std::unique_ptr<Core> build_core(int sections, const Stimulus& s, bool hold) {
  auto core = std::make_unique<Core>();
  spice::Circuit& c = core->c;
  c.add<spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  core->h = nets::build_modulator_core(c, sections, opt, "mod_");
  core->period = opt.stage.pair.clock_period;
  if (hold) {
    c.add<spice::CurrentSource>("Iinp", c.ground(), core->h.in_p, s.hold);
    c.add<spice::CurrentSource>("Iinm", c.ground(), core->h.in_m, -s.hold);
  } else {
    const double f = 1.0 / (8.0 * core->period);
    c.add<spice::CurrentSource>("Iinp", c.ground(), core->h.in_p,
                                std::make_unique<spice::SineWave>(0.0, s.sine_amp, f, 0.0, s.sine_phase));
    c.add<spice::CurrentSource>("Iinm", c.ground(), core->h.in_m,
                                std::make_unique<spice::SineWave>(0.0, -s.sine_amp, f, 0.0, s.sine_phase));
  }
  return core;
}

/// Probed differential outputs sampled every `stride` steps (t = 0 skipped).
struct Probe {
  std::vector<double> p, m;
};

Probe sample(const Core& core, const spice::TransientResult& res, int stride) {
  Probe out;
  const auto& vp = res.signal("v(" + core.c.node_name(core.h.out_p) + ")");
  const auto& vm = res.signal("v(" + core.c.node_name(core.h.out_m) + ")");
  for (std::size_t i = static_cast<std::size_t>(stride); i < vp.size();
       i += static_cast<std::size_t>(stride)) {
    out.p.push_back(vp[i]);
    out.m.push_back(vm[i]);
  }
  return out;
}

serve::Json to_json(const Probe& p) {
  serve::Json j = serve::Json::object();
  serve::Json a = serve::Json::array(), b = serve::Json::array();
  for (double v : p.p) a.push(v);
  for (double v : p.m) b.push(v);
  j.set("out_p", std::move(a));
  j.set("out_m", std::move(b));
  return j;
}

Probe from_json(const serve::Json& j) {
  Probe p;
  for (const auto& v : j.find("out_p")->items()) p.p.push_back(v.as_number());
  for (const auto& v : j.find("out_m")->items()) p.m.push_back(v.as_number());
  return p;
}

/// First mismatch between a probe and its reference, or "" when they agree.
template <typename Agree>
std::string compare(const Probe& got, const Probe& ref, Agree agree) {
  if (got.p.size() != ref.p.size() || got.m.size() != ref.m.size())
    return "sample count " + std::to_string(got.p.size()) + " != " +
           std::to_string(ref.p.size());
  for (std::size_t i = 0; i < ref.p.size(); ++i) {
    if (!agree(got.p[i], ref.p[i]))
      return "out_p[" + std::to_string(i) + "] " + fmt6(got.p[i]) + " != " + fmt6(ref.p[i]);
    if (!agree(got.m[i], ref.m[i]))
      return "out_m[" + std::to_string(i) + "] " + fmt6(got.m[i]) + " != " + fmt6(ref.m[i]);
  }
  return "";
}

class TranWorkload final : public Workload {
 public:
  explicit TranWorkload(const TranSpec& spec) : spec_(spec) {}

  void prepare(const Options& opt) override {
    if (spec_.threads) runtime::set_thread_count(spec_.threads);
    variant_ = variant_of(opt.seed);
    stim_ = stimulus_of(variant_);
    if (opt.write_references) return;
    const serve::Json doc = read_json(opt.ref_dir + "/" + spec_.name + ".json");
    const serve::Json& v = doc.find("variants")->items().at(static_cast<std::size_t>(variant_));
    ref_sine_ = from_json(*v.find("sine"));
    if (spec_.hold_periods) ref_hold_ = from_json(*v.find("hold"));
    if (spec_.verify) ref_findings_ = static_cast<std::size_t>(v.find("verify_findings")->as_number());
  }

  std::string dump_inputs() const override {
    std::ostringstream os;
    os.precision(17);
    os << spec_.name << " variant=" << variant_ << " sections=" << spec_.sections
       << " sine_amp_A=" << stim_.sine_amp << " sine_phase_rad=" << stim_.sine_phase
       << " sine_periods=" << spec_.sine_periods
       << " hold_A=" << stim_.hold << " hold_periods=" << spec_.hold_periods
       << " steps_per_period=" << kStepsPerPeriod << "\n";
    return os.str();
  }

  void round(RunReport& r, Tracer* t) override {
    const auto t_round = Clock::now();
    const bool traced = t && t->enabled();
    if (spec_.verify) {
      const auto core = build_core(spec_.sections, stim_, false);
      const auto t0 = Clock::now();
      verify::VerifyResult vr;
      {
        Tracer::Span s(t, "verify.analyze");
        vr = verify::analyze(core->c);
      }
      r.samples["verify_s"].push_back(seconds_since(t0));
      r.check.expect(vr.findings.size() == ref_findings_,
                     "verify: " + std::to_string(vr.findings.size()) + " findings, reference " +
                         std::to_string(ref_findings_));
    }

    Run sine = run_sine(t, traced);
    r.setup_s.push_back(sine.setup_s);
    r.unit_s.insert(r.unit_s.end(), sine.period_s.begin(), sine.period_s.end());
    r.samples["step_us"].push_back(sine.stepping_s * 1e6 / static_cast<double>(sine.steps));
    r.samples["dc_op_ms"].push_back(sine.dc_op_s * 1e3);
    const std::string bad = compare(sine.probe, ref_sine_, parity6);
    r.check.expect(bad.empty(), "sine transient: " + bad);

    if (spec_.hold_periods) {
      Run hold = run_hold(t, spice::TransientEngine::kEvent);
      r.samples["hold_period_s"].push_back(hold.total_s / spec_.hold_periods);
      r.samples["hold_steps"].push_back(static_cast<double>(hold.steps));
      r.samples["hold_steps_skipped"].push_back(static_cast<double>(hold.steps_skipped));
      const std::string bad_hold = compare(hold.probe, ref_hold_, [](double a, double b) {
        return std::abs(a - b) <= kEventParityVolts;
      });
      r.check.expect(bad_hold.empty(), "hold transient (event engine): " + bad_hold);
    }
    r.latency_ms.push_back(seconds_since(t_round) * 1e3);
  }

  void summarize(RunReport& r) const override {
    r.detail.push_back({"tran_periods_per_s", 1.0 / fast(r.unit_s), "periods/s", "higher"});
    if (spec_.hold_periods)
      r.detail.push_back({"hold_periods_per_s", 1.0 / fast(r.samples.at("hold_period_s")),
                          "periods/s", "higher"});
    if (spec_.verify)
      r.detail.push_back({"verify_s", fast(r.samples.at("verify_s")), "s", "lower"});
  }

  void layers(RunReport& r, const Tracer& t, int) const override {
    auto& L = r.layers;
    L["si.build_ms"] = median(t.durations_ms("si.build"));
    L["erc.check_ms"] = median(t.durations_ms("erc.check"));
    L["spice.dc_op_ms"] = median(r.samples.at("dc_op_ms"));
    L["spice.tran_step_us"] = median(r.samples.at("step_us"));
    if (spec_.verify) L["verify.analyze_ms"] = median(t.durations_ms("verify.analyze"));
    if (spec_.hold_periods) {
      double steps = 0.0, skipped = 0.0;
      for (double v : r.samples.at("hold_steps")) steps += v;
      for (double v : r.samples.at("hold_steps_skipped")) skipped += v;
      L["event.steps_skipped_ratio"] = steps > 0.0 ? skipped / steps : 0.0;
    }
  }

  serve::Json make_reference() override {
    serve::Json variants = serve::Json::array();
    for (int v = 0; v < kVariants; ++v) {
      stim_ = stimulus_of(v);
      serve::Json row = serve::Json::object();
      row.set("variant", v);
      row.set("sine", to_json(run_sine(nullptr, false).probe));
      // The hold reference comes from the monolithic engine: the event
      // engine is checked against it within its documented bound.
      if (spec_.hold_periods)
        row.set("hold", to_json(run_hold(nullptr, spice::TransientEngine::kMonolithic).probe));
      if (spec_.verify)
        row.set("verify_findings",
                static_cast<double>(verify::analyze(build_core(spec_.sections, stim_, false)->c)
                                        .findings.size()));
      variants.push(std::move(row));
    }
    serve::Json doc = serve::Json::object();
    doc.set("workload", spec_.name);
    doc.set("variants", std::move(variants));
    return doc;
  }

 private:
  struct Run {
    Probe probe;
    double setup_s = 0.0;     ///< build start -> first step callback (t = 0)
    double dc_op_s = 0.0;     ///< run() -> first step callback (pattern + DC)
    double stepping_s = 0.0;  ///< first step callback -> end of run
    std::vector<double> period_s;  ///< host time of each simulated clock period
    double total_s = 0.0;
    std::uint64_t steps = 0;
    std::uint64_t steps_skipped = 0;
  };

  /// The sine study on the monolithic engine.  Traced runs time the ERC
  /// pass as a separate call (the transient's own gate is then off, so
  /// ERC still runs once).  The transient calls back first at t = 0,
  /// right after its DC operating point, so the time from run() to that
  /// call is pattern build + DC solve, with no extra solve to trace it.
  Run run_sine(Tracer* t, bool traced) {
    Run out;
    const auto t0 = Clock::now();
    std::unique_ptr<Core> core;
    {
      Tracer::Span s(t, "si.build");
      core = build_core(spec_.sections, stim_, false);
    }
    spice::TransientOptions topt;
    topt.t_stop = spec_.sine_periods * core->period;
    topt.dt = core->period / kStepsPerPeriod;
    topt.engine = spice::TransientEngine::kMonolithic;
    topt.erc_gate = spec_.erc_gate && !traced;
    if (traced && spec_.erc_gate) {
      Tracer::Span s(t, "erc.check");
      (void)erc::check(core->c);
    }
    spice::Transient tr(core->c, topt);
    tr.probe_voltage(core->c.node_name(core->h.out_p));
    tr.probe_voltage(core->c.node_name(core->h.out_m));
    // Period k's sample ends at accepted step k * kStepsPerPeriod; the
    // first one starts at the t = 0 callback.
    Clock::time_point first{}, mark{};
    std::size_t calls = 0;
    spice::TransientResult res;
    const auto t_run = Clock::now();
    {
      Tracer::Span s(t, "spice.tran");
      res = tr.run([&](double, const spice::SolutionView&) {
        const auto now = Clock::now();
        // Callback n (from 0) follows accepted step n.
        if (calls++ == 0) {
          first = mark = now;
        } else if ((calls - 1) % kStepsPerPeriod == 0) {
          out.period_s.push_back(std::chrono::duration<double>(now - mark).count());
          mark = now;
        }
      });
    }
    const auto end = Clock::now();
    out.setup_s = std::chrono::duration<double>(first - t0).count();
    out.dc_op_s = std::chrono::duration<double>(first - t_run).count();
    out.stepping_s = std::chrono::duration<double>(end - first).count();
    out.total_s = std::chrono::duration<double>(end - t0).count();
    out.steps = res.steps_accepted;
    out.probe = sample(*core, res, kStepsPerPeriod / spec_.sine_samples_per_period);
    return out;
  }

  /// The DC-hold study: the input is held, so most blocks go latent.
  Run run_hold(Tracer* t, spice::TransientEngine engine) {
    Run out;
    const auto t0 = Clock::now();
    std::unique_ptr<Core> core;
    {
      Tracer::Span s(t, "si.build");
      core = build_core(spec_.sections, stim_, true);
    }
    spice::TransientOptions topt;
    topt.t_stop = spec_.hold_periods * core->period;
    topt.dt = core->period / kStepsPerPeriod;
    topt.engine = engine;
    topt.erc_gate = spec_.erc_gate;
    topt.event_quiescent_tol = kEventQuiescentTol;
    spice::Transient tr(core->c, topt);
    tr.probe_voltage(core->c.node_name(core->h.out_p));
    tr.probe_voltage(core->c.node_name(core->h.out_m));
    spice::TransientResult res;
    {
      Tracer::Span s(t, "event.hold_tran");
      res = tr.run();
    }
    out.total_s = seconds_since(t0);
    out.steps = res.steps_accepted;
    out.steps_skipped = res.event_steps_skipped;
    out.probe = sample(*core, res, kStepsPerPeriod * spec_.hold_sample_every);
    return out;
  }

  TranSpec spec_;
  int variant_ = 0;
  Stimulus stim_;
  Probe ref_sine_, ref_hold_;
  std::size_t ref_findings_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_tran_workload(bool large) {
  return std::make_unique<TranWorkload>(large ? kLarge : kTable2);
}

}  // namespace pb
