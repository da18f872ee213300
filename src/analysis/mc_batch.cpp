#include "analysis/mc_batch.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/parallel.hpp"
#include "runtime/rng_stream.hpp"
#include "si/netlists.hpp"
#include "spice/elements.hpp"
#include "spice/mna.hpp"
#include "spice/mosfet.hpp"

namespace si::analysis {

std::size_t mc_batch_lanes(std::size_t) { return 1; }

namespace {

/// Trials per chunk when McOptions::grain is 0.
constexpr std::size_t kDefaultGrain = 8;

/// One damped Newton solve on `engine` from the nominal point into `x`;
/// false when it does not converge.
bool newton_from(spice::MnaEngine& engine, const linalg::Vector& nominal,
                 linalg::Vector& x, const spice::NewtonOptions& newton) {
  spice::StampContext ctx;
  ctx.mode = spice::AnalysisMode::kDcOperatingPoint;
  x = nominal;
  try {
    engine.newton(ctx, x, newton);
    return true;
  } catch (const spice::ConvergenceError&) {
    return false;
  }
}

/// The full gmin-stepping dc_operating_point ladder on a throwaway
/// engine: the nominal solve, and the per-trial last resort.
linalg::Vector ladder_solve(spice::Circuit& c,
                            const spice::NewtonOptions& newton) {
  spice::DcOptions dopt;
  dopt.newton = newton;
  dopt.erc_gate = false;
  return spice::dc_operating_point(c, dopt).x;
}

// One worker execution context: circuit, trial functors, and an engine
// primed by one Newton solve of the pristine circuit from the nominal
// point, so its only pivoting factor is that of the nominal
// first-iteration matrix.  An unprimed context (no nominal, or the
// priming solve failed) sends every trial to the ladder.  Heap-allocated
// and never moved — the engine holds a reference to the circuit next to
// it.
struct TrialContext {
  TrialContext(const McDcWorkload& w, const linalg::Vector& nominal)
      : fns(w.build(c)),
        engine(c),
        primed(!nominal.empty() && newton_from(engine, nominal, x, w.newton)),
        primed_factors(engine.stats().symbolic_factors) {}

  spice::Circuit c;
  McDcTrialFns fns;
  spice::MnaEngine engine;
  linalg::Vector x;
  bool primed;
  std::uint64_t primed_factors;
};

std::vector<double> run_dc_trials(int runs, const McDcWorkload& w,
                                  const McOptions& opts) {
  const std::size_t n = static_cast<std::size_t>(runs);
  std::vector<double> samples(n);

  // The nominal gmin-ladder solve is a pure function of the pristine
  // build, so run it once here and hand it to every context instead of
  // paying one ladder per worker.  If the nominal itself cannot
  // converge, leave it empty: every trial then takes the ladder.
  linalg::Vector nominal;
  try {
    spice::Circuit proto;
    (void)w.build(proto);
    nominal = ladder_solve(proto, w.newton);
  } catch (const spice::ConvergenceError&) {
    nominal.clear();
  }

  // Contexts are pooled and reused across chunks, so building and
  // priming one runs once per *concurrent worker*, not once per chunk.
  // Context identity cannot affect results: every context primes the
  // same engine from the same pristine build(), and every trial is a
  // pure function of its seed.
  std::mutex ctx_mu;
  std::vector<std::unique_ptr<TrialContext>> ctx_pool;
  auto acquire = [&]() -> std::unique_ptr<TrialContext> {
    {
      const std::lock_guard<std::mutex> lock(ctx_mu);
      if (!ctx_pool.empty()) {
        auto t = std::move(ctx_pool.back());
        ctx_pool.pop_back();
        return t;
      }
    }
    return std::make_unique<TrialContext>(w, nominal);
  };

  auto body = [&](std::size_t begin, std::size_t end) {
    auto t = acquire();
    for (std::size_t k = begin; k < end; ++k) {
      t->fns.apply(runtime::trial_seed(opts.seed0, k));
      // The ladder runs on its own engine and leaves the context's alone.
      if (!(t->primed && newton_from(t->engine, nominal, t->x, w.newton)))
        t->x = ladder_solve(t->c, w.newton);
      samples[k] = t->fns.measure(spice::SolutionView(t->c, t->x));

      // Rebuild rule: a re-pivot or a pattern miss left a factor of this
      // trial's own values in the engine.  The next trial must see only
      // the nominal factor, or its sample would depend on which trials
      // ran before it in this context.
      if (t->engine.stats().symbolic_factors != t->primed_factors)
        t = std::make_unique<TrialContext>(w, nominal);
    }

    const std::lock_guard<std::mutex> lock(ctx_mu);
    ctx_pool.push_back(std::move(t));
  };

  // Chunk boundaries cannot change results: every trial is a pure
  // function of its seed.
  const std::size_t grain = opts.grain > 0 ? opts.grain : kDefaultGrain;
  if (opts.parallel)
    runtime::parallel_for(n, body, grain);
  else
    body(0, n);

  std::sort(samples.begin(), samples.end());
  return samples;
}

}  // namespace

McStatistics monte_carlo_dc(int runs, const McDcWorkload& workload,
                            const McOptions& opts) {
  if (runs < 1) throw std::invalid_argument("monte_carlo_dc: runs >= 1");
  return detail::aggregate_sorted(run_dc_trials(runs, workload, opts));
}

namespace {

// Shared draw applier: snapshot every MOSFET's nominal parameters once
// at build time, then perturb kp / Vt0 per trial; apply() runs
// allocation-free and is a pure function of the seed.
std::function<void(std::uint64_t)> mosfet_mismatch_apply(spice::Circuit& c,
                                                         double sigma) {
  std::vector<std::pair<spice::Mosfet*, spice::MosfetParams>> devices;
  for (const auto& e : c.elements())
    if (auto* m = dynamic_cast<spice::Mosfet*>(e.get()))
      devices.emplace_back(m, m->params());
  return [devices = std::move(devices), sigma](std::uint64_t seed) {
    runtime::RngStream rng(seed);
    for (const auto& [mos, nominal] : devices) {
      spice::MosfetParams p = nominal;
      p.kp = nominal.kp * std::max(0.1, 1.0 + sigma * rng.normal());
      p.vt0 = nominal.vt0 * (1.0 + sigma * rng.normal());
      mos->set_params(p);
    }
  };
}

}  // namespace

McDcWorkload modulator_mismatch_workload(int sections, double sigma) {
  McDcWorkload w;
  w.build = [sections, sigma](spice::Circuit& c) {
    c.add<spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    cells::netlists::ModulatorCoreOptions mopt;
    const auto h =
        cells::netlists::build_modulator_core(c, sections, mopt, "mod_");
    c.add<spice::CurrentSource>("Iinp", c.ground(), h.in_p, 1e-6);
    c.add<spice::CurrentSource>("Iinm", c.ground(), h.in_m, -1e-6);

    McDcTrialFns fns;
    fns.apply = mosfet_mismatch_apply(c, sigma);
    const auto out_p = h.out_p;
    const auto out_m = h.out_m;
    fns.measure = [out_p, out_m](const spice::SolutionView& sol) {
      return sol.voltage(out_p) - sol.voltage(out_m);
    };
    return fns;
  };
  return w;
}

McDcWorkload delay_line_mismatch_workload(int stages, double sigma) {
  McDcWorkload w;
  w.build = [stages, sigma](spice::Circuit& c) {
    c.add<spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    cells::netlists::DelayStageOptions dopt;
    const auto h =
        cells::netlists::build_delay_line_chain(c, stages, dopt, "dl_");
    c.add<spice::CurrentSource>("Iin", c.ground(), h.in, 5e-6);

    McDcTrialFns fns;
    fns.apply = mosfet_mismatch_apply(c, sigma);
    const auto out = h.out;
    fns.measure = [out](const spice::SolutionView& sol) {
      return sol.voltage(out);
    };
    return fns;
  };
  return w;
}

}  // namespace si::analysis
