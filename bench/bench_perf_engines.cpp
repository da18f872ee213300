// P1: engine microbenchmarks (google-benchmark) — the computational
// substrate costs: FFT, MNA factor/solve, transient stepping, behavioral
// modulator and delay-line throughput.
#include <benchmark/benchmark.h>

#include "analysis/mc_batch.hpp"
#include "analysis/monte_carlo.hpp"
#include "dsm/adc.hpp"
#include "dsm/modulator.hpp"
#include "obs/telemetry.hpp"
#include "runtime/parallel.hpp"
#include "runtime/result_cache.hpp"
#include "dsp/fft.hpp"
#include "dsp/signal.hpp"
#include "dsp/spectrum.hpp"
#include "linalg/lu.hpp"
#include "serve/json.hpp"
#include "si/delay_line.hpp"
#include "si/filter.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/transient.hpp"
#include "verify/verify.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace {

void BM_Fft64k(benchmark::State& state) {
  const auto x = si::dsp::white_noise(1 << 16, 1.0, 1);
  std::vector<si::dsp::cplx> buf(x.begin(), x.end());
  for (auto _ : state) {
    auto y = buf;
    si::dsp::fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Fft64k);

void BM_PowerSpectrum64k(benchmark::State& state) {
  const auto x = si::dsp::white_noise(1 << 16, 1.0, 2);
  for (auto _ : state) {
    auto s = si::dsp::compute_power_spectrum(x, 1.0);
    benchmark::DoNotOptimize(s.power.data());
  }
}
BENCHMARK(BM_PowerSpectrum64k);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  si::dsp::Xoshiro256 rng(3);
  si::linalg::Matrix a(n, n);
  si::linalg::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.normal();
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    a(i, i) += 8.0;
  }
  for (auto _ : state) {
    si::linalg::LuFactorization<double> lu(a);
    auto x = lu.solve(b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LuSolve)->Arg(16)->Arg(64)->Arg(128);

void BM_MemoryPairDcOp(benchmark::State& state) {
  for (auto _ : state) {
    si::spice::Circuit c;
    c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    si::cells::netlists::MemoryPairOptions opt;
    si::cells::netlists::build_class_ab_memory_pair(c, opt, "m_");
    auto r = si::spice::dc_operating_point(c);
    benchmark::DoNotOptimize(r.x.data());
  }
}
BENCHMARK(BM_MemoryPairDcOp);

void BM_TransientClockPeriod(benchmark::State& state) {
  for (auto _ : state) {
    si::spice::Circuit c;
    c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    si::cells::netlists::MemoryPairOptions opt;
    si::cells::netlists::build_class_ab_memory_pair(c, opt, "m_");
    si::spice::TransientOptions topt;
    topt.t_stop = opt.clock_period;
    topt.dt = opt.clock_period / 500.0;
    si::spice::Transient tr(c, topt);
    auto res = tr.run();
    benchmark::DoNotOptimize(res.time.data());
  }
}
BENCHMARK(BM_TransientClockPeriod);

void BM_SiModulatorSamples(benchmark::State& state) {
  si::dsm::SiModulatorConfig cfg;
  si::dsm::SiSigmaDeltaModulator m(cfg);
  const auto x = si::dsp::sine(4096, 3e-6, 0.001, 1.0);
  for (auto _ : state) {
    for (double v : x) benchmark::DoNotOptimize(m.step(v));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_SiModulatorSamples);

void BM_DelayLineSamples(benchmark::State& state) {
  si::cells::DelayLineConfig cfg;
  si::cells::DelayLine line(cfg);
  const auto x = si::dsp::sine(4096, 8e-6, 0.001, 1.0);
  for (auto _ : state) {
    for (double v : x)
      benchmark::DoNotOptimize(
          line.process(si::cells::Diff::from_dm_cm(v, 0.0)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_DelayLineSamples);

void BM_BiquadSamples(benchmark::State& state) {
  si::cells::SiBiquadConfig cfg;
  si::cells::SiBiquad f(cfg);
  const auto x = si::dsp::sine(4096, 1e-6, 0.001, 1.0);
  for (auto _ : state) {
    for (double v : x)
      benchmark::DoNotOptimize(f.step(si::cells::Diff::from_dm_cm(v, 0.0)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_BiquadSamples);

void BM_AdcConvert(benchmark::State& state) {
  si::dsm::SiAdcConfig cfg;
  si::dsm::SiAdc adc(cfg);
  const auto x = si::dsp::sine(4096, 3e-6, 0.001, 1.0);
  for (auto _ : state) {
    auto pcm = adc.convert(x);
    benchmark::DoNotOptimize(pcm.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_AdcConvert);

// One Monte-Carlo trial of realistic cost: a mismatch-seeded modulator
// over 2048 samples.  Used by the runtime scaling benchmarks below.
double mc_modulator_trial(std::uint64_t seed) {
  si::dsm::SiModulatorConfig cfg;
  cfg.seed = seed;
  si::dsm::SiSigmaDeltaModulator m(cfg);
  double acc = 0.0;
  for (int k = 0; k < 2048; ++k) acc += m.step(1e-6);
  return acc;
}

// Serial reference: the pre-runtime single-core loop.
void BM_MonteCarloSerial(benchmark::State& state) {
  const int runs = static_cast<int>(state.range(0));
  si::analysis::McOptions opts;
  opts.parallel = false;
  for (auto _ : state) {
    auto st = si::analysis::monte_carlo(runs, mc_modulator_trial, opts);
    benchmark::DoNotOptimize(st.samples.data());
  }
  state.SetItemsProcessed(state.iterations() * runs);
}
BENCHMARK(BM_MonteCarloSerial)->Arg(64)->UseRealTime();

// Same workload through the work-stealing pool at 1/2/4/8 threads —
// near-linear scaling up to the physical core count, bit-identical
// samples at every width.
void BM_MonteCarloParallel(benchmark::State& state) {
  const int runs = 64;
  si::runtime::set_thread_count(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto st = si::analysis::monte_carlo(runs, mc_modulator_trial, 1);
    benchmark::DoNotOptimize(st.samples.data());
  }
  state.SetItemsProcessed(state.iterations() * runs);
  si::runtime::set_thread_count(0);  // back to env/hardware default
}
BENCHMARK(BM_MonteCarloParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Content-addressed caching: every iteration after the first is served
// from the shared series cache without running a single trial.
void BM_MonteCarloCached(benchmark::State& state) {
  const int runs = 64;
  si::analysis::McOptions opts;
  opts.cache_key =
      si::runtime::Fnv1a().str("perf.mc_modulator_trial").u64(2048).digest();
  for (auto _ : state) {
    auto st = si::analysis::monte_carlo(runs, mc_modulator_trial, opts);
    benchmark::DoNotOptimize(st.samples.data());
  }
  state.SetItemsProcessed(state.iterations() * runs);
}
BENCHMARK(BM_MonteCarloCached)->UseRealTime();

// ---------------------------------------------------------------------------
// Static verification (src/verify/) throughput: interval abstract
// interpretation + property checkers over the Table 2 modulator core at
// growing section counts.  The whole-deck analysis must stay well under
// interactive latency (the quick gate below holds the largest netlist
// to 100 ms).
// ---------------------------------------------------------------------------

si::spice::Circuit build_verify_modulator(int sections) {
  namespace nets = si::cells::netlists;
  si::spice::Circuit c;
  c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  const auto h = nets::build_modulator_core(c, sections, opt, "mod_");
  c.add<si::spice::CurrentSource>("Iinp", c.ground(), h.in_p, 1e-6);
  c.add<si::spice::CurrentSource>("Iinm", c.ground(), h.in_m, -1e-6);
  return c;
}

void BM_VerifyModulator(benchmark::State& state) {
  const auto c = build_verify_modulator(static_cast<int>(state.range(0)));
  std::size_t nodes = 0;
  for (auto _ : state) {
    auto r = si::verify::analyze(c);
    nodes = r.stats.nodes;
    benchmark::DoNotOptimize(r.findings.data());
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_VerifyModulator)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Transient benchmarks on the paper's two transistor-level workloads: the
// Table 1 delay-line chain and the Table 2 modulator core.
// ---------------------------------------------------------------------------

/// Builds and runs a Table 1 delay-line chain transient; returns the
/// system size.
std::size_t run_chain_transient(int n_stages, double periods) {
  namespace nets = si::cells::netlists;
  si::spice::Circuit c;
  c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::DelayStageOptions opt;
  const auto h = nets::build_delay_line_chain(c, n_stages, opt, "dl_");
  const double T = opt.pair.clock_period;
  c.add<si::spice::CurrentSource>(
      "Iin", c.ground(), h.in,
      std::make_unique<si::spice::SineWave>(0.0, 5e-6, 1.0 / (8.0 * T)));
  si::spice::TransientOptions topt;
  topt.t_stop = periods * T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;
  si::spice::Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out));
  auto r = tr.run();
  benchmark::DoNotOptimize(r.time.data());
  return c.system_size();
}

/// Builds and runs a Table 2 modulator-core transient; returns the
/// system size.
std::size_t run_modulator_transient(int sections, double periods) {
  namespace nets = si::cells::netlists;
  si::spice::Circuit c;
  c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  const auto h = nets::build_modulator_core(c, sections, opt, "mod_");
  const double T = opt.stage.pair.clock_period;
  c.add<si::spice::CurrentSource>(
      "Iinp", c.ground(), h.in_p,
      std::make_unique<si::spice::SineWave>(0.0, 4e-6, 1.0 / (8.0 * T)));
  c.add<si::spice::CurrentSource>(
      "Iinm", c.ground(), h.in_m,
      std::make_unique<si::spice::SineWave>(0.0, -4e-6, 1.0 / (8.0 * T)));
  si::spice::TransientOptions topt;
  topt.t_stop = periods * T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;
  si::spice::Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out_p));
  auto r = tr.run();
  benchmark::DoNotOptimize(r.time.data());
  return c.system_size();
}

void BM_SolverChainTransient(benchmark::State& state) {
  std::size_t n = 0;
  for (auto _ : state) n = run_chain_transient(static_cast<int>(state.range(0)), 1.0);
  state.counters["unknowns"] = static_cast<double>(n);
}
BENCHMARK(BM_SolverChainTransient)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SolverModulatorTransient(benchmark::State& state) {
  std::size_t n = 0;
  for (auto _ : state)
    n = run_modulator_transient(static_cast<int>(state.range(0)), 0.5);
  state.counters["unknowns"] = static_cast<double>(n);
}
BENCHMARK(BM_SolverModulatorTransient)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --quick mode: hand-timed rows written to BENCH_solvers.json, each
// section with a gate checked in the same run.  Used by the CI benchmark
// smoke lane.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Event-vs-monolithic engine rows.  Two workload families:
//  * event_modulator_sweep — the OSR-64 modulator (input sine at
//    f_clk / 128) across sizes; the event engine must not lose to the
//    monolithic engine and the waveforms must agree.
//  * event_modulator_hold  — a long-horizon (>= 1e4 clock periods) DC-hold
//    modulator transient, the latency-exploitation headline: once the
//    periodic steady state is reached, re-sampled values match the held
//    ones, blocks latch latent, and whole steps are skipped.
// Both run with event_quiescent_tol = 1e-6, the documented latency-
// exploitation setting (see DESIGN.md, "Block-latency contract").
// ---------------------------------------------------------------------------

struct EventRow {
  std::string workload;
  int size = 0;
  double periods = 0.0;
  std::size_t unknowns = 0;
  double mono_ms = 0.0;
  double event_ms = 0.0;
  double latency_ratio = 0.0;
  std::uint64_t steps_skipped = 0;
  std::uint64_t steps_total = 0;
  double parity_maxerr = 0.0;
};

si::spice::TransientResult run_modulator_engine(
    int sections, double periods, bool dc_hold,
    si::spice::TransientEngine engine, std::size_t* unknowns) {
  namespace nets = si::cells::netlists;
  si::spice::Circuit c;
  c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  const auto h = nets::build_modulator_core(c, sections, opt, "mod_");
  const double T = opt.stage.pair.clock_period;
  if (dc_hold) {
    c.add<si::spice::CurrentSource>("Iinp", c.ground(), h.in_p, 1e-6);
    c.add<si::spice::CurrentSource>("Iinm", c.ground(), h.in_m, -1e-6);
  } else {
    // OSR-64 stimulus: input sine at f_clk / (2 * 64).
    c.add<si::spice::CurrentSource>(
        "Iinp", c.ground(), h.in_p,
        std::make_unique<si::spice::SineWave>(0.0, 4e-6, 1.0 / (128.0 * T)));
    c.add<si::spice::CurrentSource>(
        "Iinm", c.ground(), h.in_m,
        std::make_unique<si::spice::SineWave>(0.0, -4e-6, 1.0 / (128.0 * T)));
  }
  si::spice::TransientOptions topt;
  topt.t_stop = periods * T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;
  topt.engine = engine;
  topt.event_quiescent_tol = 1e-6;
  si::spice::Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out_p));
  tr.probe_voltage(c.node_name(h.out_m));
  *unknowns = c.system_size();
  return tr.run();
}

EventRow time_event_row(const std::string& workload, int sections,
                        double periods, bool dc_hold, int reps) {
  EventRow r;
  r.workload = workload;
  r.size = sections;
  r.periods = periods;
  si::spice::TransientResult mono, ev;
  double best_m = 1e300;
  double best_e = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    mono = run_modulator_engine(sections, periods, dc_hold,
                                si::spice::TransientEngine::kMonolithic,
                                &r.unknowns);
    auto t1 = std::chrono::steady_clock::now();
    ev = run_modulator_engine(sections, periods, dc_hold,
                              si::spice::TransientEngine::kEvent, &r.unknowns);
    auto t2 = std::chrono::steady_clock::now();
    best_m = std::min(
        best_m, std::chrono::duration<double, std::milli>(t1 - t0).count());
    best_e = std::min(
        best_e, std::chrono::duration<double, std::milli>(t2 - t1).count());
  }
  r.mono_ms = best_m;
  r.event_ms = best_e;
  const double block_events =
      static_cast<double>(ev.event_block_solves + ev.event_block_skips);
  r.latency_ratio = block_events > 0.0
                        ? static_cast<double>(ev.event_block_skips) /
                              block_events
                        : 0.0;
  r.steps_skipped = ev.event_steps_skipped;
  r.steps_total = mono.steps_accepted;
  for (const auto& [label, mv] : mono.signals) {
    const auto& evv = ev.signal(label);
    for (std::size_t k = 0; k < mv.size(); ++k)
      r.parity_maxerr = std::max(r.parity_maxerr, std::abs(mv[k] - evv[k]));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Monte-Carlo DC rows: trials/sec of the mismatch-offset DC ensemble
// (analysis::modulator_mismatch_workload) on the Table 2 modulator
// core, two ways —
//  * rebuild_tps — the per-trial path: every trial builds its own
//    circuit and runs the full gmin-stepping ladder cold;
//  * scalar_tps  — monte_carlo_dc: structure-shared solves on pooled
//    engines primed with the nominal symbolic factorization.
// ---------------------------------------------------------------------------

struct McDcRow {
  int size = 0;
  std::size_t unknowns = 0;
  int runs = 0;
  unsigned threads = 0;
  double rebuild_tps = 0.0;
  double scalar_tps = 0.0;
};

double time_once(const std::function<void()>& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

McDcRow time_mc_dc_row(int sections, unsigned threads, int runs) {
  McDcRow r;
  r.size = sections;
  r.runs = runs;
  r.threads = threads;
  const auto w = si::analysis::modulator_mismatch_workload(sections);
  {
    si::spice::Circuit c;
    (void)w.build(c);
    r.unknowns = c.system_size();
  }
  auto rebuild = [&] {
    auto st = si::analysis::monte_carlo(
        runs,
        [&w](std::uint64_t seed) {
          si::spice::Circuit c;
          auto fns = w.build(c);
          fns.apply(seed);
          si::spice::DcOptions dopt;
          dopt.newton = w.newton;
          dopt.erc_gate = false;
          const auto dc = si::spice::dc_operating_point(c, dopt);
          return fns.measure(si::spice::SolutionView(c, dc.x));
        },
        si::analysis::McOptions{});
    benchmark::DoNotOptimize(st.samples.data());
  };
  auto scalar = [&] {
    auto st = si::analysis::monte_carlo_dc(runs, w);
    benchmark::DoNotOptimize(st.samples.data());
  };

  si::runtime::set_thread_count(threads);
  rebuild();  // warm-up: thread pool, allocator, result layouts
  scalar();
  // The two paths are timed INTERLEAVED, best-of-3 each: a host-wide
  // slowdown (shared machine, CPU quota) then hits both about equally
  // and the gated ratio stays meaningful.
  double tr = 1e300, ts = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    tr = std::min(tr, time_once(rebuild));
    ts = std::min(ts, time_once(scalar));
  }
  r.rebuild_tps = static_cast<double>(runs) / tr;
  r.scalar_tps = static_cast<double>(runs) / ts;
  si::runtime::set_thread_count(0);
  return r;
}

// ---------------------------------------------------------------------------
// Sparse factor scaling rows: the SOLVER PATH of the Table 2 modulator
// core — one pivoting factorization, then kRefactorCycles numeric
// refactors and kRefactorCycles solves — on the transient-mode Jacobian
// assembled at the DC operating point, the exact system the engines
// refactor every Newton iteration of a transient.  SparseLu is serial,
// so the rows and the gate are independent of the host's core count.
// Gate: the pivoting factor scales with fill, not n^2 — one doubling of
// the core (64 -> 128 sections) may cost at most 3x.  Each row carries
// its host stamp (nproc, compiler, build type, commit).
// ---------------------------------------------------------------------------

/// Refactor/solve cycles per timed rep: transient-representative (the
/// quick-suite transients run 100-200 accepted steps per topology).
constexpr int kRefactorCycles = 120;

struct SparseFactorRow {
  int sections = 0;
  std::size_t unknowns = 0;
  std::size_t nnz = 0;
  std::size_t factor_nnz = 0;
  double factor_ms = 0.0;
  double refactor_ms = 0.0;  ///< kRefactorCycles refactors
  double solve_ms = 0.0;     ///< kRefactorCycles solves
};

/// The transient-mode MNA Jacobian of a Table 2 modulator core
/// (`modulator`, `size` sections) or a Table 1 delay line (`size`
/// stages) at its DC operating point, plus its RHS.
struct SolverPathSystem {
  std::size_t unknowns = 0;
  std::shared_ptr<const si::linalg::SparsePattern> pattern;
  si::linalg::SparseMatrixD a;
  std::vector<double> b;
};

/// Builds the Table 2 modulator core (`modulator`, `size` sections) or
/// the Table 1 delay line (`size` stages) with its sine input into `c`;
/// returns the clock period.
double build_solver_path_circuit(si::spice::Circuit& c, bool modulator,
                                 int size) {
  namespace nets = si::cells::netlists;
  c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  double T = 0.0;
  if (modulator) {
    nets::ModulatorCoreOptions opt;
    const auto h = nets::build_modulator_core(c, size, opt, "mod_");
    T = opt.stage.pair.clock_period;
    c.add<si::spice::CurrentSource>(
        "Iinp", c.ground(), h.in_p,
        std::make_unique<si::spice::SineWave>(0.0, 4e-6, 1.0 / (8.0 * T)));
    c.add<si::spice::CurrentSource>(
        "Iinm", c.ground(), h.in_m,
        std::make_unique<si::spice::SineWave>(0.0, -4e-6, 1.0 / (8.0 * T)));
  } else {
    nets::DelayStageOptions opt;
    const auto h = nets::build_delay_line_chain(c, size, opt, "dl_");
    T = opt.pair.clock_period;
    c.add<si::spice::CurrentSource>(
        "Iin", c.ground(), h.in,
        std::make_unique<si::spice::SineWave>(0.0, 5e-6, 1.0 / (8.0 * T)));
  }
  c.finalize();
  return T;
}

SolverPathSystem assemble_solver_path(bool modulator, int size) {
  si::spice::Circuit c;
  const double T = build_solver_path_circuit(c, modulator, size);
  SolverPathSystem sys;
  sys.unknowns = c.system_size();
  const auto n = sys.unknowns;
  si::spice::DcOptions dopt;
  dopt.erc_gate = false;
  const auto dc = si::spice::dc_operating_point(c, dopt);
  si::spice::StampContext ctx;
  ctx.mode = si::spice::AnalysisMode::kTransient;
  ctx.time = 0.0;
  ctx.dt = T / 200.0;
  si::linalg::Vector b(n);
  si::linalg::PatternBuilder pb(static_cast<int>(n));
  {
    si::spice::RealStamper rec(c, pb, b, dc.x);
    for (const auto& e : c.elements()) e->stamp(rec, ctx);
  }
  sys.pattern = pb.build(true);
  sys.a = si::linalg::SparseMatrixD(sys.pattern);
  b.assign(n, 0.0);
  {
    si::spice::RealStamper rs(c, sys.a, b, dc.x);
    for (const auto& e : c.elements()) e->stamp(rs, ctx);
  }
  // gmin on the diagonal, like the engine's baseline stamp.
  for (std::size_t i = 0; i < n; ++i)
    sys.a.values()[static_cast<std::size_t>(sys.pattern->diag_slots()[i])] +=
        ctx.gmin;
  sys.b.resize(n);
  for (std::size_t i = 0; i < n; ++i) sys.b[i] = b[i];
  return sys;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

SparseFactorRow time_sparse_factor_row(int sections) {
  SparseFactorRow r;
  r.sections = sections;
  const auto sys = assemble_solver_path(/*modulator=*/true, sections);
  r.unknowns = sys.unknowns;
  r.nnz = sys.pattern->nnz();
  r.factor_ms = r.refactor_ms = r.solve_ms = 1e300;
  std::vector<double> x;
  for (int rep = 0; rep < 5; ++rep) {  // best-of: rep 0 absorbs warm-up
    si::linalg::SparseLuD lu;
    auto t0 = std::chrono::steady_clock::now();
    lu.factor(sys.a);
    r.factor_ms = std::min(r.factor_ms, ms_since(t0));
    t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < kRefactorCycles; ++k) lu.refactor(sys.a);
    r.refactor_ms = std::min(r.refactor_ms, ms_since(t0));
    t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < kRefactorCycles; ++k) lu.solve(sys.b, x);
    r.solve_ms = std::min(r.solve_ms, ms_since(t0));
    benchmark::DoNotOptimize(x.data());
    r.factor_nnz = lu.factor_nnz();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Assembly rows: one Newton iteration of the modulator core's transient
// solve, split into its phases and driven through spice::MnaSystem the
// way the engines drive it, at the DC operating point:
//  * baseline stamp — zero, stamp the linear elements, add gmin;
//  * restamp        — copy the baseline, then restamp every nonlinear
//                     device through the slot memo (device_stamp_ns is
//                     the device part per device);
//  * refactor, solve — numeric refactor over the frozen pattern and the
//                     triangular solves.
// Each phase is the best over reps of its mean per iteration.  Serial
// code.  Recorded, not gated: the end-to-end benchmark under perfbench/
// measures what these phases add up to in a transient.
// ---------------------------------------------------------------------------

constexpr int kAssemblyIterations = 200;

struct AssemblyRow {
  int sections = 0;
  std::size_t unknowns = 0;
  std::size_t devices = 0;  ///< nonlinear elements restamped per iteration
  double baseline_us = 0.0;
  double restamp_us = 0.0;
  double device_stamp_ns = 0.0;
  double refactor_us = 0.0;
  double solve_us = 0.0;
};

AssemblyRow time_assembly_row(int sections) {
  namespace sp = si::spice;
  using Clock = std::chrono::steady_clock;
  AssemblyRow r;
  r.sections = sections;
  sp::Circuit c;
  const double T = build_solver_path_circuit(c, /*modulator=*/true, sections);
  const std::size_t n = c.system_size();
  r.unknowns = n;
  sp::DcOptions dopt;
  dopt.erc_gate = false;
  const si::linalg::Vector x = sp::dc_operating_point(c, dopt).x;
  sp::StampContext ctx;
  ctx.mode = sp::AnalysisMode::kTransient;
  ctx.dt = T / 200.0;
  std::vector<sp::Element*> linear, nonlinear;
  for (const auto& e : c.elements())
    (e->nonlinear() ? nonlinear : linear).push_back(e.get());
  r.devices = nonlinear.size();
  sp::MnaSystem<double> sys(/*report=*/false);
  sys.reset(c, ctx, linear, nonlinear);
  si::linalg::Vector b0(n, 0.0), b(n, 0.0), x_new;
  auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count() /
           kAssemblyIterations;
  };
  r.baseline_us = r.restamp_us = r.refactor_us = r.solve_us = 1e300;
  r.device_stamp_ns = 1e300;
  for (int rep = 0; rep < 5; ++rep) {  // best-of: rep 0 absorbs warm-up
    Clock::duration base{}, restamp{}, devices{}, refactor{}, solve{};
    for (int it = 0; it < kAssemblyIterations; ++it) {
      const auto t0 = Clock::now();
      b0.assign(n, 0.0);
      {
        sp::RealStamper s = sys.baseline_stamper(c, b0, x);
        for (sp::Element* e : linear) e->stamp(s, ctx);
      }
      sys.add_diagonal(c.node_count() - 1, ctx.gmin);
      const auto t1 = Clock::now();
      b = b0;
      sp::RealStamper s = sys.iteration_stamper(c, b, x);
      const auto t2 = Clock::now();
      for (sp::Element* e : nonlinear) e->stamp(s, ctx);
      const auto t3 = Clock::now();
      sys.factor();
      const auto t4 = Clock::now();
      sys.solve(b, x_new);
      const auto t5 = Clock::now();
      base += t1 - t0;
      restamp += t3 - t1;
      devices += t3 - t2;
      refactor += t4 - t3;
      solve += t5 - t4;
    }
    benchmark::DoNotOptimize(x_new.data());
    r.baseline_us = std::min(r.baseline_us, us(base));
    r.restamp_us = std::min(r.restamp_us, us(restamp));
    r.device_stamp_ns =
        std::min(r.device_stamp_ns,
                 1e3 * us(devices) / static_cast<double>(r.devices));
    r.refactor_us = std::min(r.refactor_us, us(refactor));
    r.solve_us = std::min(r.solve_us, us(solve));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Solver rows: the dense-or-sparse choice measured at the layer where it
// lives (spice::MnaSystem picks by size, see kSparseAutoThreshold).  Each
// row takes the transient Jacobian above for a modulator core of 1/2/4/8
// sections or a delay line of 2/4/8 stages — sizes that straddle the
// threshold — and times `cycles` Newton-iteration solves both ways, each
// cycle loading the iteration matrix as MnaSystem does:
//  * dense  — cycles x (copy, LU factor in place, solve);
//  * sparse — (copy, pivoting factor, solve), then
//             (cycles - 1) x (copy, numeric refactor, solve).
// cycles = 10 is a short DC solve, 400 a transient.  Serial code, so the
// rows are independent of the host's core count.  Gate: sparse is not
// slower than dense on the 8-section modulator at 400 cycles.
// ---------------------------------------------------------------------------

struct SolverRow {
  std::string workload;
  int size = 0;
  std::size_t unknowns = 0;
  std::size_t nnz = 0;
  int cycles = 0;
  double dense_ms = 0.0;
  double sparse_ms = 0.0;
};

SolverRow time_solver_row(bool modulator, int size, int cycles) {
  SolverRow r;
  r.workload = modulator ? "table2_modulator" : "table1_delay_line";
  r.size = size;
  r.cycles = cycles;
  const auto sys = assemble_solver_path(modulator, size);
  r.unknowns = sys.unknowns;
  r.nnz = sys.pattern->nnz();
  const si::linalg::Matrix a_dense = sys.a.to_dense();
  si::linalg::Matrix work;
  si::linalg::SparseMatrixD a_sparse(sys.pattern);
  std::vector<std::size_t> perm;
  std::vector<double> x;
  r.dense_ms = r.sparse_ms = 1e300;
  for (int rep = 0; rep < 5; ++rep) {  // best-of: rep 0 absorbs warm-up
    auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < cycles; ++k) {
      work = a_dense;
      si::linalg::lu_factor_in_place(work, perm);
      si::linalg::lu_solve_in_place(work, perm, sys.b, x);
    }
    r.dense_ms = std::min(r.dense_ms, ms_since(t0));
    benchmark::DoNotOptimize(x.data());
    t0 = std::chrono::steady_clock::now();
    si::linalg::SparseLuD lu;
    for (int k = 0; k < cycles; ++k) {
      a_sparse.copy_values_from(sys.a);
      if (k == 0)
        lu.factor(a_sparse);
      else
        lu.refactor(a_sparse);
      lu.solve(sys.b, x);
    }
    r.sparse_ms = std::min(r.sparse_ms, ms_since(t0));
    benchmark::DoNotOptimize(x.data());
  }
  return r;
}

/// Short commit hash of the checkout the bench runs in ("-dirty" when
/// it has uncommitted changes), or "unknown" outside a git checkout.
std::string current_commit() {
  std::string out;
  if (FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[64];
    while (std::fgets(buf, sizeof buf, p)) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// Host context every timed row carries: nproc, compiler, build type
/// and commit, as JSON members.
std::string host_stamp(const std::string& commit) {
  return ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" SI_BENCH_COMPILER "\", \"build_type\": \"" +
         std::string(SI_BENCH_BUILD_TYPE) + "\", \"commit\": \"" + commit +
         "\"";
}

/// The telemetry snapshot without its raw span ring: the committed
/// ledger keeps summaries (counters, timers, histograms).
std::string telemetry_summary_json() {
  const auto snap = si::serve::Json::parse(si::obs::snapshot_json());
  auto out = si::serve::Json::object();
  for (const char* key :
       {"compiled", "enabled", "counters", "timers", "histograms"})
    if (const auto* v = snap.find(key)) out.set(key, *v);
  return out.dump();
}

int run_quick(const std::string& out_path, bool telemetry, bool long_horizon) {
  if (telemetry) {
    si::obs::set_enabled(true);
    si::obs::reset();
  }
  std::vector<SolverRow> solver_rows;
  for (const int cycles : {10, 400}) {
    for (const int stages : {2, 4, 8})
      solver_rows.push_back(time_solver_row(false, stages, cycles));
    for (const int sections : {1, 2, 4, 8})
      solver_rows.push_back(time_solver_row(true, sections, cycles));
  }

  // Event-engine rows: the OSR-64 sweep always runs; the 1e4-period
  // DC-hold headline only with --long (it takes tens of seconds).
  std::vector<EventRow> event_rows;
  for (int sections : {2, 4, 8})
    event_rows.push_back(time_event_row("event_modulator_sweep", sections,
                                        20.0, /*dc_hold=*/false, /*reps=*/2));
  if (long_horizon)
    event_rows.push_back(time_event_row("event_modulator_hold", 4, 10000.0,
                                        /*dc_hold=*/true, /*reps=*/1));

  // Static-verification rows: whole-netlist interval analysis + property
  // checkers on the modulator core across sizes, up to 16 sections (the
  // witness evaluation was exponential in sections before its per-corner
  // memo: minutes at 16).
  struct VerifyRow {
    int size = 0;
    std::size_t nodes = 0, pairs = 0, segments = 0, findings = 0;
    double analyze_ms = 0.0;
  };
  std::vector<VerifyRow> verify_rows;
  for (int sections : {1, 2, 4, 8, 16}) {
    VerifyRow r;
    r.size = sections;
    const auto c = build_verify_modulator(sections);
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto vr = si::verify::analyze(c);
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(
          best, std::chrono::duration<double, std::milli>(t1 - t0).count());
      r.nodes = vr.stats.nodes;
      r.pairs = vr.stats.pairs;
      r.segments = vr.stats.segments;
      r.findings = vr.findings.size();
    }
    r.analyze_ms = best;
    verify_rows.push_back(r);
  }

  // Monte-Carlo DC rows: thread sweep (1/2/4/8) on a small and on the
  // largest Table 2 modulator.  The gate below checks the largest size
  // at one thread: structure-shared >= 2.5x the per-trial rebuild path.
  std::vector<McDcRow> mc_rows;
  for (int sections : {2, 8})
    for (unsigned threads : {1u, 2u, 4u, 8u})
      mc_rows.push_back(time_mc_dc_row(sections, threads, /*runs=*/64));

  // Sparse factor scaling rows (solver-path microbench).
  std::vector<SparseFactorRow> factor_rows;
  for (int sections : {8, 16, 32, 64, 128})
    factor_rows.push_back(time_sparse_factor_row(sections));

  // Newton-iteration phase rows (assembly layer).
  std::vector<AssemblyRow> assembly_rows;
  for (int sections : {8, 64})
    assembly_rows.push_back(time_assembly_row(sections));

  const std::string host = host_stamp(current_commit());
  std::ofstream os(out_path);
  os << "{\n  \"solver_bench\": [\n";
  for (std::size_t i = 0; i < solver_rows.size(); ++i) {
    const auto& r = solver_rows[i];
    os << "    {\"workload\": \"" << r.workload << "\", \"size\": " << r.size
       << ", \"unknowns\": " << r.unknowns << ", \"nnz\": " << r.nnz
       << ", \"cycles\": " << r.cycles << ", \"dense_ms\": " << r.dense_ms
       << ", \"sparse_ms\": " << r.sparse_ms
       << ", \"speedup\": " << r.dense_ms / r.sparse_ms << host << "}"
       << (i + 1 < solver_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"event_bench\": [\n";
  for (std::size_t i = 0; i < event_rows.size(); ++i) {
    const auto& r = event_rows[i];
    os << "    {\"workload\": \"" << r.workload << "\", \"size\": " << r.size
       << ", \"periods\": " << r.periods << ", \"unknowns\": " << r.unknowns
       << ", \"quiescent_tol\": 1e-06, \"mono_ms\": " << r.mono_ms
       << ", \"event_ms\": " << r.event_ms
       << ", \"speedup\": " << r.mono_ms / r.event_ms
       << ", \"latency_ratio\": " << r.latency_ratio
       << ", \"steps_skipped\": " << r.steps_skipped
       << ", \"steps_total\": " << r.steps_total
       << ", \"parity_maxerr\": " << r.parity_maxerr << "}"
       << (i + 1 < event_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"verify_bench\": [\n";
  for (std::size_t i = 0; i < verify_rows.size(); ++i) {
    const auto& r = verify_rows[i];
    os << "    {\"workload\": \"verify_modulator\", \"size\": " << r.size
       << ", \"nodes\": " << r.nodes << ", \"pairs\": " << r.pairs
       << ", \"segments\": " << r.segments << ", \"findings\": " << r.findings
       << ", \"analyze_ms\": " << r.analyze_ms << host << "}"
       << (i + 1 < verify_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"mc_dc\": [\n";
  for (std::size_t i = 0; i < mc_rows.size(); ++i) {
    const auto& r = mc_rows[i];
    os << "    {\"workload\": \"mc_modulator_offset\", \"size\": " << r.size
       << ", \"unknowns\": " << r.unknowns << ", \"runs\": " << r.runs
       << ", \"threads\": " << r.threads
       << ", \"rebuild_tps\": " << r.rebuild_tps
       << ", \"scalar_tps\": " << r.scalar_tps
       << ", \"speedup_vs_rebuild\": " << r.scalar_tps / r.rebuild_tps
       << host << "}" << (i + 1 < mc_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"sparse_factor\": [\n";
  for (std::size_t i = 0; i < factor_rows.size(); ++i) {
    const auto& r = factor_rows[i];
    os << "    {\"workload\": \"modulator_tran_jacobian\", \"sections\": "
       << r.sections << ", \"unknowns\": " << r.unknowns
       << ", \"nnz\": " << r.nnz << ", \"factor_nnz\": " << r.factor_nnz
       << ", \"cycles\": " << kRefactorCycles
       << ", \"factor_ms\": " << r.factor_ms
       << ", \"refactor_ms\": " << r.refactor_ms
       << ", \"solve_ms\": " << r.solve_ms << host << "}"
       << (i + 1 < factor_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"assembly\": [\n";
  for (std::size_t i = 0; i < assembly_rows.size(); ++i) {
    const auto& r = assembly_rows[i];
    os << "    {\"workload\": \"modulator_tran_newton\", \"sections\": "
       << r.sections << ", \"unknowns\": " << r.unknowns
       << ", \"devices\": " << r.devices
       << ", \"iterations\": " << kAssemblyIterations
       << ", \"baseline_stamp_us\": " << r.baseline_us
       << ", \"restamp_us\": " << r.restamp_us
       << ", \"device_stamp_ns\": " << r.device_stamp_ns
       << ", \"refactor_us\": " << r.refactor_us
       << ", \"solve_us\": " << r.solve_us << host << "}"
       << (i + 1 < assembly_rows.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (telemetry) {
    // Merge the solver telemetry summary: factor/refactor counts,
    // pattern misses, step stats for the whole quick suite.
    os << ",\n  \"telemetry\": " << telemetry_summary_json();
  }
  os << "\n}\n";
  os.close();

  int rc = 0;
  for (const auto& r : solver_rows) {
    std::printf(
        "%-18s size=%d unknowns=%zu cycles=%d dense=%.3fms sparse=%.3fms "
        "speedup=%.2fx\n",
        r.workload.c_str(), r.size, r.unknowns, r.cycles, r.dense_ms,
        r.sparse_ms, r.dense_ms / r.sparse_ms);
    // Gate: past the threshold, over a transient's worth of iterations,
    // the sparse path the size rule picks must not lose.
    if (r.workload == "table2_modulator" && r.size == 8 && r.cycles == 400 &&
        r.sparse_ms > r.dense_ms) {
      std::fprintf(stderr,
                   "FAIL: sparse (%.3f ms) slower than dense (%.3f ms) on "
                   "table2_modulator size=%d cycles=%d\n",
                   r.sparse_ms, r.dense_ms, r.size, r.cycles);
      rc = 1;
    }
  }
  double sweep_mono_ms = 0.0;
  double sweep_event_ms = 0.0;
  for (const auto& r : event_rows) {
    std::printf(
        "%-22s size=%d periods=%g mono=%.2fms event=%.2fms speedup=%.2fx "
        "latency=%.2f skipped=%llu/%llu maxerr=%.2e\n",
        r.workload.c_str(), r.size, r.periods, r.mono_ms, r.event_ms,
        r.mono_ms / r.event_ms, r.latency_ratio,
        static_cast<unsigned long long>(r.steps_skipped),
        static_cast<unsigned long long>(r.steps_total), r.parity_maxerr);
    // Gates: the event engine must not lose to the monolithic engine
    // over the OSR-64 sweep, waveforms must agree to well under a
    // microvolt on every row, and the long-horizon hold run must
    // demonstrate at least the 5x latency-exploitation speedup.
    if (r.workload == "event_modulator_sweep") {
      sweep_mono_ms += r.mono_ms;
      sweep_event_ms += r.event_ms;
    }
    if (r.parity_maxerr > 1e-5) {
      std::fprintf(stderr,
                   "FAIL: event/monolithic parity diverged (maxerr=%.3e) on "
                   "%s size=%d\n",
                   r.parity_maxerr, r.workload.c_str(), r.size);
      rc = 1;
    }
    if (r.workload == "event_modulator_hold" &&
        r.mono_ms < 5.0 * r.event_ms) {
      std::fprintf(stderr,
                   "FAIL: long-horizon hold speedup %.2fx below the 5x "
                   "latency-exploitation target\n",
                   r.mono_ms / r.event_ms);
      rc = 1;
    }
  }
  for (const auto& r : verify_rows) {
    std::printf(
        "%-22s size=%d nodes=%zu pairs=%zu segments=%zu findings=%zu "
        "analyze=%.2fms\n",
        "verify_modulator", r.size, r.nodes, r.pairs, r.segments, r.findings,
        r.analyze_ms);
  }
  // Gate: static verification of the largest modulator must stay
  // interactive (< 100 ms for the whole-netlist analysis).
  if (!verify_rows.empty() && verify_rows.back().analyze_ms > 100.0) {
    std::fprintf(stderr,
                 "FAIL: verify analysis took %.2f ms (> 100 ms) on "
                 "verify_modulator size=%d\n",
                 verify_rows.back().analyze_ms, verify_rows.back().size);
    rc = 1;
  }
  // Gate: doubling the sections from 8 to 16 may cost at most 4x (the
  // corners and the pairs evaluated per corner both grow linearly; the
  // unmemoised witness evaluation doubled per section).
  {
    const VerifyRow* r8 = nullptr;
    const VerifyRow* r16 = nullptr;
    for (const auto& r : verify_rows) {
      if (r.size == 8) r8 = &r;
      if (r.size == 16) r16 = &r;
    }
    if (r8 && r16 && r16->analyze_ms > 4.0 * r8->analyze_ms) {
      std::fprintf(stderr,
                   "FAIL: verify analysis %.2f ms at 16 sections > 4x the "
                   "%.2f ms at 8 sections\n",
                   r16->analyze_ms, r8->analyze_ms);
      rc = 1;
    }
  }
  for (const auto& r : mc_rows) {
    std::printf(
        "%-22s size=%d unknowns=%zu threads=%u rebuild=%.0f/s "
        "scalar=%.0f/s speedup=%.2fx\n",
        "mc_modulator_offset", r.size, r.unknowns, r.threads, r.rebuild_tps,
        r.scalar_tps, r.scalar_tps / r.rebuild_tps);
  }
  // Gate (largest modulator at one thread, so the host's core count
  // cannot fail it): structure-shared Monte-Carlo must deliver >= 2.5x
  // the trials/sec of the per-trial rebuild path timed in the same run.
  for (const auto& r : mc_rows) {
    if (r.size != mc_rows.back().size || r.threads != 1) continue;
    if (r.scalar_tps < 2.5 * r.rebuild_tps) {
      std::fprintf(stderr,
                   "FAIL: structure-shared Monte-Carlo %.0f trials/s < 2.5x "
                   "the per-trial path (%.0f trials/s) on "
                   "mc_modulator_offset size=%d threads=%u\n",
                   r.scalar_tps, r.rebuild_tps, r.size, r.threads);
      rc = 1;
    }
  }
  if (sweep_event_ms > sweep_mono_ms) {
    std::fprintf(stderr,
                 "FAIL: event engine (%.2f ms) slower than monolithic "
                 "(%.2f ms) over the OSR-64 modulator sweep\n",
                 sweep_event_ms, sweep_mono_ms);
    rc = 1;
  }
  for (const auto& r : factor_rows) {
    std::printf(
        "%-18s sections=%d unknowns=%zu nnz=%zu factor_nnz=%zu factor=%.3fms "
        "refactor=%.3fms solve=%.3fms (x%d)\n",
        "sparse_factor", r.sections, r.unknowns, r.nnz, r.factor_nnz,
        r.factor_ms, r.refactor_ms, r.solve_ms, kRefactorCycles);
  }
  // Gate: the pivoting factor must scale with fill, not n^2 (a dense
  // pivoting pass reads 4.6x per doubling on these matrices).
  {
    const SparseFactorRow* r64 = nullptr;
    const SparseFactorRow* r128 = nullptr;
    for (const auto& r : factor_rows) {
      if (r.sections == 64) r64 = &r;
      if (r.sections == 128) r128 = &r;
    }
    if (r64 && r128 && r128->factor_ms > 3.0 * r64->factor_ms) {
      std::fprintf(stderr,
                   "FAIL: sparse factor %.3f ms at 128 sections > 3x the "
                   "%.3f ms at 64 sections\n",
                   r128->factor_ms, r64->factor_ms);
      rc = 1;
    }
  }
  for (const auto& r : assembly_rows) {
    std::printf(
        "%-18s sections=%d unknowns=%zu devices=%zu baseline=%.2fus "
        "restamp=%.2fus (%.1f ns/device) refactor=%.2fus solve=%.2fus\n",
        "assembly", r.sections, r.unknowns, r.devices, r.baseline_us,
        r.restamp_us, r.device_stamp_ns, r.refactor_us, r.solve_us);
  }
  if (telemetry) {
    std::fputs(si::obs::snapshot_table().c_str(), stdout);
    // Gate: the quick-suite netlists stamp inside the discovered pattern
    // by contract, so any pattern miss is a regression.
    const std::uint64_t misses =
        si::obs::counter("mna.pattern_misses").value();
    if (misses > 0) {
      std::fprintf(stderr,
                   "FAIL: %llu stamp(s) outside the discovered pattern on "
                   "the quick suite (stamp-pattern contract violated)\n",
                   static_cast<unsigned long long>(misses));
      rc = 1;
    }
  }
  std::printf("wrote %s\n", out_path.c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_solvers.json";
  bool quick = false;
  bool telemetry = false;
  bool long_horizon = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--telemetry") == 0) telemetry = true;
    if (std::strcmp(argv[i], "--long") == 0) long_horizon = true;
  }
  if (quick) return run_quick(out, telemetry, long_horizon);
  if (telemetry) si::obs::set_enabled(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (telemetry) std::fputs(si::obs::snapshot_table().c_str(), stdout);
  return 0;
}
