// Verifies the allocation-free hot-loop contract: after warm-up (first
// couple of steps build the pattern, symbolic factorization, slot memos
// and workspaces), Newton iterations, transient steps and Monte-Carlo
// DC trials perform zero heap allocations.  Global operator new is
// instrumented; this test must stay in its own binary.
//
// Telemetry is switched ON for every test here: recording (relaxed
// atomic counters, the fixed-bin histogram, the preallocated span ring)
// must not allocate either — only instrument registration may, and that
// happens during warm-up.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "analysis/mc_batch.hpp"
#include "mna_fixtures.hpp"
#include "obs/telemetry.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/transient.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace si::spice;
using namespace si::cells::netlists;

/// Delay-line fixture shared by the tests: 14 unknowns, so it runs on
/// the dense representation unless padded.
DelayLineChainHandles build_fixture(Circuit& c) {
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  DelayStageOptions opt;
  const auto h = build_delay_line_chain(c, 2, opt, "dl_");
  c.add<CurrentSource>("Iin", c.ground(), h.in, 5e-6);
  return h;
}

TEST(TransientAlloc, SparseNewtonLoopIsAllocationFreeAfterWarmup) {
  si::obs::set_enabled(true);
  Circuit c;
  build_fixture(c);
  si::test::pad_unknowns(c);

  MnaEngine engine(c);
  NewtonOptions nopt;
  StampContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  si::linalg::Vector x;
  engine.newton(ctx, x, nopt);
  {
    SolutionView sol(c, x);
    for (const auto& e : c.elements()) e->accept(sol, ctx);
  }

  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = 200e-9 / 400.0;
  auto step = [&](int k) {
    ctx.time = k * ctx.dt;
    engine.newton(ctx, x, nopt);
    SolutionView sol(c, x);
    for (const auto& e : c.elements()) e->accept(sol, ctx);
  };

  // Warm-up: slot memos record, the sparse LU builds its symbolic
  // factorization and workspaces.
  for (int k = 1; k <= 5; ++k) step(k);

  const std::uint64_t before = g_allocs.load();
  const std::uint64_t ws_before = engine.stats().workspace_allocs;
  for (int k = 6; k <= 60; ++k) step(k);
  const std::uint64_t after = g_allocs.load();

  EXPECT_EQ(after - before, 0u)
      << "heap allocations leaked into the warm Newton/transient loop";
  EXPECT_EQ(engine.stats().workspace_allocs, ws_before);
  EXPECT_EQ(engine.stats().dense_factors, 0u);
}

TEST(TransientAlloc, DenseNewtonLoopIsAllocationFreeAfterWarmup) {
  si::obs::set_enabled(true);
  Circuit c;
  build_fixture(c);
  c.finalize();

  MnaEngine engine(c);
  NewtonOptions nopt;
  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = 200e-9 / 400.0;
  si::linalg::Vector x(c.system_size(), 0.0);
  for (int k = 1; k <= 5; ++k) {
    ctx.time = k * ctx.dt;
    engine.newton(ctx, x, nopt);
  }
  const std::uint64_t before = g_allocs.load();
  for (int k = 6; k <= 40; ++k) {
    ctx.time = k * ctx.dt;
    engine.newton(ctx, x, nopt);
  }
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(engine.stats().symbolic_factors, 0u);
}

TEST(TransientAlloc, TransientRunStepsAllocateOnlyDuringWarmup) {
  // Integrated check through Transient::run: probe recording, accept,
  // and the engine together must stop allocating once warm.
  si::obs::set_enabled(true);
  Circuit c;
  const auto h = build_fixture(c);

  TransientOptions topt;
  topt.t_stop = 200e-9 / 4.0;
  topt.dt = 200e-9 / 400.0;
  topt.erc_gate = false;
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.in));
  tr.probe_voltage(c.node_name(h.out));

  std::vector<std::uint64_t> per_step;
  per_step.reserve(128);
  tr.run([&](double, const SolutionView&) {
    per_step.push_back(g_allocs.load());
  });

  ASSERT_GE(per_step.size(), 20u);
  // Everything after the first few steps must be allocation-flat.
  EXPECT_EQ(per_step.back(), per_step[5])
      << "transient step loop allocated after warm-up";
}

TEST(TransientAlloc, MonteCarloDcAllocationsDoNotGrowWithTrials) {
  // monte_carlo_dc allocates per run (the nominal ladder, the worker
  // context, the engine's pattern, memos and symbolic factor, the sample
  // vector), never per trial: a serial, uncached run makes as many heap
  // allocations for 64 trials as for 16.
  si::obs::set_enabled(true);
  const auto w = si::analysis::delay_line_mismatch_workload(8);
  {
    Circuit c;
    (void)w.build(c);
    c.finalize();
    ASSERT_GE(c.system_size(), kSparseAutoThreshold);  // runs sparse
  }
  si::analysis::McOptions opts;
  opts.seed0 = 5;
  opts.parallel = false;
  auto allocs = [&](int runs) {
    const std::uint64_t before = g_allocs.load();
    const auto st = si::analysis::monte_carlo_dc(runs, w, opts);
    const std::uint64_t after = g_allocs.load();
    EXPECT_EQ(st.count(), static_cast<std::size_t>(runs));
    return after - before;
  };

  (void)allocs(16);  // warm-up: telemetry registration
  const std::uint64_t at16 = allocs(16);
  const std::uint64_t at64 = allocs(64);
  EXPECT_GT(at16, 0u);
  EXPECT_EQ(at64, at16) << "heap allocations grew with the trial count";
}

}  // namespace
