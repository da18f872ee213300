// Verifies the allocation-free hot-loop contract: after warm-up (first
// couple of steps build the pattern, symbolic factorization, slot memos
// and workspaces), Newton iterations and transient steps perform zero
// heap allocations.  Global operator new is instrumented; this test
// must stay in its own binary.
//
// Telemetry is switched ON for every test here: recording (relaxed
// atomic counters, the fixed-bin histogram, the preallocated span ring)
// must not allocate either — only instrument registration may, and that
// happens during warm-up.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "mna_fixtures.hpp"
#include "obs/telemetry.hpp"
#include "runtime/rng_stream.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/mna_batch.hpp"
#include "spice/mosfet.hpp"
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

TEST(TransientAlloc, BatchedRefactorSolveIsAllocationFreeAfterWarmup) {
  // The batched Monte-Carlo hot loop: per-lane stamping, SoA
  // refactor, and the batched substitution must stop allocating once
  // the engine workspaces and slot memos are warm.
  si::obs::set_enabled(true);
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  DelayStageOptions opt;
  const auto h = build_delay_line_chain(c, 2, opt, "dl_");
  c.add<CurrentSource>("Iin", c.ground(), h.in, 5e-6);

  // Pre-capture devices + nominals so apply() itself is allocation-free.
  std::vector<std::pair<Mosfet*, MosfetParams>> devices;
  for (const auto& e : c.elements())
    if (auto* m = dynamic_cast<Mosfet*>(e.get()))
      devices.emplace_back(m, m->params());
  const std::function<void(std::uint64_t)> apply = [&](std::uint64_t seed) {
    si::runtime::RngStream rng(seed);
    for (const auto& [mos, nominal] : devices) {
      MosfetParams p = nominal;
      p.kp = nominal.kp * (1.0 + 0.02 * rng.normal());
      mos->set_params(p);
    }
  };

  constexpr std::size_t kLanes = 4;
  BatchedDcEngine engine(c, kLanes, BatchedDcEngine::Options{});
  std::uint64_t seeds[kLanes];
  BatchedLaneResult results[kLanes];
  auto run_batch = [&](std::uint64_t base) {
    for (std::size_t k = 0; k < kLanes; ++k) seeds[k] = base + k;
    engine.solve_batch(seeds, kLanes, apply, results);
    for (std::size_t k = 0; k < kLanes; ++k)
      ASSERT_TRUE(results[k].converged) << "lane " << k;
  };

  run_batch(100);  // warm-up: pattern, symbolic, memos, workspaces
  run_batch(200);  // second pass: memos replay

  const std::uint64_t before = g_allocs.load();
  for (int r = 0; r < 10; ++r) run_batch(300 + 10 * r);
  EXPECT_EQ(g_allocs.load() - before, 0u)
      << "heap allocations leaked into the warm batched MC loop";
}

}  // namespace
