// Structure-shared Monte-Carlo contracts: monte_carlo_dc reproduces
// the serial sample vector at every thread count and grain, on the
// dense and on the sparse representation, including trials that
// re-pivot; and serial and parallel runs share one series-cache entry.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "analysis/mc_batch.hpp"
#include "obs/telemetry.hpp"
#include "runtime/parallel.hpp"
#include "runtime/rng_stream.hpp"

namespace {

using namespace si;

// The "batch size" of the name is the grain: trials per pool chunk.
TEST(McBatch, SamplesBitIdenticalAcrossBatchSizesAndThreads) {
  obs::set_enabled(true);
  const int kRuns = 33;
  // The 1-section core runs dense (below the 32-unknown threshold), the
  // 2-section core sparse.
  for (int sections : {1, 2}) {
    const auto w = analysis::modulator_mismatch_workload(sections);
    const auto dense0 = obs::counter("mna.dense_factors").value();
    const auto symbolic0 = obs::counter("mna.symbolic_factors").value();

    analysis::McOptions ref_opts;
    ref_opts.seed0 = 42;
    ref_opts.parallel = false;  // the serial reference
    const auto ref = analysis::monte_carlo_dc(kRuns, w, ref_opts);
    ASSERT_EQ(ref.count(), static_cast<std::size_t>(kRuns));
    if (sections == 1)
      EXPECT_EQ(obs::counter("mna.symbolic_factors").value(), symbolic0);
    else
      EXPECT_EQ(obs::counter("mna.dense_factors").value(), dense0);

    for (std::size_t grain : {0u, 1u, 3u}) {
      for (unsigned threads : {1u, 2u, 8u}) {
        runtime::set_thread_count(threads);
        analysis::McOptions opts;
        opts.seed0 = 42;
        opts.grain = grain;
        const auto st = analysis::monte_carlo_dc(kRuns, w, opts);
        EXPECT_EQ(st.samples, ref.samples) << "sections=" << sections
                                           << " grain=" << grain
                                           << " threads=" << threads;
        EXPECT_EQ(st.mean, ref.mean);
        EXPECT_EQ(st.sigma, ref.sigma);
      }
    }
  }
  runtime::set_thread_count(0);
}

TEST(McBatch, RepivotedTrialsStayThreadInvariant) {
  // A 20 % draw on the 2-section core moves some trials' operating
  // points far enough that a frozen pivot of the nominal factor
  // collapses, so the engine re-pivots on those trials' own values.
  // The context is rebuilt after each such trial; without that, later
  // trials in the same context would refactor with another trial's
  // pivots and their samples would follow the scheduling.
  obs::set_enabled(true);
  const int kRuns = 32;
  const auto w = analysis::modulator_mismatch_workload(2, 0.2);

  const auto repivots0 = obs::counter("mna.pivot_repivots").value();
  analysis::McOptions ref_opts;
  ref_opts.seed0 = 3;
  ref_opts.parallel = false;
  const auto ref = analysis::monte_carlo_dc(kRuns, w, ref_opts);
  ASSERT_EQ(ref.count(), static_cast<std::size_t>(kRuns));
  EXPECT_GT(obs::counter("mna.pivot_repivots").value(), repivots0);

  for (unsigned threads : {2u, 8u}) {
    runtime::set_thread_count(threads);
    analysis::McOptions opts;
    opts.seed0 = 3;
    opts.grain = 1;
    const auto st = analysis::monte_carlo_dc(kRuns, w, opts);
    EXPECT_EQ(st.samples, ref.samples) << "threads=" << threads;
  }
  runtime::set_thread_count(0);
}

TEST(McBatch, BatchedAndScalarRunsShareOneCacheEntry) {
  // Serial and parallel runs (any grain) are bit-identical, so they
  // share the entry of their key.
  auto applies = std::make_shared<std::atomic<int>>(0);
  auto base = analysis::modulator_mismatch_workload(1);
  analysis::McDcWorkload w;
  w.newton = base.newton;
  w.build = [base, applies](spice::Circuit& c) {
    auto fns = base.build(c);
    auto inner = fns.apply;
    fns.apply = [inner, applies](std::uint64_t seed) {
      applies->fetch_add(1);
      inner(seed);
    };
    return fns;
  };

  analysis::McOptions opts;
  opts.seed0 = 11;
  opts.cache_key = 0x5150c0ffee;  // unique to this test
  opts.parallel = false;
  const auto serial = analysis::monte_carlo_dc(10, w, opts);
  const int after_serial = applies->load();
  EXPECT_GT(after_serial, 0);

  // Same key, parallel path at another grain: no trial may execute.
  runtime::set_thread_count(4);
  opts.parallel = true;
  opts.grain = 3;
  const auto parallel = analysis::monte_carlo_dc(10, w, opts);
  runtime::set_thread_count(0);
  EXPECT_EQ(applies->load(), after_serial);
  EXPECT_EQ(parallel.samples, serial.samples);
}

TEST(McStatistics, HistogramLoadsSamplesIntoRegistry) {
  obs::set_enabled(true);
  const auto st = analysis::monte_carlo(
      200, [](std::uint64_t seed) { return runtime::RngStream(seed).normal(); },
      3);
  obs::Histogram& h = st.histogram("mc.test.samples");
  EXPECT_EQ(h.count(), st.count());
  EXPECT_EQ(h.min(), st.min);
  EXPECT_EQ(h.max(), st.max);

  analysis::McStatistics empty;
  EXPECT_THROW(empty.histogram(), std::logic_error);
}

}  // namespace
