#include <gtest/gtest.h>

#include <cmath>

#include "analysis/monte_carlo.hpp"
#include "dsp/signal.hpp"
#include "runtime/parallel.hpp"
#include "si/common_mode.hpp"

namespace {

using si::analysis::McOptions;
using si::analysis::monte_carlo;

TEST(MonteCarlo, GaussianTrialStatistics) {
  const auto st = monte_carlo(4000, [](std::uint64_t seed) {
    si::dsp::Xoshiro256 rng(seed);
    return rng.normal(5.0, 2.0);
  });
  EXPECT_EQ(st.count(), 4000u);
  EXPECT_NEAR(st.mean, 5.0, 0.15);
  EXPECT_NEAR(st.sigma, 2.0, 0.15);
  EXPECT_NEAR(st.percentile(0.5), 5.0, 0.2);
  // ~84% of a Gaussian lies above mean - sigma.
  EXPECT_NEAR(st.yield_above(3.0), 0.84, 0.03);
  EXPECT_LE(st.min, st.percentile(0.01));
  EXPECT_GE(st.max, st.percentile(0.99));
}

TEST(MonteCarlo, DeterministicForSeed0) {
  auto trial = [](std::uint64_t seed) {
    si::dsp::Xoshiro256 rng(seed);
    return rng.uniform();
  };
  const auto a = monte_carlo(100, trial, 7);
  const auto b = monte_carlo(100, trial, 7);
  const auto c = monte_carlo(100, trial, 8);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_NE(a.samples, c.samples);
}

TEST(MonteCarlo, PercentileEdges) {
  const auto st = monte_carlo(10, [](std::uint64_t s) {
    return static_cast<double>(s % 100);
  });
  EXPECT_DOUBLE_EQ(st.percentile(0.0), st.min);
  EXPECT_DOUBLE_EQ(st.percentile(1.0), st.max);
  EXPECT_THROW(si::analysis::McStatistics{}.percentile(0.5),
               std::logic_error);
}

TEST(MonteCarlo, EmptyStatisticsThrowSymmetrically) {
  // Contract: both accessors reject an empty statistics object —
  // yield_above used to return a silent (and wrong) 0.0.
  const si::analysis::McStatistics empty;
  EXPECT_THROW(empty.percentile(0.5), std::logic_error);
  EXPECT_THROW(empty.yield_above(0.0), std::logic_error);
}

// A trial expensive and seed-sensitive enough that any seeding or
// ordering bug in the parallel path shows up in the sample vector.
double nontrivial_trial(std::uint64_t seed) {
  si::dsp::Xoshiro256 rng(seed);
  double acc = 0.0;
  for (int k = 0; k < 500; ++k) acc += rng.normal() * std::sin(0.01 * k);
  return acc;
}

TEST(MonteCarlo, ParallelBitIdenticalToSerialAcrossThreadCounts) {
  const int runs = 257;  // awkward size: not a multiple of any grain
  McOptions serial_opts;
  serial_opts.seed0 = 99;
  serial_opts.parallel = false;
  const auto serial = monte_carlo(runs, nontrivial_trial, serial_opts);

  for (unsigned threads : {1u, 2u, 8u}) {
    si::runtime::set_thread_count(threads);
    McOptions opts;
    opts.seed0 = 99;
    const auto par = monte_carlo(runs, nontrivial_trial, opts);
    EXPECT_EQ(serial.samples, par.samples)
        << "samples diverged at " << threads << " thread(s)";
    EXPECT_DOUBLE_EQ(serial.mean, par.mean);
    EXPECT_DOUBLE_EQ(serial.sigma, par.sigma);
  }
  si::runtime::set_thread_count(0);
}

TEST(MonteCarlo, ExplicitGrainStillBitIdentical) {
  si::runtime::set_thread_count(4);
  McOptions reference;
  reference.seed0 = 5;
  reference.parallel = false;
  const auto serial = monte_carlo(100, nontrivial_trial, reference);
  for (std::size_t grain : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    McOptions opts;
    opts.seed0 = 5;
    opts.grain = grain;
    EXPECT_EQ(serial.samples, monte_carlo(100, nontrivial_trial, opts).samples);
  }
  si::runtime::set_thread_count(0);
}

TEST(MonteCarlo, RejectsZeroRuns) {
  EXPECT_THROW(monte_carlo(0, [](std::uint64_t) { return 0.0; }),
               std::invalid_argument);
}

TEST(MonteCarlo, CmffResidualDistributionScalesWithMismatch) {
  // Yield-style use: the CMFF residual CM gain across mismatch draws.
  auto sigma_of = [](double mismatch) {
    const auto st = monte_carlo(400, [mismatch](std::uint64_t seed) {
      si::cells::CmffParams p;
      p.mirror_mismatch_sigma = mismatch;
      si::cells::Cmff ff(p, seed);
      return std::abs(ff.residual_cm_gain());
    });
    return st.percentile(0.9);
  };
  const double p90_small = sigma_of(1e-3);
  const double p90_large = sigma_of(5e-3);
  EXPECT_NEAR(p90_large / p90_small, 5.0, 1.5);
}

}  // namespace
