// Structure-shared Monte-Carlo DC analysis: N parameter draws of one
// circuit topology, each solved by a damped Newton iteration on a
// spice::MnaEngine that a pooled worker context keeps warm across
// trials (pattern, slot memos, workspaces and the symbolic factor of
// the nominal circuit are shared; only values change per trial).
//
// Contract: samples are bit-identical at ANY thread count and chunk
// size.  Seeding stays the pure function runtime::trial_seed(seed0, k);
// every trial starts from the shared nominal operating point on an
// engine whose only pivoting factor is that of the nominal
// first-iteration matrix, and a context whose trial re-pivoted (or
// regrew its pattern) is replaced by a freshly primed one, so no trial
// can see the factor another trial left behind.  Because of that, serial
// and parallel runs share ONE series-cache entry (the memo key folds
// cache_key, seed0 and runs — deliberately not the thread count or the
// grain).
//
// Kept at this path for perfbench/src, which includes it.
#pragma once

#include "analysis/monte_carlo.hpp"
#include "spice/dc.hpp"

namespace si::analysis {

/// The two per-trial closures a DC Monte-Carlo workload provides.
/// `apply(seed)` applies that trial's parameter draw to the circuit
/// (values only — no topology edits) and must be a pure function of the
/// seed: monte_carlo_dc calls it once per trial, before the solve.
/// `measure` maps the converged solution to the sample metric, with the
/// trial's parameters still in place.
struct McDcTrialFns {
  std::function<void(std::uint64_t)> apply;
  std::function<double(const spice::SolutionView&)> measure;
};

/// A DC Monte-Carlo workload: `build` populates an empty per-worker
/// Circuit and returns the trial closures bound to it.  Each worker
/// context builds its own circuit + engine, so `build` must be
/// deterministic.
struct McDcWorkload {
  std::function<McDcTrialFns(spice::Circuit&)> build;
  spice::NewtonOptions newton;
};

/// Kept for perfbench/src, which compiles against this name.
using McBatchOptions = McOptions;

/// Kept for perfbench/src: there are no lanes any more; always 1.
std::size_t mc_batch_lanes(std::size_t requested);

/// Runs `runs` DC trials of the workload and aggregates the metric.
/// Bit-identical across thread counts and grains (see file comment);
/// trials the shared engine cannot converge fall back to the full
/// gmin-stepping dc_operating_point ladder.  opts.grain = 0 runs chunks
/// of 8 trials.
McStatistics monte_carlo_dc(int runs, const McDcWorkload& workload,
                            const McOptions& opts = {});

/// Canonical workload: an N-section SI modulator core under per-device
/// kp / vt0 mismatch (relative sigma on kp, absolute sigma * vt0 on
/// vt0), measuring the differential DC output offset v(out_p) -
/// v(out_m).  The per-trial draw perturbs every MOSFET from its nominal
/// parameters with an RngStream seeded by the trial seed.
McDcWorkload modulator_mismatch_workload(int sections, double sigma = 0.02);

/// Same mismatch draw over the Table 1 delay-line chain, measuring the
/// chain output node's bias voltage.  Unlike the modulator core (whose
/// DC solution flips polarity under large draws), the chain's bias
/// point shifts smoothly with mismatch, so spread-vs-budget yield
/// questions are well posed on this workload.
McDcWorkload delay_line_mismatch_workload(int stages, double sigma = 0.02);

}  // namespace si::analysis
