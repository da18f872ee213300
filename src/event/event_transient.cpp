#include "event/event_transient.hpp"

#include <algorithm>
#include <cmath>

#include "obs/telemetry.hpp"

namespace si::event {

using spice::SolutionView;
using spice::StampContext;
using spice::TransientResult;

namespace {

/// Event-engine telemetry handles, hoisted once so the step loop records
/// through preallocated atomics only.
struct EventTelemetry {
  obs::Counter& runs = obs::counter("event.runs");
  obs::Counter& events_dispatched = obs::counter("event.events_dispatched");
  obs::Counter& value_changes = obs::counter("event.value_changes");
  obs::Counter& block_solves = obs::counter("event.block_solves");
  obs::Counter& block_skips = obs::counter("event.block_skips");
  obs::Counter& steps_skipped = obs::counter("event.steps_skipped");
  obs::Counter& full_activations = obs::counter("event.full_activations");
  obs::Histogram& active_blocks = obs::histogram("event.active_blocks");

  static EventTelemetry& get() {
    static EventTelemetry t;
    return t;
  }
};

}  // namespace

EventScheduler::EventScheduler(spice::Circuit& c,
                               const spice::TransientOptions& opt)
    : circuit_(&c),
      opt_(&opt),
      partition_(partition_circuit(c)),
      queue_(c, partition_, opt.t_stop),
      scoped_(c, partition_) {
  EventTelemetry::get().runs.add();
  boundaries_.reserve(partition_.boundaries.size());
  for (const auto& b : partition_.boundaries)
    boundaries_.push_back(
        {dynamic_cast<const spice::Switch*>(
             c.elements()[static_cast<std::size_t>(b.element)].get()),
         b.block_a, b.block_b});

  const std::size_t n_blocks = partition_.block_count();
  active_.assign(n_blocks, 1);
  stimulated_.assign(n_blocks, 0);
  settle_.assign(n_blocks, 0);
  block_delta_.assign(n_blocks, 0.0);
  block_delta_prev_.assign(n_blocks, 0.0);
  x_prev_.assign(c.system_size(), 0.0);
}

void EventScheduler::advance(double t_prev, const StampContext& ctx,
                             linalg::Vector& x, TransientResult& result) {
  EventTelemetry& tm = EventTelemetry::get();
  const std::size_t n_blocks = partition_.block_count();

  // 1. Dispatch stimulus events across (t_prev, t].
  std::fill(stimulated_.begin(), stimulated_.end(), 0);
  const DispatchCounts counts =
      queue_.step(t_prev, ctx.time, opt_->event_wave_tol, stimulated_);
  tm.events_dispatched.add(counts.breakpoints);
  tm.value_changes.add(counts.value_changes);
  for (std::size_t b = 1; b < n_blocks; ++b)
    if (stimulated_[b]) {
      active_[b] = 1;
      settle_[b] = 0;  // new excitation restarts the settling window
      block_delta_prev_[b] = 0.0;
    }

  // 2. Propagate activity through closed boundary switches until the
  // active set is a fixpoint: an ON switch couples its two sides, so
  // they must be solved together.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& b : boundaries_) {
      const bool a_on = active_[static_cast<std::size_t>(b.block_a)] != 0;
      const bool b_on = active_[static_cast<std::size_t>(b.block_b)] != 0;
      if (a_on == b_on) continue;  // cheap test first: skips the
                                   // control-waveform eval entirely on
                                   // quiescent steps
      if (!b.sw->is_on(ctx.time)) continue;
      const auto off = static_cast<std::size_t>(a_on ? b.block_b : b.block_a);
      active_[off] = 1;
      settle_[off] = 0;
      block_delta_prev_[off] = 0.0;
      changed = true;
    }
  }

  const std::size_t n_latent_eligible = n_blocks > 0 ? n_blocks - 1 : 0;
  std::size_t n_active = 0;
  for (std::size_t b = 1; b < n_blocks; ++b) n_active += active_[b] ? 1 : 0;
  tm.active_blocks.record(static_cast<double>(n_active));
  result.event_block_solves += n_active;
  result.event_block_skips += n_latent_eligible - n_active;
  tm.block_solves.add(n_active);
  tm.block_skips.add(n_latent_eligible - n_active);

  if (n_active == 0 && n_blocks > 1) {
    // Every block latent: hold the whole state, skip the solve.
    ++result.event_steps_skipped;
    tm.steps_skipped.add();
    return;
  }

  // 3. Scope-restricted solve.  On a convergence failure, retry once
  // with every block active — the full system, bit-identical to the
  // monolithic engine's — before giving up.
  x_prev_ = x;
  try {
    scoped_.newton(ctx, x, opt_->newton, active_);
  } catch (const spice::ConvergenceError&) {
    std::fill(active_.begin(), active_.end(), 1);
    std::fill(settle_.begin(), settle_.end(), 0);
    tm.full_activations.add();
    x = x_prev_;
    scoped_.newton(ctx, x, opt_->newton, active_);
  }
  scoped_.accept_scope(active_, SolutionView(*circuit_, x), ctx);

  // 4. Quiescence detection: the largest per-step change over each
  // active block's unknowns, held below tolerance for
  // event_settle_steps consecutive solved steps, sends it latent.
  std::fill(block_delta_.begin(), block_delta_.end(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const int blk = partition_.unknown_block[i];
    if (blk == 0 || !active_[static_cast<std::size_t>(blk)]) continue;
    block_delta_[static_cast<std::size_t>(blk)] =
        std::max(block_delta_[static_cast<std::size_t>(blk)],
                 std::abs(x[i] - x_prev_[i]));
  }
  for (std::size_t b = 1; b < n_blocks; ++b) {
    if (!active_[b]) continue;
    const double delta = block_delta_[b];
    const double prev = block_delta_prev_[b];
    block_delta_prev_[b] = delta;
    bool quiescent = delta < opt_->event_quiescent_tol;
    if (quiescent && prev > delta && delta > 0.0) {
      // The block may still be on a decaying settling tail.  Holding
      // it would freeze in the remaining tail, which for a geometric
      // decay with ratio r = delta/prev sums to delta * r / (1 - r) —
      // about 16x the per-step delta for the memory pairs' C_gs/g_m
      // time constant at 1 ns steps.  Latch only once that projected
      // remainder is itself inside the tolerance.  The projection is
      // capped: a hold is not permanent — the next clock edge
      // (at most half a period away) re-solves the block and the
      // contractive Newton solve pulls it back onto the true
      // trajectory, so only the fast settling tail needs covering,
      // not an unbounded horizon.  Near-unity ratios (slow drifts
      // far below tolerance) would otherwise project to infinity and
      // pin blocks active forever.
      const double r = delta / prev;
      const double tail = std::min(r / (1.0 - r), 32.0);
      quiescent = delta * tail < opt_->event_quiescent_tol;
    }
    if (quiescent) {
      if (++settle_[b] >= opt_->event_settle_steps) {
        active_[b] = 0;
        settle_[b] = 0;
      }
    } else {
      settle_[b] = 0;
    }
  }
}

}  // namespace si::event
