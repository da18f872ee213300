// Event-driven multi-rate stepping for spice::Transient.
//
// spice::Transient::run owns the fixed time grid, the DC start, the
// probes, the Newton solve and the on_step calls for both engines.
// Under TransientEngine::kEvent it asks an EventScheduler, before each
// grid step, whether the step is solved at all.  The scheduler tracks
// which partition blocks are active: a block is re-excited by stimulus
// events (waveform breakpoints from the discrete-event queue,
// sampled-value changes) and by closed boundary switches into other
// active blocks, and goes latent again after its per-step solution
// change stays below the quiescence tolerance for a number of
// consecutive solved steps.  A step on which every block is latent is
// skipped: the whole state and every companion history hold.  Every
// other step is the monolithic solve, so the engine's only error is the
// holds of whole skipped steps — see DESIGN.md ("Block-latency
// contract").
#pragma once

#include <cstddef>
#include <vector>

#include "event/partition.hpp"
#include "event/queue.hpp"
#include "spice/elements.hpp"
#include "spice/transient.hpp"

namespace si::event {

class EventScheduler {
 public:
  /// Partitions the finalized circuit once (the topology is frozen for
  /// the run) and builds the queue over it.  Every block starts active:
  /// the first steps settle the post-DC transient, and blocks earn
  /// latency by staying quiescent.
  EventScheduler(spice::Circuit& c, const spice::TransientOptions& opt);
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  /// Partition size, for TransientResult::event_blocks.
  std::size_t block_count() const { return partition_.block_count(); }

  /// Before the grid step (t_prev, ctx.time] from state `x`: dispatches
  /// the stimulus events in the step, closes the active set over ON
  /// boundary switches and adds the step's event_* statistics to
  /// `result`.  Returns false when every block is latent: the caller
  /// skips the solve and the whole state holds.
  bool solves_step(double t_prev, const spice::StampContext& ctx,
                   const linalg::Vector& x, spice::TransientResult& result);

  /// After a solved step, with `x` the solved state: sends latent each
  /// active block whose per-step change stayed below
  /// event_quiescent_tol for two consecutive solved steps.
  void latch_quiescent(const linalg::Vector& x);

 private:
  /// A switch between two blocks, resolved for the activation pass.
  struct BoundarySwitch {
    const spice::Switch* sw;
    int block_a;
    int block_b;
  };

  const spice::TransientOptions* opt_;
  CircuitPartition partition_;
  EventQueue queue_;
  std::vector<BoundarySwitch> boundaries_;

  std::vector<unsigned char> active_;
  std::vector<unsigned char> stimulated_;
  std::vector<int> settle_;
  std::vector<double> block_delta_;
  std::vector<double> block_delta_prev_;
  linalg::Vector x_prev_;
};

}  // namespace si::event
