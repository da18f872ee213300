// Event-driven multi-rate stepping for spice::Transient.
//
// spice::Transient::run owns the fixed time grid, the DC start, the
// probes and the on_step calls for both engines.  Under
// TransientEngine::kEvent it hands each grid step to an EventScheduler,
// which solves only the partition blocks that are active: a block is
// re-excited by stimulus events (waveform breakpoints from the
// discrete-event queue, sampled-value changes) and by closed boundary
// switches into other active blocks, and goes latent again after its
// per-step solution change stays below the quiescence tolerance for a
// number of consecutive solved steps.  Latent blocks hold their MNA
// unknowns and companion states.  Solved steps use the scope-restricted
// engine, whose all-active case is bit-identical to the monolithic
// solve — see DESIGN.md ("Block latency contract") for the accuracy
// semantics.
#pragma once

#include <cstddef>
#include <vector>

#include "event/partition.hpp"
#include "event/queue.hpp"
#include "event/scoped_engine.hpp"
#include "spice/elements.hpp"
#include "spice/transient.hpp"

namespace si::event {

class EventScheduler {
 public:
  /// Partitions the finalized circuit once (the topology is frozen for
  /// the run) and builds the queue and scoped engine over it.  Every
  /// block starts active: the first steps settle the post-DC
  /// transient, and blocks earn latency by staying quiescent.
  EventScheduler(spice::Circuit& c, const spice::TransientOptions& opt);
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  /// Partition size, for TransientResult::event_blocks.
  std::size_t block_count() const { return partition_.block_count(); }

  /// Advances `x` across the grid step (t_prev, ctx.time]: dispatches
  /// the stimulus events in the step, closes the active set over ON
  /// boundary switches, then either holds the whole state (every block
  /// latent) or runs the scoped solve and accepts the solved elements.
  /// Adds the step's event_* statistics to `result`.
  void advance(double t_prev, const spice::StampContext& ctx,
               linalg::Vector& x, spice::TransientResult& result);

 private:
  /// A switch between two blocks, resolved for the activation pass.
  struct BoundarySwitch {
    const spice::Switch* sw;
    int block_a;
    int block_b;
  };

  spice::Circuit* circuit_;
  const spice::TransientOptions* opt_;
  CircuitPartition partition_;
  EventQueue queue_;
  ScopedMnaEngine scoped_;
  std::vector<BoundarySwitch> boundaries_;

  std::vector<unsigned char> active_;
  std::vector<unsigned char> stimulated_;
  std::vector<int> settle_;
  std::vector<double> block_delta_;
  std::vector<double> block_delta_prev_;
  linalg::Vector x_prev_;
};

}  // namespace si::event
