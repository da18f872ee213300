// Signal-flow graph over the circuit IR: directed "influences" edges
// between nodes, derived from Element::terminals() metadata.  The
// abstract interpreter visits nodes in the topological order of the
// graph's strongly connected components, so acyclic circuits converge
// in one pass; nodes inside a non-trivial SCC are feedback loops and
// become widening points.
#pragma once

#include <cstddef>
#include <vector>

#include "spice/circuit.hpp"

namespace si::verify {

/// One directed influence edge: a change at `from` can move `to`.
struct SfgEdge {
  int from = 0;
  int to = 0;
  std::size_t element = 0;  ///< index into Circuit::elements()
};

struct Sfg {
  std::size_t node_count = 0;
  std::vector<SfgEdge> edges;
  /// Successor adjacency per node.
  std::vector<std::vector<int>> succ;
  /// scc_id[n]: strongly-connected-component id of node n, numbered in
  /// reverse topological order of the condensation (Tarjan).
  std::vector<int> scc_id;
  /// Nodes sorted by DC dependency: sources/rails first, loads last.
  /// Members of one SCC are contiguous.
  std::vector<int> order;
  /// is_feedback[n]: node n belongs to an SCC with more than one node
  /// (a feedback loop) — a widening point for the fixpoint engine.
  std::vector<unsigned char> is_feedback;
};

/// Extracts the signal-flow graph of `c`.  Edge directions encode DC
/// influence: a voltage source couples its terminals both ways, a
/// resistor or switch likewise, a MOSFET couples drain and source both
/// ways but its gate only influences (dc_blocking terminals never
/// receive an edge), and controlled sources point from their sensing
/// terminals to their outputs.
Sfg build_sfg(const spice::Circuit& c);

}  // namespace si::verify
