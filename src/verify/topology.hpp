// The SI topology index: what the ERC SI pack (src/erc/rules.cpp) and
// the abstract interpreter (absint.cpp) look up in a spice::Circuit,
// listed in linear time, so neither scans the element list per query.
//
// Element-order contract: every list below is in Circuit::elements()
// order, and every "first" is the first in that order.  Diagnostics and
// pair classifications name the devices and switches these lists yield,
// so the order is part of the output.
//
// Built once per erc::check / verify::analyze call, in O(elements); it
// holds pointers into the circuit, which must outlive it and stay
// unmodified.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"

namespace si::verify {

/// A class-AB memory-pair candidate (Fig. 1): an NMOS and a PMOS sharing
/// a drain, each gate tied to the drain directly (diode) or through a
/// switch.
struct ClassAbCandidate {
  const spice::Mosfet* mn = nullptr;
  const spice::Mosfet* mp = nullptr;
  spice::NodeId drain = spice::kGroundNode;
  int sn = -1;  ///< ordinal of the first n-gate-to-drain switch; -1 = diode
  int sp = -1;  ///< ordinal of the first p-gate-to-drain switch; -1 = diode
};

/// A CMFF extraction candidate (Fig. 2): an NMOS gated by an NMOS diode
/// master's node, on the master's source, draining into a PMOS diode.
struct CmffCandidate {
  const spice::Mosfet* master = nullptr;
  const spice::Mosfet* ext = nullptr;
};

/// A voltage source with one terminal on ground.
struct GroundedSource {
  const spice::VoltageSource* source = nullptr;  ///< null = none
  bool reversed = false;  ///< the + terminal is the grounded one
};

struct SiTopology {
  explicit SiTopology(const spice::Circuit& c);

  /// terminals[k] belongs to c.elements()[k].
  std::vector<std::vector<spice::Terminal>> terminals;
  /// attached[n] lists the (element index, terminal) pairs on node n.
  std::vector<std::vector<std::pair<std::size_t, spice::Terminal>>> attached;

  /// Every switch; a switch's ordinal is its index here.
  std::vector<const spice::Switch*> switches;
  /// switch_ordinal[k]: the ordinal of element k, -1 if not a switch.
  std::vector<int> switch_ordinal;

  /// MOSFETs per drain node and per gate node.
  std::vector<std::vector<const spice::Mosfet*>> by_drain, by_gate;
  /// Diode-connected MOSFETs (gate == drain), both types.
  std::vector<const spice::Mosfet*> diodes;
  /// grounded_source[n]: the first voltage source between n and ground.
  std::vector<GroundedSource> grounded_source;

  /// Ordered by (NMOS, PMOS) element order.
  std::vector<ClassAbCandidate> class_ab;
  /// Ordered by (master, extraction device) element order.
  std::vector<CmffCandidate> cmff;

  /// The ordinal of the first switch joining a and b (either
  /// orientation), or -1.
  int switch_between(spice::NodeId a, spice::NodeId b) const;

 private:
  /// Unordered node pair -> ordinal of its first switch.
  std::unordered_map<std::uint64_t, int> first_switch_;
};

}  // namespace si::verify
