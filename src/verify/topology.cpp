#include "verify/topology.hpp"

#include <algorithm>

namespace si::verify {

namespace {

std::uint64_t pair_key(spice::NodeId a, spice::NodeId b) {
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  return lo << 32 | hi;
}

}  // namespace

SiTopology::SiTopology(const spice::Circuit& c) {
  using spice::kGroundNode;
  using spice::MosType;
  const auto& elems = c.elements();
  const std::size_t nodes = c.node_count();
  // Terminals first, so each node's list is allocated once.
  terminals.reserve(elems.size());
  std::vector<std::size_t> degree(nodes, 0);
  for (const auto& e : elems) {
    terminals.push_back(e->terminals());
    for (const spice::Terminal& term : terminals.back())
      ++degree[static_cast<std::size_t>(term.node)];
  }
  attached.resize(nodes);
  for (std::size_t n = 0; n < nodes; ++n) attached[n].reserve(degree[n]);
  switch_ordinal.assign(elems.size(), -1);
  by_drain.resize(nodes);
  by_gate.resize(nodes);
  grounded_source.resize(nodes);

  std::vector<const spice::Mosfet*> nmos;
  std::vector<unsigned char> pmos_diode_at(nodes, 0);
  for (std::size_t k = 0; k < elems.size(); ++k) {
    const auto& t = terminals[k];
    for (const spice::Terminal& term : t)
      attached[static_cast<std::size_t>(term.node)].emplace_back(k, term);

    const spice::Element& e = *elems[k];
    if (const auto* m = dynamic_cast<const spice::Mosfet*>(&e)) {
      by_drain[static_cast<std::size_t>(m->drain())].push_back(m);
      by_gate[static_cast<std::size_t>(m->gate())].push_back(m);
      const bool n_type = m->type() == MosType::kNmos;
      if (n_type) nmos.push_back(m);
      if (m->gate() == m->drain()) {
        diodes.push_back(m);
        if (!n_type) pmos_diode_at[static_cast<std::size_t>(m->drain())] = 1;
      }
    } else if (const auto* sw = dynamic_cast<const spice::Switch*>(&e)) {
      const int ordinal = static_cast<int>(switches.size());
      switch_ordinal[k] = ordinal;
      switches.push_back(sw);
      first_switch_.emplace(pair_key(t[0].node, t[1].node), ordinal);
    } else if (const auto* v = dynamic_cast<const spice::VoltageSource*>(&e)) {
      const bool reversed = t[1].node != kGroundNode;
      if (reversed && t[0].node != kGroundNode) continue;  // not grounded
      GroundedSource& g =
          grounded_source[static_cast<std::size_t>(t[reversed ? 1 : 0].node)];
      if (!g.source) g = {v, reversed};
    }
  }

  for (const spice::Mosfet* n : nmos) {
    const spice::NodeId d = n->drain();
    const int sn = n->gate() == d ? -1 : switch_between(n->gate(), d);
    if (n->gate() != d && sn < 0) continue;
    for (const spice::Mosfet* p : by_drain[static_cast<std::size_t>(d)]) {
      if (p->type() == MosType::kNmos) continue;
      const int sp = p->gate() == d ? -1 : switch_between(p->gate(), d);
      if (p->gate() != d && sp < 0) continue;
      class_ab.push_back({n, p, d, sn, sp});
    }
  }

  for (const spice::Mosfet* master : diodes) {
    if (master->type() != MosType::kNmos) continue;
    for (const spice::Mosfet* ext :
         by_gate[static_cast<std::size_t>(master->drain())]) {
      if (ext->type() != MosType::kNmos || ext->drain() == master->drain() ||
          ext->source() != master->source() ||
          !pmos_diode_at[static_cast<std::size_t>(ext->drain())])
        continue;
      cmff.push_back({master, ext});
    }
  }
}

int SiTopology::switch_between(spice::NodeId a, spice::NodeId b) const {
  const auto it = first_switch_.find(pair_key(a, b));
  return it == first_switch_.end() ? -1 : it->second;
}

}  // namespace si::verify
