#include "spice/circuit.hpp"

#include <stdexcept>

namespace si::spice {

NodeId Circuit::node(const std::string& name) {
  if (const auto found = find_node(name)) return *found;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(name);
  node_ids_.emplace(name, id);
  return id;
}

std::optional<NodeId> Circuit::find_node(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGroundNode;
  const auto it = node_ids_.find(name);
  if (it == node_ids_.end()) return std::nullopt;
  return it->second;
}

void Circuit::finalize() {
  if (finalized_) return;
  branch_count_ = 0;
  for (auto& e : elements_) e->setup(*this);
  finalized_ = true;
  ++revision_;
}

Element* Circuit::find(const std::string& name) {
  for (auto& e : elements_)
    if (e->name() == name) return e.get();
  return nullptr;
}

const Element* Circuit::find(const std::string& name) const {
  for (const auto& e : elements_)
    if (e->name() == name) return e.get();
  return nullptr;
}

}  // namespace si::spice
