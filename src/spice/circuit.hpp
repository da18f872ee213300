// Netlist container: named nodes, owned elements, and the MNA unknown
// layout (node voltages followed by branch currents).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/element.hpp"

namespace si::spice {

/// A circuit under construction / analysis.  Node 0 is ground.
///
/// Unknown layout for all analyses: x = [v(1..N-1), i(branch 0..B-1)].
class Circuit {
 public:
  Circuit() { node_names_.push_back("0"); }

  Circuit(const Circuit&) = delete;
  Circuit& operator=(const Circuit&) = delete;
  Circuit(Circuit&&) = default;
  Circuit& operator=(Circuit&&) = default;

  /// Returns the id of the named node, creating it on first use.
  NodeId node(const std::string& name);

  /// Finds a node by name without creating it; nullopt if absent.
  std::optional<NodeId> find_node(const std::string& name) const;

  NodeId ground() const { return kGroundNode; }

  /// Number of nodes including ground.
  std::size_t node_count() const { return node_names_.size(); }

  const std::string& node_name(NodeId n) const { return node_names_.at(n); }

  /// Constructs an element in place; the circuit owns it.  Returns a
  /// reference that stays valid for the circuit's lifetime.
  template <typename T, typename... Args>
  T& add(Args&&... args) {
    auto p = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *p;
    elements_.push_back(std::move(p));
    finalized_ = false;
    return ref;
  }

  const std::vector<std::unique_ptr<Element>>& elements() const {
    return elements_;
  }

  /// Called by elements during setup() to reserve a branch-current
  /// unknown (voltage sources and VCVS need one).
  int allocate_branch() { return branch_count_++; }

  int branch_count() const { return branch_count_; }

  /// Dimension of the MNA system (nodes excluding ground + branches).
  std::size_t system_size() const {
    return node_count() - 1 + static_cast<std::size_t>(branch_count_);
  }

  /// Runs element setup once (idempotent); analyses call this.
  void finalize();

  /// Monotonic topology revision.  Bumped every time finalize() runs
  /// after an edit; MNA engines compare it to decide whether their
  /// cached sparsity pattern / symbolic factorization is still valid.
  std::uint64_t revision() const { return revision_; }

  /// Finds an element by name; nullptr if absent.
  Element* find(const std::string& name);
  const Element* find(const std::string& name) const;

 private:
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> node_ids_;
  std::vector<std::unique_ptr<Element>> elements_;
  int branch_count_ = 0;
  bool finalized_ = false;
  std::uint64_t revision_ = 0;
};

}  // namespace si::spice
