// Test fixtures for the MNA representation tests.
//
// The engines choose dense or sparse from the system size alone, so a
// test runs a circuit below kSparseAutoThreshold as is (dense) and again
// padded past it (sparse).  The padding is a grounded resistor ladder
// with no connection to the rest of the circuit: the original node
// voltages solve the same equations and keep their indices (branch
// currents move up by the number of pad nodes, since they follow every
// node).
//
// The two elements below violate the stamp-pattern contract on purpose,
// to exercise the engines' pattern-miss recovery.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "spice/mna.hpp"

namespace si::test {

/// Appends detached ladder nodes to `c` until it has `target` unknowns
/// (at least kSparseAutoThreshold by default), then re-finalizes.
inline void pad_unknowns(spice::Circuit& c,
                         std::size_t target = spice::kSparseAutoThreshold) {
  c.finalize();
  spice::NodeId prev = spice::kGroundNode;
  for (int k = 0; c.system_size() < target; ++k) {
    const std::string tag = std::to_string(k);
    const spice::NodeId n = c.node("pad" + tag);
    c.add<spice::Resistor>("Rpadg" + tag, n, c.ground(), 1e3);
    if (prev != spice::kGroundNode)
      c.add<spice::Resistor>("Rpads" + tag, prev, n, 1e3);
    prev = n;
  }
  c.finalize();
}

/// The unknowns of the circuit as it was before padding, read from a
/// solution of `c`: the voltages of nodes 1..nodes-1 (`nodes` counts
/// ground, as Circuit::node_count() does), then every branch current.
inline std::vector<double> original_unknowns(const spice::Circuit& c,
                                             std::size_t nodes,
                                             const linalg::Vector& x) {
  const spice::SolutionView sol(c, x);
  std::vector<double> out;
  for (std::size_t n = 1; n < nodes; ++n)
    out.push_back(sol.voltage(static_cast<spice::NodeId>(n)));
  for (int b = 0; b < c.branch_count(); ++b)
    out.push_back(sol.branch_current(b));
  return out;
}

/// Bridges its two nodes with 1 mS only in transient steps of at least
/// `dt_on`, so pattern discovery at a shorter step never sees the (a, b)
/// coordinates.  The bridge follows dt, not time: a linear element's
/// matrix stamp may depend only on the baseline key (DESIGN.md,
/// "Stamp-partition contract").
class LatePathElement : public spice::Element {
 public:
  LatePathElement(std::string name, spice::NodeId a, spice::NodeId b,
                  double dt_on)
      : Element(std::move(name)), a_(a), b_(b), dt_on_(dt_on) {}

  std::vector<spice::Terminal> terminals() const override {
    return {{a_, "p", false}, {b_, "m", false}};
  }

  void stamp(spice::RealStamper& s, const spice::StampContext& ctx) override {
    if (ctx.mode == spice::AnalysisMode::kTransient && ctx.dt >= dt_on_)
      s.conductance(a_, b_, 1e-3);
  }

 private:
  spice::NodeId a_, b_;
  double dt_on_;
};

/// A nonlinear element that bridges its nodes with 1 mS once v(a)
/// exceeds `v_on` in the iterate it is stamped at: a nonlinear device
/// that is not a MOSFET.  MnaEngine, which every DC and transient solve
/// runs on, refuses it, since it binds MOSFETs only.
class ThresholdBridge : public spice::Element {
 public:
  ThresholdBridge(std::string name, spice::NodeId a, spice::NodeId b,
                  double v_on)
      : Element(std::move(name)), a_(a), b_(b), v_on_(v_on) {}

  std::vector<spice::Terminal> terminals() const override {
    return {{a_, "p", false}, {b_, "m", false}};
  }

  bool nonlinear() const override { return true; }

  void stamp(spice::RealStamper& s, const spice::StampContext&) override {
    if (s.voltage(a_) > v_on_) s.conductance(a_, b_, 1e-3);
  }

 private:
  spice::NodeId a_, b_;
  double v_on_;
};

}  // namespace si::test
