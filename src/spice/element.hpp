// Element interface and the stampers through which elements contribute
// to the MNA system.  Nonlinear elements stamp their Newton companion
// model (linearization around the current iterate); reactive elements
// stamp their integration companion (backward Euler or trapezoidal).
#pragma once

#include <complex>
#include <functional>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace si::spice {

using NodeId = int;
constexpr NodeId kGroundNode = 0;

class Circuit;

enum class AnalysisMode {
  kDcOperatingPoint,  ///< capacitors open, time frozen at t=0
  kTransient,         ///< reactive companion models active
};

enum class Integrator { kBackwardEuler, kTrapezoidal };

/// Per-stamp context: what analysis is running, at what time/step.
struct StampContext {
  AnalysisMode mode = AnalysisMode::kDcOperatingPoint;
  double time = 0.0;
  double dt = 0.0;
  double gmin = 1e-12;  ///< leak conductance for nonlinear devices
  Integrator integrator = Integrator::kTrapezoidal;
};

/// Read-only view of a solved MNA vector with the circuit's layout.
class SolutionView {
 public:
  SolutionView(const Circuit& c, const linalg::Vector& x);

  /// Node voltage (0 for ground).
  double voltage(NodeId n) const {
    if (n == kGroundNode) return 0.0;
    return (*x_)[static_cast<std::size_t>(n - 1)];
  }

  /// Current through the element that owns `branch`.
  double branch_current(int branch) const {
    return (*x_)[branch_base_ + static_cast<std::size_t>(branch)];
  }

  const linalg::Vector& raw() const { return *x_; }

 private:
  const linalg::Vector* x_;
  std::size_t branch_base_ = 0;  // node_count() - 1: first branch unknown
};

/// Accumulates real (DC / transient Newton) stamps.
///
/// Three interchangeable backends keep the Element interface unchanged
/// while the MNA engine picks the representation:
///  - dense: writes into a DenseMatrix (the seed behavior);
///  - sparse: indexed writes into a SparseMatrix's nonzero array,
///    optionally through a SlotMemo so replayed Newton iterations skip
///    the slot search entirely (pattern-cached stamping);
///  - record: collects the (row, col) touches into a PatternBuilder
///    during the engine's one-time discovery pass (values discarded).
///
/// The per-entry write path is defined here so it compiles into every
/// device's stamp (DESIGN.md, "Stamp-partition contract"): add() tests
/// the event engine's scope, then writes through the sparse slot memo
/// or into the dense matrix, and calls out of line only for the
/// recorder.
class RealStamper {
 public:
  RealStamper(const Circuit& c, linalg::Matrix& a, linalg::Vector& b,
              const linalg::Vector& x);
  RealStamper(const Circuit& c, linalg::SparseMatrixD& a, linalg::Vector& b,
              const linalg::Vector& x, linalg::SlotMemo* memo = nullptr);
  RealStamper(const Circuit& c, linalg::PatternBuilder& rec,
              linalg::Vector& b, const linalg::Vector& x);

  /// Restricts stamping to the unknowns with scope[i] != 0 (size must
  /// equal the MNA system size; must outlive the stamper).  Rows outside
  /// the scope are dropped — their equations are frozen by the caller —
  /// and out-of-scope columns are condensed onto the RHS through the
  /// held iterate (b[r] -= a_rc * x[c]): the exact Dirichlet restriction
  /// of the monolithic system used by the event engine's block solves.
  void set_scope(const std::vector<unsigned char>* scope) { scope_ = scope; }

  /// Voltage of node `n` in the current Newton iterate.
  double voltage(NodeId n) const {
    if (n == kGroundNode) return 0.0;
    return (*x_)[static_cast<std::size_t>(n - 1)];
  }
  /// Branch current in the current Newton iterate.
  double branch_current(int branch) const {
    return (*x_)[static_cast<std::size_t>(branch_index(branch))];
  }

  /// Conductance g between nodes a and b (two-terminal stamp).
  void conductance(NodeId a, NodeId b, double g) {
    const int ia = node_index(a);
    const int ib = node_index(b);
    if (ia >= 0) add(ia, ia, g);
    if (ib >= 0) add(ib, ib, g);
    if (ia >= 0 && ib >= 0) {
      add(ia, ib, -g);
      add(ib, ia, -g);
    }
  }
  /// Transconductance: current g*(v(cp)-v(cm)) flowing from node `out_p`
  /// to node `out_m`.
  void transconductance(NodeId out_p, NodeId out_m, NodeId cp, NodeId cm,
                        double g) {
    const int ip = node_index(out_p);
    const int im = node_index(out_m);
    const int icp = node_index(cp);
    const int icm = node_index(cm);
    if (ip >= 0 && icp >= 0) add(ip, icp, g);
    if (ip >= 0 && icm >= 0) add(ip, icm, -g);
    if (im >= 0 && icp >= 0) add(im, icp, -g);
    if (im >= 0 && icm >= 0) add(im, icm, g);
  }
  /// Independent current i flowing from node `p` into node `m` through
  /// the element (i.e. leaves p, enters m).
  void current(NodeId p, NodeId m, double i) {
    const int ip = node_index(p);
    const int im = node_index(m);
    if (ip >= 0 && row_in_scope(ip))
      (*b_)[static_cast<std::size_t>(ip)] -= i;
    if (im >= 0 && row_in_scope(im))
      (*b_)[static_cast<std::size_t>(im)] += i;
  }

  // Branch-row helpers (voltage-defined elements).
  void branch_voltage_row(int branch, NodeId p, NodeId m);
  void branch_rhs(int branch, double v);
  void branch_row_entry(int branch, NodeId n, double coeff);
  void node_branch_entry(NodeId n, int branch, double coeff);
  void branch_branch_entry(int row_branch, int col_branch, double coeff);

 private:
  int node_index(NodeId n) const { return n - 1; }  // -1 for ground
  int branch_index(int branch) const { return branch_base_ + branch; }
  bool row_in_scope(int r) const {
    return !scope_ || (*scope_)[static_cast<std::size_t>(r)] != 0;
  }
  void add(int r, int c, double v) {
    if (scope_) {
      if (!(*scope_)[static_cast<std::size_t>(r)]) return;  // frozen equation
      if (!(*scope_)[static_cast<std::size_t>(c)]) {
        // Out-of-scope column: the unknown is held at its last solved
        // value, so its contribution is a known current — condense it.
        (*b_)[static_cast<std::size_t>(r)] -=
            v * (*x_)[static_cast<std::size_t>(c)];
        return;
      }
    }
    if (sparse_) {
      sparse_->add(r, c, v, memo_);
    } else if (dense_) {
      (*dense_)(static_cast<std::size_t>(r),
                static_cast<std::size_t>(c)) += v;
    } else {
      record(r, c);
    }
  }
  /// The one backend that stays out of line: discovery.
  void record(int r, int c);

  int branch_base_ = 0;  // node_count() - 1: row of branch 0
  linalg::Matrix* dense_ = nullptr;
  linalg::SparseMatrixD* sparse_ = nullptr;
  linalg::PatternBuilder* record_ = nullptr;
  linalg::SlotMemo* memo_ = nullptr;
  const std::vector<unsigned char>* scope_ = nullptr;
  linalg::Vector* b_;
  const linalg::Vector* x_;
};

/// Accumulates complex small-signal (AC) stamps.  Same topology helpers
/// as RealStamper but with complex admittances.
class ComplexStamper {
 public:
  ComplexStamper(const Circuit& c, linalg::ComplexMatrix& a,
                 linalg::ComplexVector& b);
  ComplexStamper(const Circuit& c, linalg::SparseMatrixZ& a,
                 linalg::ComplexVector& b, linalg::SlotMemo* memo = nullptr);
  ComplexStamper(const Circuit& c, linalg::PatternBuilder& rec,
                 linalg::ComplexVector& b);

  void admittance(NodeId a, NodeId b, std::complex<double> y);
  void transadmittance(NodeId out_p, NodeId out_m, NodeId cp, NodeId cm,
                       std::complex<double> y);
  void current(NodeId p, NodeId m, std::complex<double> i);
  void branch_voltage_row(int branch, NodeId p, NodeId m);
  void branch_rhs(int branch, std::complex<double> v);
  void branch_row_entry(int branch, NodeId n, std::complex<double> coeff);
  void node_branch_entry(NodeId n, int branch, std::complex<double> coeff);
  void branch_branch_entry(int row_branch, int col_branch,
                           std::complex<double> coeff);

 private:
  int node_index(NodeId n) const { return n - 1; }
  int branch_index(int branch) const;
  void add(int r, int c, std::complex<double> v);

  const Circuit* circuit_;
  linalg::ComplexMatrix* dense_ = nullptr;
  linalg::SparseMatrixZ* sparse_ = nullptr;
  linalg::PatternBuilder* record_ = nullptr;
  linalg::SlotMemo* memo_ = nullptr;
  linalg::ComplexVector* b_;
};

/// One element terminal for topology inspection (ERC, connectivity
/// analysis).  `role` is a short stable label: "p"/"m" for two-terminal
/// elements, "d"/"g"/"s"/"b" for MOSFETs, "op"/"om" for controlled-source
/// outputs, "cp"/"cm" for their sensing inputs.
struct Terminal {
  NodeId node = kGroundNode;
  const char* role = "";
  /// True for terminals that draw no DC current (MOS gate / bulk,
  /// capacitor plates, controlled-source sense inputs) — a node attached
  /// only to such terminals has no DC path.
  bool dc_blocking = false;
};

/// A device noise generator: a current source of the given one-sided PSD
/// [A^2/Hz] injected between two nodes.
struct NoiseSource {
  NodeId node_p = kGroundNode;
  NodeId node_m = kGroundNode;
  std::function<double(double f)> psd;
  std::string label;
};

/// Base class for all circuit elements.
class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}
  virtual ~Element() = default;

  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  const std::string& name() const { return name_; }

  /// One-time hook before analysis: allocate branch unknowns etc.
  virtual void setup(Circuit&) {}

  /// Every node this element touches, with terminal roles — the basis
  /// of the ERC connectivity analysis.  Pure so new elements cannot
  /// silently vanish from the topology checks.
  virtual std::vector<Terminal> terminals() const = 0;

  /// Branch-current unknowns this element allocated during setup()
  /// (voltage-defined elements).  The event-engine partitioner uses this
  /// to assign every MNA unknown, not just node voltages, to a block.
  virtual std::vector<int> branches() const { return {}; }

  /// Contributes the element's (possibly linearized) stamp.
  virtual void stamp(RealStamper& s, const StampContext& ctx) = 0;

  /// Called once per accepted transient step (and once after DC OP) with
  /// the converged solution; reactive and nonlinear elements update their
  /// internal state / stored operating point here.
  virtual void accept(const SolutionView&, const StampContext&) {}

  /// True if the element requires Newton iteration.
  virtual bool nonlinear() const { return false; }

  /// Small-signal stamp at angular frequency `omega`, linearized around
  /// the operating point captured by the last accept().
  virtual void stamp_ac(ComplexStamper&, double omega) const;

  /// Appends this element's noise generators (PSDs evaluated at the
  /// captured operating point).
  virtual void append_noise(std::vector<NoiseSource>&) const {}

  /// Power dissipated at the last accepted solution [W]; 0 if not
  /// meaningful for the element.
  virtual double dissipated_power(const SolutionView&) const { return 0.0; }

 private:
  std::string name_;
};

}  // namespace si::spice
