#include "spice/element.hpp"

#include <stdexcept>

#include "spice/circuit.hpp"

namespace si::spice {

namespace {

/// MNA row of branch 0: branch unknowns follow the non-ground nodes.
int first_branch_row(const Circuit& c) {
  return static_cast<int>(c.node_count()) - 1;
}

}  // namespace

SolutionView::SolutionView(const Circuit& c, const linalg::Vector& x)
    : x_(&x), branch_base_(c.node_count() - 1) {
  if (x.size() != c.system_size())
    throw std::invalid_argument("SolutionView: vector size mismatch");
}

RealStamper::RealStamper(const Circuit& c, linalg::Matrix& a,
                         linalg::Vector& b, const linalg::Vector& x)
    : branch_base_(first_branch_row(c)),
      dense_(&a),
      b_(&b),
      x_(&x) {}

RealStamper::RealStamper(const Circuit& c, linalg::SparseMatrixD& a,
                         linalg::Vector& b, const linalg::Vector& x,
                         linalg::SlotMemo* memo)
    : branch_base_(first_branch_row(c)),
      sparse_(&a),
      memo_(memo),
      b_(&b),
      x_(&x) {}

RealStamper::RealStamper(const Circuit& c, linalg::PatternBuilder& rec,
                         linalg::Vector& b, const linalg::Vector& x)
    : branch_base_(first_branch_row(c)),
      record_(&rec),
      b_(&b),
      x_(&x) {}

RealStamper::RealStamper(const Circuit& c, linalg::Vector& b,
                         const linalg::Vector& x)
    : branch_base_(first_branch_row(c)), b_(&b), x_(&x) {}

void RealStamper::record(int r, int c) { record_->add(r, c); }

void RealStamper::branch_voltage_row(int branch, NodeId p, NodeId m) {
  const int row = branch_index(branch);
  const int ip = node_index(p);
  const int im = node_index(m);
  if (ip >= 0) {
    add(row, ip, 1.0);
    add(ip, row, 1.0);
  }
  if (im >= 0) {
    add(row, im, -1.0);
    add(im, row, -1.0);
  }
}

void RealStamper::branch_rhs(int branch, double v) {
  (*b_)[static_cast<std::size_t>(branch_index(branch))] += v;
}

void RealStamper::branch_row_entry(int branch, NodeId n, double coeff) {
  const int row = branch_index(branch);
  const int in = node_index(n);
  if (in >= 0) add(row, in, coeff);
}

void RealStamper::node_branch_entry(NodeId n, int branch, double coeff) {
  const int in = node_index(n);
  const int col = branch_index(branch);
  if (in >= 0) add(in, col, coeff);
}

void RealStamper::branch_branch_entry(int row_branch, int col_branch,
                                      double coeff) {
  add(branch_index(row_branch), branch_index(col_branch), coeff);
}

ComplexStamper::ComplexStamper(const Circuit& c, linalg::ComplexMatrix& a,
                               linalg::ComplexVector& b)
    : circuit_(&c), dense_(&a), b_(&b) {}

ComplexStamper::ComplexStamper(const Circuit& c, linalg::SparseMatrixZ& a,
                               linalg::ComplexVector& b,
                               linalg::SlotMemo* memo)
    : circuit_(&c), sparse_(&a), memo_(memo), b_(&b) {}

ComplexStamper::ComplexStamper(const Circuit& c, linalg::PatternBuilder& rec,
                               linalg::ComplexVector& b)
    : circuit_(&c), record_(&rec), b_(&b) {}

void ComplexStamper::add(int r, int c, std::complex<double> v) {
  if (dense_) {
    (*dense_)(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
  } else if (sparse_) {
    sparse_->add(r, c, v, memo_);
  } else {
    record_->add(r, c);
  }
}

int ComplexStamper::branch_index(int branch) const {
  return first_branch_row(*circuit_) + branch;
}

void ComplexStamper::admittance(NodeId a, NodeId b, std::complex<double> y) {
  const int ia = node_index(a);
  const int ib = node_index(b);
  if (ia >= 0) add(ia, ia, y);
  if (ib >= 0) add(ib, ib, y);
  if (ia >= 0 && ib >= 0) {
    add(ia, ib, -y);
    add(ib, ia, -y);
  }
}

void ComplexStamper::transadmittance(NodeId out_p, NodeId out_m, NodeId cp,
                                     NodeId cm, std::complex<double> y) {
  const int ip = node_index(out_p);
  const int im = node_index(out_m);
  const int icp = node_index(cp);
  const int icm = node_index(cm);
  if (ip >= 0 && icp >= 0) add(ip, icp, y);
  if (ip >= 0 && icm >= 0) add(ip, icm, -y);
  if (im >= 0 && icp >= 0) add(im, icp, -y);
  if (im >= 0 && icm >= 0) add(im, icm, y);
}

void ComplexStamper::current(NodeId p, NodeId m, std::complex<double> i) {
  const int ip = node_index(p);
  const int im = node_index(m);
  if (ip >= 0) (*b_)[static_cast<std::size_t>(ip)] -= i;
  if (im >= 0) (*b_)[static_cast<std::size_t>(im)] += i;
}

void ComplexStamper::branch_voltage_row(int branch, NodeId p, NodeId m) {
  const int row = branch_index(branch);
  const int ip = node_index(p);
  const int im = node_index(m);
  if (ip >= 0) {
    add(row, ip, 1.0);
    add(ip, row, 1.0);
  }
  if (im >= 0) {
    add(row, im, -1.0);
    add(im, row, -1.0);
  }
}

void ComplexStamper::branch_rhs(int branch, std::complex<double> v) {
  (*b_)[static_cast<std::size_t>(branch_index(branch))] += v;
}

void ComplexStamper::branch_row_entry(int branch, NodeId n,
                                      std::complex<double> coeff) {
  const int row = branch_index(branch);
  const int in = node_index(n);
  if (in >= 0) add(row, in, coeff);
}

void ComplexStamper::node_branch_entry(NodeId n, int branch,
                                       std::complex<double> coeff) {
  const int in = node_index(n);
  const int col = branch_index(branch);
  if (in >= 0) add(in, col, coeff);
}

void ComplexStamper::branch_branch_entry(int row_branch, int col_branch,
                                         std::complex<double> coeff) {
  add(branch_index(row_branch), branch_index(col_branch), coeff);
}

void Element::stamp_ac(ComplexStamper&, double) const {
  // Default: element vanishes in small-signal analysis (e.g. ideal
  // independent sources contribute nothing unless they are the AC input).
}

}  // namespace si::spice
