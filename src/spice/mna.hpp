// MNA assembly/solve engine shared by every analysis.
//
// The engine owns the matrix representation (dense or sparse, chosen by
// system size with an SI_SOLVER override), the per-topology caches
// (sparsity pattern, symbolic factorization, element stamp-slot memos),
// and the preallocated workspaces that make the Newton and transient
// hot loops allocation-free after the first solve.
//
// Stamp-partition contract (see DESIGN.md): elements whose stamp values
// are fixed for one solve context — everything except devices reporting
// nonlinear() — are stamped once per newton() call into a baseline;
// each Newton iteration copies the baseline and restamps only the
// nonlinear devices through a slot memo, so the per-iteration cost is a
// value copy, a handful of indexed writes, and a numeric refactor.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/sparse.hpp"
#include "spice/dc.hpp"

namespace si::spice {

/// Matrix representation used by the MNA engines.
enum class SolverKind {
  kAuto,    ///< by size: dense < kSparseAutoThreshold <= sparse
  kDense,   ///< dense partial-pivot LU (the seed behavior)
  kSparse,  ///< CSR + symbolic-reuse sparse LU
};

/// Auto crossover: systems with at least this many unknowns go sparse.
/// Below it the dense factor's contiguous inner loops win.
constexpr std::size_t kSparseAutoThreshold = 32;

/// Parses the SI_SOLVER environment variable.  Unset or empty means
/// kAuto; "auto", "dense", "sparse" select explicitly; any other value
/// throws std::invalid_argument naming the valid choices (a typo like
/// SI_SOLVER=sprase must not silently benchmark the wrong solver).
SolverKind solver_kind_from_env();

/// Resolves a requested kind to a concrete one.  An explicit request
/// wins; kAuto defers to SI_SOLVER, then to the size heuristic.
SolverKind resolve_solver(SolverKind requested, std::size_t n);

/// Engine instrumentation, exposed for tests and benchmarks.
struct MnaStats {
  std::uint64_t pattern_builds = 0;     ///< discovery passes (per topology)
  std::uint64_t symbolic_factors = 0;   ///< sparse pivoting factorizations
  std::uint64_t numeric_refactors = 0;  ///< sparse numeric-only refactors
  std::uint64_t dense_factors = 0;      ///< dense LU factorizations
  std::uint64_t base_stamps = 0;        ///< baseline (linear-part) stamps
  std::uint64_t nonlinear_stamps = 0;   ///< per-iteration device restamps
  std::uint64_t workspace_allocs = 0;   ///< workspace (re)allocations
  std::uint64_t pivot_repivots = 0;     ///< refactors rescued by re-pivoting
  std::uint64_t dense_fallbacks = 0;    ///< pattern-miss dense engagements
};

/// Real-valued MNA engine: damped Newton solves for DC and transient.
///
/// Construct once per analysis run and reuse across solves; the pattern
/// and symbolic factorization are rebuilt automatically when
/// Circuit::revision() changes (an element was added and the circuit
/// re-finalized).
class MnaEngine {
 public:
  explicit MnaEngine(Circuit& c, SolverKind kind = SolverKind::kAuto);

  /// One damped Newton solve at a fixed context.  Identical contract to
  /// the free newton_solve(): seeds from `x` (resized/zeroed if the
  /// dimension is wrong), returns iterations used, throws
  /// ConvergenceError on failure.  `extra_gdiag` adds a conductance
  /// from every node to ground on top of opt.gmin (gmin stepping).
  int newton(const StampContext& ctx, linalg::Vector& x,
             const NewtonOptions& opt, double extra_gdiag = 0.0);

  /// The concrete representation in use (never kAuto after the first
  /// solve; dense until then).
  SolverKind active_solver() const { return active_; }

  const MnaStats& stats() const { return stats_; }

  Circuit& circuit() { return *circuit_; }

 private:
  void prepare(const StampContext& ctx);
  void stamp_baseline(const StampContext& ctx, const linalg::Vector& x,
                      double gdiag);
  void assemble_iteration(const StampContext& ctx, const linalg::Vector& x);
  void solve_dense();
  void solve_sparse();

  Circuit* circuit_;
  SolverKind requested_;
  SolverKind active_ = SolverKind::kDense;
  std::uint64_t revision_ = 0;
  bool prepared_ = false;
  bool dense_fallback_ = false;  ///< pattern contract violated; stay dense
  MnaStats stats_;

  std::vector<Element*> linear_;
  std::vector<Element*> nonlinear_;

  // Shared workspaces.
  linalg::Vector b0_;     // baseline RHS (linear contributions)
  linalg::Vector b_;      // per-iteration RHS
  linalg::Vector x_new_;  // Newton update target

  // Dense path.
  linalg::Matrix a0_dense_;  // baseline matrix
  linalg::Matrix a_dense_;   // per-iteration copy, factored in place
  std::vector<std::size_t> perm_;

  // Sparse path.
  std::shared_ptr<const linalg::SparsePattern> pattern_;
  linalg::SparseMatrixD a0_sparse_;
  linalg::SparseMatrixD a_sparse_;
  linalg::SlotMemo lin_memo_;  // baseline stamp slots (once per solve)
  linalg::SlotMemo nl_memo_;   // nonlinear restamp slots (per iteration)
  bool lin_memo_warm_ = false;
  bool nl_memo_warm_ = false;
  linalg::SparseLuD lu_;
  bool lu_warm_ = false;
};

/// Complex-valued engine for the small-signal analyses (AC sweep, noise
/// transfer functions).  Per frequency: restamp values over the frozen
/// pattern, numeric refactor, then solve any number of right-hand
/// sides.
class AcEngine {
 public:
  explicit AcEngine(Circuit& c, SolverKind kind = SolverKind::kAuto);

  /// Assembles and factors the small-signal system at angular frequency
  /// `omega`.  rhs() is zeroed; source stamps (AC magnitudes) land
  /// there during assembly.
  void assemble(double omega);

  /// The RHS accumulated by the last assemble() (AC source stamps).
  const linalg::ComplexVector& rhs() const { return b_; }

  /// Solves A x = b for the system of the last assemble().
  void solve(const linalg::ComplexVector& b, linalg::ComplexVector& x);

  SolverKind active_solver() const { return active_; }
  const MnaStats& stats() const { return stats_; }

 private:
  void prepare();

  Circuit* circuit_;
  SolverKind requested_;
  SolverKind active_ = SolverKind::kDense;
  std::uint64_t revision_ = 0;
  bool prepared_ = false;
  bool dense_fallback_ = false;
  MnaStats stats_;

  linalg::ComplexVector b_;

  linalg::ComplexMatrix a_dense_;  // assembled then factored in place
  std::vector<std::size_t> perm_;

  std::shared_ptr<const linalg::SparsePattern> pattern_;
  linalg::SparseMatrixZ a_sparse_;
  linalg::SlotMemo memo_;
  linalg::SparseLuZ lu_;
  bool lu_warm_ = false;
  bool memo_warm_ = false;
};

}  // namespace si::spice
