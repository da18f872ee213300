// MNA assembly/solve engines shared by every analysis.
//
// MnaSystem owns the matrix representation — dense below
// kSparseAutoThreshold unknowns, CSR + SparseLu at or above, decided
// here and nowhere else — together with everything that differs between
// the two: pattern discovery, the baseline and iteration matrices and
// their slot memos, factor / refactor / re-pivot / solve, and recovery
// from a stamp outside the discovered pattern.  The engines (MnaEngine,
// AcEngine, event::ScopedMnaEngine) keep the element lists, the RHS and
// the Newton loop, and never branch on the representation.
//
// Stamp-partition contract (see DESIGN.md): elements whose stamp values
// are fixed for one solve context — everything except devices reporting
// nonlinear() — are stamped once per newton() call into a baseline;
// each Newton iteration copies the baseline and restamps only the
// nonlinear devices through a slot memo, so the per-iteration cost is a
// value copy, a handful of indexed writes, and a numeric refactor.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/sparse.hpp"
#include "spice/dc.hpp"

namespace si::spice {

/// Systems with at least this many unknowns run sparse.  Below it the
/// dense factor's contiguous inner loops win, and a fresh sparse system
/// would pay pattern discovery plus a symbolic factor that a small dense
/// LU never does.
constexpr std::size_t kSparseAutoThreshold = 32;

/// Engine instrumentation, exposed for tests and benchmarks.
struct MnaStats {
  std::uint64_t pattern_builds = 0;     ///< discovery and miss rebuilds
  std::uint64_t symbolic_factors = 0;   ///< sparse pivoting factorizations
  std::uint64_t numeric_refactors = 0;  ///< sparse numeric-only refactors
  std::uint64_t dense_factors = 0;      ///< dense LU factorizations
  std::uint64_t base_stamps = 0;        ///< baseline (linear-part) stamps
  std::uint64_t nonlinear_stamps = 0;   ///< per-iteration restamps
  std::uint64_t workspace_allocs = 0;   ///< workspace (re)allocations
  std::uint64_t pivot_repivots = 0;     ///< refactors rescued by re-pivoting
  std::uint64_t pattern_misses = 0;     ///< stamps outside the pattern

  MnaStats& operator+=(const MnaStats& o);
};

/// The MNA matrix of one topology (or one event-engine scope) in the
/// representation its size calls for.
///
/// Assembly follows the stamp-partition contract: baseline_stamper()
/// zeros the baseline and returns a stamper writing into it;
/// iteration_stamper() loads the baseline into the iteration matrix and
/// returns a stamper writing on top; factor() and solve() then work on
/// the iteration matrix.  Stampers write straight into the dense matrix
/// or, when sparse, through the matching slot memo.
///
/// A sparse stamp outside the pattern throws linalg::PatternMissError;
/// the caller hands it to add_to_pattern() and restarts its assembly.
template <typename T>
class MnaSystem {
 public:
  using Stamper = std::conditional_t<std::is_same_v<T, double>, RealStamper,
                                     ComplexStamper>;

  /// `report` also feeds the process-wide mna.* work counters (pattern
  /// builds, factors, refactors, re-pivots); the event engine's
  /// per-scope systems count in stats() only.  Pattern misses always
  /// reach mna.pattern_misses.
  explicit MnaSystem(bool report = true) : report_(report) {}

  /// Sizes the system for `c` and picks the representation.  A sparse
  /// system discovers its pattern by stamping `linear` and `nonlinear`
  /// (restricted to `scope` when given) under both analysis modes: the
  /// same topology stamps different coordinate sets per mode (capacitor
  /// companions vanish at DC).
  void reset(const Circuit& c, const StampContext& ctx,
             const std::vector<Element*>& linear,
             const std::vector<Element*>& nonlinear,
             const std::vector<unsigned char>* scope = nullptr)
    requires std::is_same_v<T, double>;

  /// Small-signal variant: discovers with every element's AC stamp at
  /// one frequency (only admittance values scale with omega).
  void reset(const Circuit& c)
    requires(!std::is_same_v<T, double>);

  /// Stamp-pattern contract recovery: adds the missed coordinate to the
  /// pattern, rebuilds it and drops the symbolic factorization.
  void add_to_pattern(const linalg::PatternMissError& miss);

  /// Zeros the baseline and returns a stamper over it; `args` are the
  /// stamper's RHS (and, for real stamps, iterate) arguments.
  template <typename... Args>
  Stamper baseline_stamper(const Circuit& c, Args&... args) {
    ++stats_.base_stamps;
    if (!sparse_) {
      a0_dense_.set_zero();
      return Stamper(c, a0_dense_, args...);
    }
    a0_sparse_.set_zero();
    lin_memo_.start_replay();
    return Stamper(c, a0_sparse_, args..., &lin_memo_);
  }

  /// Adds `g` to the baseline diagonal of rows [0, count), skipping rows
  /// with scope[i] == 0 when `scope` is given (the gmin leak).
  void add_diagonal(std::size_t count, T g,
                    const std::vector<unsigned char>* scope = nullptr);

  /// Makes every baseline row with scope[r] == 0 an identity row
  /// (A[r,r] = 1): the held unknowns of an event-engine scope.
  void freeze_rows(const std::vector<unsigned char>& scope);

  /// Copies the baseline into the iteration matrix and returns a
  /// stamper writing on top of it.
  template <typename... Args>
  Stamper iteration_stamper(const Circuit& c, Args&... args) {
    ++stats_.nonlinear_stamps;
    if (!sparse_) {
      a_dense_ = a0_dense_;
      return Stamper(c, a_dense_, args...);
    }
    a_sparse_.copy_values_from(a0_sparse_);
    nl_memo_.start_replay();
    return Stamper(c, a_sparse_, args..., &nl_memo_);
  }

  /// Factors the iteration matrix: dense LU, or the sparse pivoting
  /// factor once per pattern and numeric refactors after it, re-pivoting
  /// when a frozen pivot drifts.  Throws linalg::SingularMatrixError.
  void factor();

  /// Solves with the last factor().
  void solve(const std::vector<T>& b, std::vector<T>& x) const;

  const MnaStats& stats() const { return stats_; }

 private:
  void resize(std::size_t n);
  void adopt_pattern(const linalg::PatternBuilder& rec);
  T& baseline_diagonal(std::size_t i);

  bool report_;
  bool sparse_ = false;
  MnaStats stats_;

  // Dense representation.
  linalg::DenseMatrix<T> a0_dense_;  // baseline
  linalg::DenseMatrix<T> a_dense_;   // iteration copy, factored in place
  std::vector<std::size_t> perm_;

  // Sparse representation.
  std::shared_ptr<const linalg::SparsePattern> pattern_;
  linalg::SparseMatrix<T> a0_sparse_;
  linalg::SparseMatrix<T> a_sparse_;
  // Slot memos: start_replay() on an empty memo records, so the first
  // pass after a (re)build fills it and later passes replay it.
  linalg::SlotMemo lin_memo_;  // baseline stamp slots
  linalg::SlotMemo nl_memo_;   // iteration restamp slots
  linalg::SparseLu<T> lu_;
  bool lu_warm_ = false;
};

/// The damped Newton update shared by MnaEngine and the event engine's
/// scoped solves: x += x_new - x, with the `n_nodes` node-voltage
/// updates clamped to ±opt.max_step.  Returns true when every node
/// update was within v_abstol + v_reltol·|x| before clamping.
bool damped_newton_update(linalg::Vector& x, const linalg::Vector& x_new,
                          std::size_t n_nodes, const NewtonOptions& opt);

/// Real-valued MNA engine: damped Newton solves for DC and transient.
///
/// Construct once per analysis run and reuse across solves; the pattern
/// and symbolic factorization are rebuilt automatically when
/// Circuit::revision() changes (an element was added and the circuit
/// re-finalized).
class MnaEngine {
 public:
  explicit MnaEngine(Circuit& c) : circuit_(&c) {}

  /// One damped Newton solve at a fixed context.  Identical contract to
  /// the free newton_solve(): seeds from `x` (resized/zeroed if the
  /// dimension is wrong), returns iterations used, throws
  /// ConvergenceError on failure.  `extra_gdiag` adds a conductance
  /// from every node to ground on top of opt.gmin (gmin stepping).
  int newton(const StampContext& ctx, linalg::Vector& x,
             const NewtonOptions& opt, double extra_gdiag = 0.0);

  const MnaStats& stats() const { return system_.stats(); }

  Circuit& circuit() { return *circuit_; }

 private:
  void prepare(const StampContext& ctx);
  int iterate(const StampContext& ctx, linalg::Vector& x,
              const NewtonOptions& opt, double gdiag);

  Circuit* circuit_;
  std::uint64_t revision_ = 0;
  bool prepared_ = false;
  MnaSystem<double> system_;

  std::vector<Element*> linear_;
  std::vector<Element*> nonlinear_;

  linalg::Vector seed_;   // the caller's seed: a pattern miss restarts here
  linalg::Vector b0_;     // baseline RHS (linear contributions)
  linalg::Vector b_;      // per-iteration RHS
  linalg::Vector x_new_;  // Newton update target
};

/// Complex-valued engine for the small-signal analyses (AC sweep, noise
/// transfer functions).  Per frequency: restamp values over the frozen
/// pattern, numeric refactor, then solve any number of right-hand
/// sides.
class AcEngine {
 public:
  explicit AcEngine(Circuit& c) : circuit_(&c) {}

  /// Assembles and factors the small-signal system at angular frequency
  /// `omega`.  rhs() is zeroed; source stamps (AC magnitudes) land
  /// there during assembly.
  void assemble(double omega);

  /// The RHS accumulated by the last assemble() (AC source stamps).
  const linalg::ComplexVector& rhs() const { return b_; }

  /// Solves A x = b for the system of the last assemble().
  void solve(const linalg::ComplexVector& b, linalg::ComplexVector& x) {
    system_.solve(b, x);
  }

  const MnaStats& stats() const { return system_.stats(); }

 private:
  Circuit* circuit_;
  std::uint64_t revision_ = 0;
  bool prepared_ = false;
  MnaSystem<std::complex<double>> system_;
  linalg::ComplexVector b_;
};

}  // namespace si::spice
