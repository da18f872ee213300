// MNA assembly/solve engines shared by every analysis.
//
// MnaSystem owns the matrix representation — dense below
// kSparseAutoThreshold unknowns, CSR + SparseLu at or above, decided
// here and nowhere else — together with everything that differs between
// the two: pattern discovery, the baseline and iteration matrices, the
// baseline slot memo, factor / refactor / re-pivot / solve, and recovery
// from a stamp outside the discovered pattern.  The two engines
// (MnaEngine, which every DC, transient and Monte-Carlo solve runs on,
// and AcEngine) keep the element lists, the RHS and the Newton loop,
// and never branch on the representation.
//
// Stamp-partition contract (see DESIGN.md): elements whose stamp values
// are fixed for one solve context — everything except devices reporting
// nonlinear() — are stamped into a baseline; each Newton iteration
// copies the baseline and restamps only the nonlinear devices, the
// MOSFETs, each through the block of matrix slots the system bound for
// it when the pattern was built, so the per-iteration cost is a value
// copy, a handful of indexed writes, and a numeric refactor.  MnaEngine
// stamps the baseline matrix again only when its key changes.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/sparse.hpp"
#include "spice/dc.hpp"
#include "spice/mosfet.hpp"

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
  std::uint64_t base_reuses = 0;        ///< solves that kept the baseline
  std::uint64_t nonlinear_stamps = 0;   ///< per-iteration restamps
  std::uint64_t workspace_allocs = 0;   ///< workspace (re)allocations
  std::uint64_t pivot_repivots = 0;     ///< refactors rescued by re-pivoting
  std::uint64_t pattern_misses = 0;     ///< stamps outside the pattern
};

/// The MNA matrix of one topology in the representation its size calls
/// for.
///
/// Assembly follows the stamp-partition contract: baseline_stamper()
/// zeros the baseline and returns a stamper writing into it;
/// load_iteration() copies the baseline into the iteration matrix and
/// stamp_bound() restamps the bound MOSFETs on top of it; factor() and
/// solve() then work on the iteration matrix.  The baseline stamper
/// writes straight into the dense matrix or, when sparse, through the
/// baseline slot memo.  AcEngine stamps every element into the baseline
/// and factors it as loaded.
///
/// A sparse stamp outside the pattern throws linalg::PatternMissError;
/// the caller hands it to add_to_pattern() and restarts its assembly.
/// Binding never misses: a MOSFET coordinate outside the pattern grows
/// it at bind time, before any iteration stamps.
template <typename T>
class MnaSystem {
 public:
  using Stamper = std::conditional_t<std::is_same_v<T, double>, RealStamper,
                                     ComplexStamper>;

  /// Sizes the system for `c` and picks the representation.  A sparse
  /// system discovers its pattern by stamping `linear` and `nonlinear`
  /// under both analysis modes: the same topology stamps different
  /// coordinate sets per mode (capacitor companions vanish at DC).
  void reset(const Circuit& c, const StampContext& ctx,
             const std::vector<Element*>& linear,
             const std::vector<Element*>& nonlinear)
    requires std::is_same_v<T, double>;

  /// Small-signal variant: discovers with every element's AC stamp at
  /// one frequency (only admittance values scale with omega).
  void reset(const Circuit& c)
    requires(!std::is_same_v<T, double>);

  /// Stamp-pattern contract recovery: adds the missed coordinate to the
  /// pattern, rebuilds it, drops the symbolic factorization and rebinds.
  void add_to_pattern(const linalg::PatternMissError& miss);

  /// Binds `nonlinear` for stamp_bound(): resolves each device's
  /// MosfetSlots in the current representation.  Every nonlinear
  /// element must be a Mosfet (std::logic_error otherwise).  The binding
  /// belongs to this system, not to the devices, and follows its
  /// pattern: add_to_pattern() re-resolves it and reset() drops it.
  void bind(const std::vector<Element*>& nonlinear)
    requires std::is_same_v<T, double>;

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

  /// Counts a solve that keeps the baseline of the last
  /// baseline_stamper().
  void reuse_baseline() { ++stats_.base_reuses; }

  /// Adds `g` to the baseline diagonal of rows [0, count) (the gmin
  /// leak).
  void add_diagonal(std::size_t count, T g);

  /// Copies the baseline into the iteration matrix and returns its
  /// values: row-major when dense, in pattern slot order when sparse.
  T* load_iteration() {
    ++stats_.nonlinear_stamps;
    if (!sparse_) {
      a_dense_ = a0_dense_;
      return a_dense_.data();
    }
    a_sparse_.copy_values_from(a0_sparse_);
    return a_sparse_.values().data();
  }

  /// Restamps every bound MOSFET, in bind() order, into `a` (from
  /// load_iteration()) and `b` at the iterate `x`.
  void stamp_bound(T* a, const StampContext& ctx, linalg::Vector& b,
                   const linalg::Vector& x) const
    requires std::is_same_v<T, double>
  {
    for (const BoundMosfet& d : bound_) {
      SlotStamper s(a, b.data(), x.data(), d.slots);
      d.device->stamp(s, ctx);
    }
  }

  /// Factors the iteration matrix: dense LU, or the sparse pivoting
  /// factor once per pattern and numeric refactors after it, re-pivoting
  /// when a frozen pivot drifts.  Throws linalg::SingularMatrixError.
  void factor();

  /// Solves with the last factor().
  void solve(const std::vector<T>& b, std::vector<T>& x) const;

  const MnaStats& stats() const { return stats_; }

 private:
  struct BoundMosfet {
    const Mosfet* device;
    MosfetSlots slots;
  };

  void resize(std::size_t n);
  void adopt_pattern(const linalg::PatternBuilder& rec);
  void grow_pattern(const linalg::PatternMissError& miss);
  void resolve_bound();
  T& baseline_diagonal(std::size_t i);

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
  // Baseline stamp slots: start_replay() on an empty memo records, so
  // the first pass after a (re)build fills it and later passes replay it.
  linalg::SlotMemo lin_memo_;
  linalg::SparseLu<T> lu_;
  bool lu_warm_ = false;

  std::vector<BoundMosfet> bound_;  // stamp_bound()'s devices and slots
};

/// Real-valued MNA engine: damped Newton solves for DC and transient.
///
/// Construct once per analysis run and reuse across solves; the pattern
/// and symbolic factorization are rebuilt automatically when
/// Circuit::revision() changes (an element was added and the circuit
/// re-finalized).  The baseline matrix lasts across solves while its
/// key holds: the analysis mode, dt, the integrator, the extra diagonal
/// and the on/off state of every Switch.  A solve under the same key
/// rebuilds only the baseline RHS, with the same adds in the same order
/// as a full stamp, so its results equal a full restamp bit for bit.
class MnaEngine {
 public:
  explicit MnaEngine(Circuit& c) : circuit_(&c) {}

  /// One damped Newton solve at a fixed context: seeds from `x`
  /// (resized/zeroed if the dimension is wrong), returns iterations
  /// used, throws ConvergenceError on failure.  `extra_gdiag` adds a
  /// conductance from every node to ground on top of kGmin (gmin
  /// stepping).
  int newton(const StampContext& ctx, linalg::Vector& x,
             const NewtonOptions& opt, double extra_gdiag = 0.0);

  const MnaStats& stats() const { return system_.stats(); }

  Circuit& circuit() { return *circuit_; }

 private:
  void prepare(const StampContext& ctx);
  /// True when the baseline matrix holds for `ctx` and `gdiag`; records
  /// them, and the switch states, as the key of the next full stamp.
  bool baseline_holds(const StampContext& ctx, double gdiag);
  int iterate(const StampContext& ctx, linalg::Vector& x,
              const NewtonOptions& opt, double gdiag);

  Circuit* circuit_;
  std::uint64_t revision_ = 0;
  bool prepared_ = false;
  MnaSystem<double> system_;

  std::vector<Element*> linear_;
  std::vector<Element*> nonlinear_;  // the MOSFETs, bound in system_
  std::vector<Element*> rhs_linear_;  // linear_ less the switches

  // The baseline key.  One switch stands for each group of switches
  // sharing a pulse_key; any other switch is a group of its own.
  bool baseline_valid_ = false;
  StampContext baseline_ctx_;
  double baseline_gdiag_ = 0.0;
  std::vector<const Switch*> switch_groups_;
  std::vector<bool> switch_states_;

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
