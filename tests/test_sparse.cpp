// Sparse pattern / sparse LU unit tests: randomized dense-vs-sparse
// equivalence on MNA-shaped and SPD matrices (real and complex),
// refactor reuse, pivot drift, singular-matrix parity with the dense
// path, the slot-memo replay used by pattern-cached stamping, and the
// sparse pivoting contract: SparseLu's row order and L+U pattern must
// equal those of the dense-pass reference below on circuit Jacobians,
// tie-heavy random systems and singular inputs.
#include <gtest/gtest.h>

#include <complex>
#include <optional>
#include <random>
#include <string>

#include "analysis/mc_batch.hpp"
#include "linalg/lu.hpp"
#include "linalg/sparse.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"

using namespace si::linalg;
using cplx = std::complex<double>;

namespace {

// Reference symbolic phase: the linear-scan minimum-degree order, partial
// pivoting on a dense copy of the pre-ordered matrix, and bitset symbolic
// elimination of the permuted pattern.  SparseLu must reproduce its row
// order and fill pattern exactly (see "Sparse pivoting contract" in
// DESIGN.md).
namespace reference {

std::vector<int> min_degree_order(const SparsePattern& p) {
  const int n = p.dim();
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    for (std::size_t s = p.row_ptr()[static_cast<std::size_t>(r)];
         s < p.row_ptr()[static_cast<std::size_t>(r) + 1]; ++s) {
      const int c = p.col_idx()[s];
      if (c == r) continue;
      adj[static_cast<std::size_t>(r)].push_back(c);
      adj[static_cast<std::size_t>(c)].push_back(r);
    }
  for (auto& v : adj) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  std::vector<int> order;
  std::vector<int> merged;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    std::size_t best_deg = 0;
    for (int v = 0; v < n; ++v) {
      if (eliminated[static_cast<std::size_t>(v)]) continue;
      const std::size_t deg = adj[static_cast<std::size_t>(v)].size();
      if (best < 0 || deg < best_deg) {
        best = v;
        best_deg = deg;
      }
    }
    order.push_back(best);
    eliminated[static_cast<std::size_t>(best)] = 1;
    auto& nb = adj[static_cast<std::size_t>(best)];
    nb.erase(std::remove_if(
                 nb.begin(), nb.end(),
                 [&](int v) { return eliminated[static_cast<std::size_t>(v)]; }),
             nb.end());
    for (const int v : nb) {
      auto& av = adj[static_cast<std::size_t>(v)];
      merged.clear();
      std::set_union(av.begin(), av.end(), nb.begin(), nb.end(),
                     std::back_inserter(merged));
      merged.erase(
          std::remove_if(merged.begin(), merged.end(),
                         [&](int u) {
                           return u == v ||
                                  eliminated[static_cast<std::size_t>(u)];
                         }),
          merged.end());
      av.swap(merged);
    }
    nb.clear();
  }
  return order;
}

std::shared_ptr<const SparsePattern> symbolic_fill(
    const SparsePattern& a, const std::vector<int>& rows,
    const std::vector<int>& cols) {
  const auto un = static_cast<std::size_t>(a.dim());
  std::vector<int> cinv(un);
  for (std::size_t j = 0; j < un; ++j)
    cinv[static_cast<std::size_t>(cols[j])] = static_cast<int>(j);
  const std::size_t words = (un + 63) / 64;
  std::vector<std::uint64_t> bits(un * words, 0);
  auto set_bit = [&](std::size_t r, std::size_t c) {
    bits[r * words + c / 64] |= std::uint64_t{1} << (c % 64);
  };
  auto test_bit = [&](std::size_t r, std::size_t c) {
    return (bits[r * words + c / 64] >> (c % 64)) & 1u;
  };
  for (std::size_t i = 0; i < un; ++i) {
    const auto orig = static_cast<std::size_t>(rows[i]);
    for (std::size_t s = a.row_ptr()[orig]; s < a.row_ptr()[orig + 1]; ++s)
      set_bit(i, static_cast<std::size_t>(
                     cinv[static_cast<std::size_t>(a.col_idx()[s])]));
    set_bit(i, i);
  }
  for (std::size_t k = 0; k < un; ++k) {
    const std::size_t kw = k / 64;
    const std::uint64_t khigh_mask = ~((std::uint64_t{2} << (k % 64)) - 1);
    for (std::size_t i = k + 1; i < un; ++i) {
      if (!test_bit(i, k)) continue;
      std::uint64_t* ri = &bits[i * words];
      const std::uint64_t* rk = &bits[k * words];
      ri[kw] |= rk[kw] & khigh_mask;
      for (std::size_t w = kw + 1; w < words; ++w) ri[w] |= rk[w];
    }
  }
  PatternBuilder b(a.dim());
  for (std::size_t i = 0; i < un; ++i)
    for (std::size_t c = 0; c < un; ++c)
      if (test_bit(i, c)) b.add(static_cast<int>(i), static_cast<int>(c));
  return b.build(/*symmetrize=*/false);
}

struct Symbolic {
  std::vector<int> rows, cols;
  std::shared_ptr<const SparsePattern> fill;
};

/// Throws SingularMatrixError with the original column index.
template <typename T>
Symbolic build_symbolic(const SparseMatrix<T>& a) {
  const SparsePattern& ap = a.pattern();
  const auto un = static_cast<std::size_t>(ap.dim());
  Symbolic out;
  out.cols = reference::min_degree_order(ap);
  std::vector<std::size_t> cinv(un);
  for (std::size_t j = 0; j < un; ++j)
    cinv[static_cast<std::size_t>(out.cols[j])] = j;
  DenseMatrix<T> m(un, un);
  for (std::size_t r = 0; r < un; ++r)
    for (std::size_t s = ap.row_ptr()[r]; s < ap.row_ptr()[r + 1]; ++s)
      m(cinv[r], cinv[static_cast<std::size_t>(ap.col_idx()[s])]) =
          a.values()[s];
  std::vector<std::size_t> perm;
  try {
    lu_factor_in_place(m, perm, 1e-13);
  } catch (const SingularMatrixError& e) {
    throw SingularMatrixError(
        static_cast<std::size_t>(out.cols[e.column()]));
  }
  out.rows.resize(un);
  for (std::size_t i = 0; i < un; ++i) out.rows[i] = out.cols[perm[i]];
  out.fill = reference::symbolic_fill(ap, out.rows, out.cols);
  return out;
}

}  // namespace reference

/// Factors `a` and checks it against the reference: the same column
/// pre-order, row order and L+U pattern, or the same singular column.
/// Returns the reference's singular column (nullopt when it factored).
template <typename T>
std::optional<std::size_t> expect_replays_reference(const SparseMatrix<T>& a,
                                                    const std::string& what) {
  std::optional<reference::Symbolic> want;
  std::optional<std::size_t> want_singular;
  try {
    want = reference::build_symbolic(a);
  } catch (const SingularMatrixError& e) {
    want_singular = e.column();
  }
  SparseLu<T> lu;
  std::optional<std::size_t> got_singular;
  try {
    lu.factor(a);
  } catch (const SingularMatrixError& e) {
    got_singular = e.column();
  }
  if (want_singular) {
    EXPECT_EQ(got_singular, want_singular) << what;
    return want_singular;
  }
  // A singular throw from the numeric pass (its row-relative test) comes
  // after the symbolic phase, whose layout is still comparable.
  EXPECT_EQ(lu.col_order(), want->cols) << what;
  EXPECT_EQ(lu.row_order(), want->rows) << what;
  if (!lu.fill()) {
    ADD_FAILURE() << what << ": no fill pattern";
    return std::nullopt;
  }
  EXPECT_EQ(lu.fill()->row_ptr(), want->fill->row_ptr()) << what;
  EXPECT_EQ(lu.fill()->col_idx(), want->fill->col_idx()) << what;
  return std::nullopt;
}

// Random sparse pattern shaped like an MNA system: a diagonally-coupled
// node block plus a few "branch rows" with zero diagonal that only
// couple off-diagonally (the voltage-source structure that forces real
// pivoting).
struct RandomSystem {
  std::shared_ptr<const SparsePattern> pattern;
  std::vector<std::pair<int, int>> coords;  // includes the transpose pairs
};

RandomSystem random_mna_pattern(int n_nodes, int n_branches,
                                std::mt19937& rng) {
  const int n = n_nodes + n_branches;
  PatternBuilder b(n);
  std::vector<std::pair<int, int>> coords;
  std::uniform_int_distribution<int> node(0, n_nodes - 1);
  // Two-terminal conductances between random node pairs.
  for (int k = 0; k < 3 * n_nodes; ++k) {
    const int i = node(rng), j = node(rng);
    b.add(i, i);
    b.add(j, j);
    b.add(i, j);
    b.add(j, i);
    coords.push_back({i, i});
    coords.push_back({j, j});
    coords.push_back({i, j});
    coords.push_back({j, i});
  }
  // Branch rows: +-1 couplings, structurally zero diagonal.
  for (int k = 0; k < n_branches; ++k) {
    const int row = n_nodes + k;
    const int i = node(rng);
    b.add(row, i);
    b.add(i, row);
    coords.push_back({row, i});
    coords.push_back({i, row});
  }
  RandomSystem s;
  s.pattern = b.build();
  s.coords = coords;
  return s;
}

template <typename T>
T random_value(std::mt19937& rng);

template <>
double random_value<double>(std::mt19937& rng) {
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  return d(rng);
}

template <>
cplx random_value<cplx>(std::mt19937& rng) {
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  return {d(rng), d(rng)};
}

// Fills a random MNA-shaped matrix: conductance-like values plus a
// dominant diagonal on the node block and +-1 branch couplings.
template <typename T>
SparseMatrix<T> random_mna_values(const RandomSystem& s, int n_nodes,
                                  std::mt19937& rng) {
  SparseMatrix<T> a(s.pattern);
  for (const auto& [i, j] : s.coords)
    a.add(i, j, random_value<T>(rng) * T{0.3});
  for (int i = 0; i < n_nodes; ++i) a.add(i, i, T{4.0});
  // Branch couplings get unit-scale entries.
  const auto& rp = s.pattern->row_ptr();
  for (int r = n_nodes; r < s.pattern->dim(); ++r)
    for (std::size_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = s.pattern->col_idx()[k];
      if (c != r) {
        a.add(r, c, T{1.0});
        a.add(c, r, T{1.0});
      }
    }
  return a;
}

template <typename T>
double rel_err(const std::vector<T>& a, const std::vector<T>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num = std::max(num, std::abs(a[i] - b[i]));
    den = std::max(den, std::abs(b[i]));
  }
  return num / (den > 0 ? den : 1.0);
}

template <typename T>
void check_dense_sparse_agree(int n_nodes, int n_branches,
                              std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto sys = random_mna_pattern(n_nodes, n_branches, rng);
  const auto a = random_mna_values<T>(sys, n_nodes, rng);
  const int n = sys.pattern->dim();

  std::vector<T> bvec(static_cast<std::size_t>(n));
  for (auto& v : bvec) v = random_value<T>(rng);

  LuFactorization<T> dense(a.to_dense());
  const std::vector<T> x_dense = dense.solve(bvec);

  SparseLu<T> lu;
  lu.factor(a);
  std::vector<T> x_sparse;
  lu.solve(bvec, x_sparse);

  EXPECT_LT(rel_err(x_sparse, x_dense), 1e-12)
      << "n_nodes=" << n_nodes << " branches=" << n_branches
      << " seed=" << seed;

  // Residual check against the original matrix.
  const auto r = a.multiply(x_sparse);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(r[static_cast<std::size_t>(i)] -
                         bvec[static_cast<std::size_t>(i)]),
                0.0, 1e-9);
}

}  // namespace

TEST(SparsePattern, BuildSortsDeduplicatesAndAddsDiagonal) {
  PatternBuilder b(4);
  b.add(2, 1);
  b.add(2, 1);
  b.add(0, 3);
  const auto p = b.build(/*symmetrize=*/false);
  EXPECT_EQ(p->dim(), 4);
  // 2 unique off-diagonal coords + 4 diagonal entries.
  EXPECT_EQ(p->nnz(), 6u);
  EXPECT_GE(p->find(2, 1), 0);
  EXPECT_GE(p->find(0, 3), 0);
  EXPECT_EQ(p->find(1, 2), -1);
  EXPECT_EQ(p->find(3, 0), -1);
  for (int i = 0; i < 4; ++i) EXPECT_GE(p->find(i, i), 0);
  EXPECT_EQ(p->diag_slots().size(), 4u);
}

TEST(SparsePattern, SymmetrizeAddsTransposedCoords) {
  PatternBuilder b(3);
  b.add(0, 2);
  const auto p = b.build(/*symmetrize=*/true);
  EXPECT_GE(p->find(0, 2), 0);
  EXPECT_GE(p->find(2, 0), 0);
}

TEST(SparseMatrix, AddOutsidePatternThrows) {
  PatternBuilder b(3);
  b.add(0, 1);
  SparseMatrix<double> a(b.build(false));
  a.add(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(a.get(0, 1), 2.0);
  EXPECT_THROW(a.add(1, 2, 1.0), PatternMissError);
}

TEST(SparseMatrix, SlotMemoReplaysAndPatchesShiftedSequences) {
  PatternBuilder b(3);
  b.add(0, 1);
  b.add(1, 0);
  SparseMatrix<double> a(b.build(false));
  SlotMemo memo;

  memo.start_record();
  a.add(0, 1, 1.0, &memo);
  a.add(1, 0, 1.0, &memo);
  ASSERT_EQ(memo.slots.size(), 2u);

  memo.start_replay();
  a.add(0, 1, 1.0, &memo);  // fast path
  a.add(1, 0, 1.0, &memo);
  EXPECT_DOUBLE_EQ(a.get(0, 1), 2.0);

  // Shifted sequence (swapped order): must still land correctly.
  memo.start_replay();
  a.add(1, 0, 5.0, &memo);
  a.add(0, 1, 7.0, &memo);
  EXPECT_DOUBLE_EQ(a.get(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(a.get(0, 1), 9.0);

  // Longer-than-recorded sequence appends.
  memo.start_replay();
  a.add(1, 0, 0.0, &memo);
  a.add(0, 1, 0.0, &memo);
  a.add(2, 2, 3.0, &memo);
  EXPECT_DOUBLE_EQ(a.get(2, 2), 3.0);
}

TEST(MinDegree, ProducesAValidPermutation) {
  std::mt19937 rng(7);
  const auto sys = random_mna_pattern(12, 3, rng);
  const auto order = min_degree_order(*sys.pattern);
  ASSERT_EQ(order.size(), 15u);
  std::vector<char> seen(15, 0);
  for (int v : order) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 15);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = 1;
  }
}

TEST(SparseOrdering, MinDegreeTieBreak) {
  // Pins the documented tie-break: equal minimum degrees eliminate the
  // LOWEST original index first, making the ordering a pure function of
  // the pattern (see min_degree_order in sparse.hpp).
  {
    // Star 0-{1,2,3,4} plus edge 3-4.  Ties at step 1 (leaves 1 vs 2),
    // step 3 (0, 3, 4 all degree 2) and step 4 (3 vs 4).
    PatternBuilder b(5);
    for (int leaf : {1, 2, 3, 4}) b.add(0, leaf);
    b.add(3, 4);
    const auto order = min_degree_order(*b.build(true));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3, 4}));
  }
  {
    // Path 0-1-2-3: both endpoints start at degree 1; index order wins.
    PatternBuilder b(4);
    b.add(0, 1);
    b.add(1, 2);
    b.add(2, 3);
    const auto order = min_degree_order(*b.build(true));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  }
  {
    // Fully tied: an empty pattern (diagonal only) must come out in
    // index order, and repeated runs must agree exactly.
    PatternBuilder b(6);
    const auto p = b.build(true);
    const auto order = min_degree_order(*p);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(order, min_degree_order(*p));
  }
}

TEST(SparseLu, AgreesWithDenseOnRandomMnaSystemsReal) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed)
    check_dense_sparse_agree<double>(10 + 3 * static_cast<int>(seed),
                                     static_cast<int>(seed % 4), seed);
}

TEST(SparseLu, AgreesWithDenseOnRandomMnaSystemsComplex) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed)
    check_dense_sparse_agree<cplx>(10 + 3 * static_cast<int>(seed),
                                   static_cast<int>(seed % 4), seed);
}

TEST(SparseLu, AgreesWithDenseOnSpdMatrices) {
  // SPD-ish: symmetric value assignment with a strong diagonal.
  std::mt19937 rng(42);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 20 + 10 * trial;
    const auto sys = random_mna_pattern(n, 0, rng);
    SparseMatrix<double> a(sys.pattern);
    for (const auto& [i, j] : sys.coords) {
      if (i > j) continue;
      const double v = random_value<double>(rng) * 0.2;
      a.add(i, j, v);
      if (i != j) a.add(j, i, v);
    }
    for (int i = 0; i < n; ++i) a.add(i, i, 5.0);

    std::vector<double> b(static_cast<std::size_t>(n));
    for (auto& v : b) v = random_value<double>(rng);

    LuFactorization<double> dense(a.to_dense());
    SparseLu<double> lu;
    lu.factor(a);
    std::vector<double> xs;
    lu.solve(b, xs);
    EXPECT_LT(rel_err(xs, dense.solve(b)), 1e-12);
  }
}

TEST(SparseLu, RefactorReusesSymbolicAndMatchesFreshFactor) {
  std::mt19937 rng(11);
  const auto sys = random_mna_pattern(20, 4, rng);
  auto a = random_mna_values<double>(sys, 20, rng);

  SparseLu<double> lu;
  lu.factor(a);
  EXPECT_EQ(lu.symbolic_builds(), 1u);

  // New values, same pattern: refactor must not redo symbolic analysis.
  std::mt19937 rng2(12);
  auto a2 = random_mna_values<double>(sys, 20, rng2);
  lu.refactor(a2);
  EXPECT_EQ(lu.symbolic_builds(), 1u);

  std::vector<double> b(a2.values().size() ? static_cast<std::size_t>(
                                                 sys.pattern->dim())
                                           : 0u);
  for (auto& v : b) v = random_value<double>(rng2);
  std::vector<double> xs;
  lu.solve(b, xs);
  EXPECT_LT(rel_err(xs, LuFactorization<double>(a2.to_dense()).solve(b)),
            1e-12);
}

TEST(SparseLu, SingularMatrixParityWithDense) {
  // Two identical rows -> singular for both engines.
  PatternBuilder pb(3);
  pb.add(0, 1);
  pb.add(1, 0);
  pb.add(0, 0);
  pb.add(1, 1);
  pb.add(2, 2);
  SparseMatrix<double> a(pb.build());
  a.add(0, 0, 1.0);
  a.add(0, 1, 2.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 2.0);
  a.add(2, 2, 1.0);

  EXPECT_THROW(LuFactorization<double> dense(a.to_dense()),
               SingularMatrixError);
  SparseLu<double> lu;
  EXPECT_THROW(lu.factor(a), SingularMatrixError);
}

TEST(SparseLu, PivotDriftOnRefactorThrowsAndRefactorsAfterRepivot) {
  // Factor with a benign matrix, then collapse a pivot to ~0 while a
  // large entry elsewhere keeps the matrix well-conditioned: the frozen
  // pivot order is now bad and the refactor must say so.
  PatternBuilder pb(2);
  pb.add(0, 1);
  pb.add(1, 0);
  SparseMatrix<double> a(pb.build());
  a.add(0, 0, 1.0);
  a.add(1, 1, 1.0);
  a.add(0, 1, 0.0);
  a.add(1, 0, 0.0);

  SparseLu<double> lu;
  lu.factor(a);

  SparseMatrix<double> bad(a.pattern_ptr());
  bad.add(0, 0, 0.0);
  bad.add(0, 1, 1.0);
  bad.add(1, 0, 1.0);
  bad.add(1, 1, 0.0);
  EXPECT_THROW(lu.refactor(bad), PivotDriftError);

  // A full factor() re-pivots and handles it.
  lu.factor(bad);
  std::vector<double> x;
  lu.solve({2.0, 3.0}, x);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, SolveIsReusableAcrossManyRhs) {
  std::mt19937 rng(5);
  const auto sys = random_mna_pattern(15, 2, rng);
  const auto a = random_mna_values<cplx>(sys, 15, rng);
  SparseLu<cplx> lu;
  lu.factor(a);
  LuFactorization<cplx> dense(a.to_dense());

  std::vector<cplx> b(static_cast<std::size_t>(sys.pattern->dim()));
  std::vector<cplx> x;
  for (int k = 0; k < 5; ++k) {
    for (auto& v : b) v = random_value<cplx>(rng);
    lu.solve(b, x);
    EXPECT_LT(rel_err(x, dense.solve(b)), 1e-12);
  }
}

namespace {

namespace nets = si::cells::netlists;
namespace spice = si::spice;

/// The DC and transient Jacobians of a circuit at its DC operating
/// point, over the pattern the MNA engine discovers (DC and transient
/// stamps, symmetrized), with gmin on the node diagonal as the engine
/// stamps it; the transient one at dt = period / 200.
struct CircuitJacobians {
  SparseMatrixD dc, tran;
};

CircuitJacobians jacobians_at_operating_point(spice::Circuit& c,
                                              double period) {
  c.finalize();
  const std::size_t n = c.system_size();
  spice::DcOptions dopt;
  dopt.erc_gate = false;
  const Vector x = spice::dc_operating_point(c, dopt).x;
  spice::StampContext dc_ctx;
  spice::StampContext tran_ctx;
  tran_ctx.mode = spice::AnalysisMode::kTransient;
  tran_ctx.dt = period / 200.0;
  Vector b(n);
  PatternBuilder pb(static_cast<int>(n));
  for (const auto* ctx : {&dc_ctx, &tran_ctx}) {
    spice::RealStamper rec(c, pb, b, x);
    for (const auto& e : c.elements()) e->stamp(rec, *ctx);
  }
  const auto pattern = pb.build(/*symmetrize=*/true);
  auto assemble = [&](const spice::StampContext& ctx) {
    SparseMatrixD a(pattern);
    spice::RealStamper s(c, a, b, x);
    for (const auto& e : c.elements()) e->stamp(s, ctx);
    for (std::size_t i = 0; i + 1 < c.node_count(); ++i)
      a.values()[static_cast<std::size_t>(pattern->diag_slots()[i])] +=
          ctx.gmin;
    return a;
  };
  return {assemble(dc_ctx), assemble(tran_ctx)};
}

/// Table 2 modulator core with its differential input sources.
double build_modulator(spice::Circuit& c, int sections) {
  c.add<spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  const auto h = nets::build_modulator_core(c, sections, opt, "mod_");
  c.add<spice::CurrentSource>("Iinp", c.ground(), h.in_p, 1e-6);
  c.add<spice::CurrentSource>("Iinm", c.ground(), h.in_m, -1e-6);
  return opt.stage.pair.clock_period;
}

}  // namespace

TEST(SparseLuReplay, ModulatorCoreDcAndTransientJacobians) {
  for (int sections : {1, 2, 8, 16, 64, 128}) {
    spice::Circuit c;
    const double period = build_modulator(c, sections);
    const auto j = jacobians_at_operating_point(c, period);
    const std::string what = "modulator sections=" + std::to_string(sections);
    EXPECT_FALSE(expect_replays_reference(j.dc, what + " dc"));
    EXPECT_FALSE(expect_replays_reference(j.tran, what + " tran"));
  }
}

TEST(SparseLuReplay, DelayLineMonteCarloMatrices) {
  // The transistor-level mismatch-yield study: 32-stage chain, DC
  // Jacobian at each trial's operating point.
  const auto w = si::analysis::delay_line_mismatch_workload(32);
  spice::Circuit c;
  const auto fns = w.build(c);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    fns.apply(seed);
    const auto j = jacobians_at_operating_point(c, 1.0);
    EXPECT_FALSE(expect_replays_reference(
        j.dc, "delay line trial seed=" + std::to_string(seed)));
  }
}

TEST(SparseLuReplay, ComplexAcMatrices) {
  for (int sections : {1, 8}) {
    spice::Circuit c;
    const double period = build_modulator(c, sections);
    (void)jacobians_at_operating_point(c, period);  // linearizes the devices
    const std::size_t n = c.system_size();
    ComplexVector b(n);
    PatternBuilder pb(static_cast<int>(n));
    {
      spice::ComplexStamper rec(c, pb, b);
      for (const auto& e : c.elements()) e->stamp_ac(rec, 1.0);
    }
    const auto pattern = pb.build(/*symmetrize=*/true);
    for (double omega : {1e3, 1e6, 1e9}) {
      SparseMatrixZ a(pattern);
      spice::ComplexStamper s(c, a, b);
      for (const auto& e : c.elements()) e->stamp_ac(s, omega);
      EXPECT_FALSE(expect_replays_reference(
          a, "ac sections=" + std::to_string(sections) +
                 " omega=" + std::to_string(omega)));
    }
  }
}

TEST(SparseLuReplay, TiedPivotCandidatesOnRandomMnaSystems) {
  // Small-integer (real) and unit-modulus (complex) values make equal-
  // magnitude pivot candidates common, so the position tie-break decides
  // many pivots.
  const double reals[] = {-2.0, -1.0, 1.0, 2.0};
  const cplx units[] = {{1.0, 0.0}, {-1.0, 0.0}, {0.0, 1.0}, {0.0, -1.0}};
  std::size_t nonsingular = 0;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    std::mt19937 rng(seed);
    const int n_nodes = 8 + static_cast<int>(seed % 23);
    const auto sys = random_mna_pattern(n_nodes, static_cast<int>(seed % 5), rng);
    std::uniform_int_distribution<int> pick(0, 3);
    SparseMatrixD ar(sys.pattern);
    SparseMatrixZ az(sys.pattern);
    for (const auto& [i, j] : sys.coords) {
      ar.add(i, j, reals[pick(rng)]);
      az.add(i, j, units[pick(rng)]);
    }
    const std::string what = "seed=" + std::to_string(seed);
    nonsingular += !expect_replays_reference(ar, what + " real");
    nonsingular += !expect_replays_reference(az, what + " complex");
  }
  EXPECT_GT(nonsingular, 40u);  // most draws must reach a full factor
}

TEST(SparseLuReplay, SingularInputsThrowTheReferenceColumn) {
  std::mt19937 rng(3);
  const auto sys = random_mna_pattern(12, 2, rng);
  // A zeroed node row, a row duplicated into another, a zeroed column.
  for (int variant = 0; variant < 3; ++variant) {
    auto a = random_mna_values<double>(sys, 12, rng);
    auto& v = a.values();
    const auto& rp = sys.pattern->row_ptr();
    const auto& ci = sys.pattern->col_idx();
    if (variant == 0) {
      for (std::size_t s = rp[5]; s < rp[6]; ++s) v[s] = 0.0;
    } else if (variant == 1) {
      // Row 7 := row 3, on a pattern that gives both rows the union of
      // their columns.
      PatternBuilder pb(sys.pattern->dim());
      for (int r = 0; r < sys.pattern->dim(); ++r)
        for (std::size_t s = rp[static_cast<std::size_t>(r)];
             s < rp[static_cast<std::size_t>(r) + 1]; ++s) {
          pb.add(r, ci[s]);
          if (r == 3) pb.add(7, ci[s]);
          if (r == 7) pb.add(3, ci[s]);
        }
      SparseMatrixD dup(pb.build(/*symmetrize=*/false));
      for (int r = 0; r < sys.pattern->dim(); ++r) {
        if (r == 7) continue;
        for (std::size_t s = rp[static_cast<std::size_t>(r)];
             s < rp[static_cast<std::size_t>(r) + 1]; ++s)
          dup.add(r, ci[s], v[s]);
      }
      for (std::size_t s = rp[3]; s < rp[4]; ++s) dup.add(7, ci[s], v[s]);
      EXPECT_TRUE(expect_replays_reference(dup, "duplicated row"));
      continue;
    } else {
      for (int r = 0; r < sys.pattern->dim(); ++r) {
        const int slot = sys.pattern->find(r, 4);
        if (slot >= 0) v[static_cast<std::size_t>(slot)] = 0.0;
      }
    }
    EXPECT_TRUE(expect_replays_reference(
        a, "singular variant " + std::to_string(variant)));
  }
}

TEST(MinDegree, MatchesReferenceOnHubPatterns) {
  // A supply-rail-like hub adjacent to at least half the nodes: the
  // ordering must stay the reference's, tie-break included.
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    std::mt19937 rng(seed);
    const int n = 16 << (seed % 6);
    std::uniform_int_distribution<int> node(0, n - 1);
    const int hub = node(rng);
    PatternBuilder b(n);
    for (int k = 0; k < n / 2; ++k) b.add(hub, node(rng));
    for (int v = 0; v < n; v += 2) b.add(hub, v);
    for (int k = 0; k < n; ++k) b.add(node(rng), node(rng));
    const auto p = b.build(/*symmetrize=*/true);
    const std::size_t hub_degree =
        p->row_ptr()[static_cast<std::size_t>(hub) + 1] -
        p->row_ptr()[static_cast<std::size_t>(hub)];
    ASSERT_GE(2 * hub_degree, static_cast<std::size_t>(n));
    EXPECT_EQ(min_degree_order(*p), reference::min_degree_order(*p))
        << "seed=" << seed << " n=" << n;
  }
}
