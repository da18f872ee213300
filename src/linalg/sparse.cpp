#include "linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

#include "obs/telemetry.hpp"

namespace si::linalg {

namespace {

constexpr std::uint64_t pack(int r, int c) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) << 32) |
         static_cast<std::uint32_t>(c);
}

}  // namespace

std::shared_ptr<const SparsePattern> PatternBuilder::build(
    bool symmetrize) const {
  std::vector<std::uint64_t> coords = coords_;
  coords.reserve(coords.size() * (symmetrize ? 2 : 1) +
                 static_cast<std::size_t>(n_));
  if (symmetrize) {
    const std::size_t m = coords.size();
    for (std::size_t k = 0; k < m; ++k) {
      const int r = static_cast<int>(coords[k] >> 32);
      const int c = static_cast<int>(coords[k] & 0xffffffffu);
      coords.push_back(pack(c, r));
    }
  }
  for (int i = 0; i < n_; ++i) coords.push_back(pack(i, i));
  std::sort(coords.begin(), coords.end());
  coords.erase(std::unique(coords.begin(), coords.end()), coords.end());

  auto p = std::make_shared<SparsePattern>();
  p->n_ = n_;
  p->row_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  p->col_idx_.reserve(coords.size());
  for (const std::uint64_t key : coords) {
    const int r = static_cast<int>(key >> 32);
    const int c = static_cast<int>(key & 0xffffffffu);
    if (r < 0 || r >= n_ || c < 0 || c >= n_)
      throw std::out_of_range("PatternBuilder: coordinate out of range");
    ++p->row_ptr_[static_cast<std::size_t>(r) + 1];
    p->col_idx_.push_back(c);
  }
  for (int r = 0; r < n_; ++r)
    p->row_ptr_[static_cast<std::size_t>(r) + 1] +=
        p->row_ptr_[static_cast<std::size_t>(r)];
  p->diag_slots_.resize(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i)
    p->diag_slots_[static_cast<std::size_t>(i)] = p->find(i, i);
  return p;
}

std::vector<int> min_degree_order(const SparsePattern& p) {
  const int n = p.dim();
  const auto un = static_cast<std::size_t>(n);
  // Adjacency of the symmetrized graph, as sorted neighbor vectors
  // (self-loops dropped).  Only alive nodes ever appear in an alive
  // node's list: eliminating `best` rewrites exactly the lists that
  // held it.
  std::vector<std::vector<int>> adj(un);
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

  // Min-heap of (degree, index) keys, pushed whenever a degree changes;
  // a key is stale once its node is gone or its degree moved on.  The
  // top live key is the minimum degree with ties resolved to the lowest
  // original index — the documented tie-break (see min_degree_order in
  // sparse.hpp).
  using Key = std::pair<std::size_t, int>;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> heap;
  for (int v = 0; v < n; ++v)
    heap.emplace(adj[static_cast<std::size_t>(v)].size(), v);
  std::vector<char> eliminated(un, 0);
  std::vector<int> order;
  order.reserve(un);
  while (!heap.empty()) {
    const auto [deg, best] = heap.top();
    heap.pop();
    const auto ub = static_cast<std::size_t>(best);
    if (eliminated[ub] || adj[ub].size() != deg) continue;
    eliminated[ub] = 1;
    order.push_back(best);
    // Eliminating `best` makes its neighborhood a clique:
    // av := (av u nb) \ {v, best} for every neighbor v.
    const std::vector<int> nb = std::move(adj[ub]);
    for (const int v : nb) {
      auto& av = adj[static_cast<std::size_t>(v)];
      const std::size_t before = av.size();
      av.erase(std::lower_bound(av.begin(), av.end(), best));
      const auto old_size = static_cast<std::ptrdiff_t>(av.size());
      for (const int u : nb)
        if (u != v && !std::binary_search(av.begin(), av.begin() + old_size, u))
          av.push_back(u);
      std::inplace_merge(av.begin(), av.begin() + old_size, av.end());
      if (av.size() != before) heap.emplace(av.size(), v);
    }
  }
  return order;
}

namespace {

/// Row order and L+U pattern of the pre-ordered matrix B = A(cp, cp)
/// under partial pivoting (see "Sparse pivoting contract", DESIGN.md).
struct PivotReplay {
  std::vector<int> rows;  ///< rows[k] = pre-ordered row pivoted at step k
  std::shared_ptr<const SparsePattern> fill;
};

/// Left-looking sparse LU (Gilbert & Peierls 1988) of B that replays,
/// choice for choice, the dense partial pivoting of lu_factor_in_place
/// on a dense copy of B, in time proportional to the arithmetic:
///
///   - column k is x = B(:,k) minus the updates of the steps j < k its
///     structural reach holds, applied in ascending j — the order in
///     which the dense right-looking pass applies them — and skipping a
///     zero L(i,j) as the dense pass does, so every candidate value is
///     the dense pass's value;
///   - the pivot is the largest |x(i)| over the unpivoted rows, ties to
///     the lowest current position under the dense pass's row swaps;
///   - a pivot below pivot_tol * inf_norm(B) is singular, with the row
///     sums accumulated in ascending column order like inf_norm();
///   - L keeps its numerically zero entries, so the reach sets are the
///     symbolic fill of the permuted matrix.
template <typename T>
PivotReplay replay_partial_pivoting(const SparseMatrix<T>& a,
                                    const std::vector<int>& cp,
                                    const std::vector<int>& cinv,
                                    double pivot_tol) {
  const SparsePattern& ap = a.pattern();
  const int n = ap.dim();
  const auto un = static_cast<std::size_t>(n);

  // Column-compressed B.
  std::vector<std::size_t> bcol(un + 1, 0);
  for (const int c : ap.col_idx())
    ++bcol[static_cast<std::size_t>(cinv[static_cast<std::size_t>(c)]) + 1];
  for (std::size_t j = 0; j < un; ++j) bcol[j + 1] += bcol[j];
  std::vector<int> brow(ap.nnz());
  std::vector<T> bval(ap.nnz());
  {
    std::vector<std::size_t> cursor(bcol.begin(), bcol.end() - 1);
    for (int r = 0; r < n; ++r)
      for (std::size_t s = ap.row_ptr()[static_cast<std::size_t>(r)];
           s < ap.row_ptr()[static_cast<std::size_t>(r) + 1]; ++s) {
        const auto j = static_cast<std::size_t>(
            cinv[static_cast<std::size_t>(ap.col_idx()[s])]);
        brow[cursor[j]] = cinv[static_cast<std::size_t>(r)];
        bval[cursor[j]++] = a.values()[s];
      }
  }
  double scale = 0.0;
  {
    std::vector<double> row_sum(un, 0.0);
    for (std::size_t j = 0; j < un; ++j)
      for (std::size_t s = bcol[j]; s < bcol[j + 1]; ++s)
        row_sum[static_cast<std::size_t>(brow[s])] += std::abs(bval[s]);
    for (const double s : row_sum)
      if (s > scale) scale = s;
  }
  const double tol = pivot_tol * (scale > 0 ? scale : 1.0);

  PivotReplay out;
  out.rows.assign(un, -1);
  std::vector<int> step_of(un, -1);  // pre-ordered row -> pivot step
  std::vector<int> pos(un), row_at(un);  // the dense pass's row swaps
  for (int i = 0; i < n; ++i)
    pos[static_cast<std::size_t>(i)] = row_at[static_cast<std::size_t>(i)] = i;
  std::vector<std::size_t> lcol(un + 1, 0);  // L by column, rows unpivoted
  std::vector<int> lrow;                     // at that step
  std::vector<T> lval;
  PatternBuilder fill(n);

  std::vector<T> x(un, T{});
  std::vector<int> mark(un, -1);
  std::vector<int> reach, steps;
  for (int k = 0; k < n; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    // Structural reach of B(:,k) through the columns of L so far.
    reach.clear();
    for (std::size_t s = bcol[uk]; s < bcol[uk + 1]; ++s) {
      const auto i = static_cast<std::size_t>(brow[s]);
      x[i] = bval[s];
      if (mark[i] != k) {
        mark[i] = k;
        reach.push_back(brow[s]);
      }
    }
    for (std::size_t t = 0; t < reach.size(); ++t) {
      const int j = step_of[static_cast<std::size_t>(reach[t])];
      if (j < 0) continue;
      for (std::size_t s = lcol[static_cast<std::size_t>(j)];
           s < lcol[static_cast<std::size_t>(j) + 1]; ++s) {
        const auto i = static_cast<std::size_t>(lrow[s]);
        if (mark[i] != k) {
          mark[i] = k;
          reach.push_back(lrow[s]);
        }
      }
    }
    steps.clear();
    for (const int i : reach)
      if (step_of[static_cast<std::size_t>(i)] >= 0)
        steps.push_back(step_of[static_cast<std::size_t>(i)]);
    std::sort(steps.begin(), steps.end());

    for (const int j : steps) {
      const auto uj = static_cast<std::size_t>(j);
      fill.add(j, k);
      const T ujk = x[static_cast<std::size_t>(out.rows[uj])];
      for (std::size_t s = lcol[uj]; s < lcol[uj + 1]; ++s) {
        if (lval[s] == T{}) continue;
        x[static_cast<std::size_t>(lrow[s])] -= lval[s] * ujk;
      }
    }

    // Partial pivoting, replayed: the row now at position k, beaten only
    // by a strictly larger magnitude or an equal one at a lower position.
    int piv = row_at[uk];
    double best = std::abs(x[static_cast<std::size_t>(piv)]);
    for (const int i : reach) {
      const auto ui = static_cast<std::size_t>(i);
      if (step_of[ui] >= 0) continue;
      const double m = std::abs(x[ui]);
      if (m > best || (m == best && pos[ui] < pos[static_cast<std::size_t>(piv)])) {
        piv = i;
        best = m;
      }
    }
    if (best < tol)
      throw SingularMatrixError(static_cast<std::size_t>(cp[uk]));
    const auto up = static_cast<std::size_t>(piv);
    const int displaced = row_at[uk];
    row_at[static_cast<std::size_t>(pos[up])] = displaced;
    pos[static_cast<std::size_t>(displaced)] = pos[up];
    row_at[uk] = piv;
    pos[up] = k;
    step_of[up] = k;
    out.rows[uk] = piv;

    const T pivot = x[up];
    for (const int i : reach) {
      const auto ui = static_cast<std::size_t>(i);
      if (step_of[ui] < 0) {
        lrow.push_back(i);
        lval.push_back(x[ui] / pivot);
      }
      x[ui] = T{};
    }
    lcol[uk + 1] = lrow.size();
  }

  for (int k = 0; k < n; ++k)
    for (std::size_t s = lcol[static_cast<std::size_t>(k)];
         s < lcol[static_cast<std::size_t>(k) + 1]; ++s)
      fill.add(step_of[static_cast<std::size_t>(lrow[s])], k);
  out.fill = fill.build(/*symmetrize=*/false);
  return out;
}

}  // namespace

template <typename T>
void SparseLu<T>::build_symbolic(const SparseMatrix<T>& a) {
  const SparsePattern& ap = a.pattern();
  n_ = ap.dim();
  const auto un = static_cast<std::size_t>(n_);
  ++symbolic_builds_;

  // 1. Fill-reducing column pre-order (symmetric permutation first).
  cp_ = min_degree_order(ap);
  std::vector<int> cinv(un);
  for (int j = 0; j < n_; ++j) cinv[static_cast<std::size_t>(cp_[j])] = j;

  // 2. Pivoting first factorization of the pre-ordered matrix — fixes
  //    the row permutation and the L+U fill pattern, once per topology.
  //    Throws SingularMatrixError with the ORIGINAL column index.
  PivotReplay replay = replay_partial_pivoting(a, cp_, cinv, opt_.pivot_tol);
  rp_.resize(un);
  for (int i = 0; i < n_; ++i)
    rp_[static_cast<std::size_t>(i)] =
        cp_[static_cast<std::size_t>(replay.rows[static_cast<std::size_t>(i)])];
  fill_ = std::move(replay.fill);
  urow_start_.resize(un);
  for (int i = 0; i < n_; ++i) {
    const int d = fill_->find(i, i);
    urow_start_[static_cast<std::size_t>(i)] = static_cast<std::size_t>(d);
  }

  // 3. Scatter map from A's slots into factored coordinates.
  std::vector<int> rinv(un);
  for (int i = 0; i < n_; ++i) rinv[static_cast<std::size_t>(rp_[i])] = i;
  as_row_ptr_.assign(un + 1, 0);
  as_col_.resize(ap.nnz());
  as_slot_.resize(ap.nnz());
  for (int r = 0; r < n_; ++r)
    as_row_ptr_[static_cast<std::size_t>(rinv[static_cast<std::size_t>(r)]) +
                1] += ap.row_ptr()[static_cast<std::size_t>(r) + 1] -
                      ap.row_ptr()[static_cast<std::size_t>(r)];
  for (std::size_t i = 0; i < un; ++i) as_row_ptr_[i + 1] += as_row_ptr_[i];
  {
    std::vector<std::size_t> cursor(as_row_ptr_.begin(),
                                    as_row_ptr_.end() - 1);
    for (int r = 0; r < n_; ++r) {
      const auto fr = static_cast<std::size_t>(rinv[static_cast<std::size_t>(r)]);
      for (std::size_t s = ap.row_ptr()[static_cast<std::size_t>(r)];
           s < ap.row_ptr()[static_cast<std::size_t>(r) + 1]; ++s) {
        as_col_[cursor[fr]] =
            cinv[static_cast<std::size_t>(ap.col_idx()[s])];
        as_slot_[cursor[fr]] = s;
        ++cursor[fr];
      }
    }
  }

  fvals_.assign(fill_->nnz(), T{});
  diag_inv_.assign(un, T{});
  diag_ref_.assign(un, 0.0);
  work_.assign(un, T{});
  ywork_.assign(un, T{});
  a_pattern_ = a.pattern_ptr();
}

template <typename T>
void SparseLu<T>::refactor_values(const SparseMatrix<T>& a, bool fresh_pivot) {
  const auto un = static_cast<std::size_t>(n_);
  // A refactor pivot below the drift threshold is still sound when it
  // has kept the magnitude it had at the pivoting factorization — the
  // permutation was chosen with that scale, so nothing has drifted.
  constexpr double kRefFrac = 0.1;

  const auto& frp = fill_->row_ptr();
  const auto& fci = fill_->col_idx();
  for (std::size_t i = 0; i < un; ++i) {
    // Scatter row i of the permuted A over the frozen factor pattern.
    for (std::size_t s = frp[i]; s < frp[i + 1]; ++s)
      work_[static_cast<std::size_t>(fci[s])] = T{};
    double rmax = 0.0;  // row scale, for the row-relative pivot tests
    for (std::size_t s = as_row_ptr_[i]; s < as_row_ptr_[i + 1]; ++s) {
      const T v = a.values()[as_slot_[s]];
      work_[static_cast<std::size_t>(as_col_[s])] += v;
      rmax = std::max(rmax, std::abs(v));
    }
    // MNA rows span many orders of magnitude (a gate node guarded only
    // by gmin sits next to a 1-siemens switch row), so both tests are
    // relative to THIS row's scale, not the global matrix max — a
    // globally-relative threshold would flag legitimately tiny rows.
    // The first numeric pass reuses the values the pivoting pass just
    // accepted, so it applies the (loose) singularity threshold, not
    // the drift threshold: rejecting a pivot partial pivoting chose
    // moments earlier would be contradictory.
    const double scale = rmax > 0 ? rmax : 1.0;
    const double tol =
        (fresh_pivot ? opt_.pivot_tol : opt_.drift_tol) * scale;
    // Up-looking elimination against the already-factored rows.
    for (std::size_t s = frp[i]; s < urow_start_[i]; ++s) {
      const auto j = static_cast<std::size_t>(fci[s]);
      const T lij = work_[j] * diag_inv_[j];
      work_[j] = lij;
      if (lij == T{}) continue;
      for (std::size_t t = urow_start_[j] + 1; t < frp[j + 1]; ++t)
        work_[static_cast<std::size_t>(fci[t])] -= lij * fvals_[t];
    }
    const T d = work_[i];
    const double ad = std::abs(d);
    if (ad < tol && (fresh_pivot || ad < kRefFrac * diag_ref_[i])) {
      factored_ = false;
      // Local static so the hot numeric path never touches the registry
      // lock; the MNA engine re-pivots on this signal.
      static obs::Counter& drift = obs::counter("linalg.pivot_drift");
      drift.add();
      throw PivotDriftError(i);
    }
    if (fresh_pivot) diag_ref_[i] = ad;
    diag_inv_[i] = T{1} / d;
    for (std::size_t s = frp[i]; s < frp[i + 1]; ++s)
      fvals_[s] = work_[static_cast<std::size_t>(fci[s])];
  }
  factored_ = true;
}

template <typename T>
void SparseLu<T>::factor(const SparseMatrix<T>& a) {
  static obs::Timer& t = obs::timer("linalg.sparse.factor");
  obs::ScopedTimer timed(t);
  build_symbolic(a);  // throws SingularMatrixError on singular input
  try {
    refactor_values(a, /*fresh_pivot=*/true);
  } catch (const PivotDriftError& e) {
    // The pivoting pass succeeded but the frozen-order numeric pass hit
    // a tiny pivot (its row-relative test is stricter than the pivoting
    // pass's global threshold): treat as singular for this topology,
    // reporting the original column index.
    throw SingularMatrixError(static_cast<std::size_t>(cp_[e.row()]));
  }
}

template <typename T>
void SparseLu<T>::refactor(const SparseMatrix<T>& a) {
  if (!fill_ || a.pattern_ptr() != a_pattern_) {
    factor(a);
    return;
  }
  static obs::Timer& t = obs::timer("linalg.sparse.refactor");
  obs::ScopedTimer timed(t);
  refactor_values(a, /*fresh_pivot=*/false);
}

template <typename T>
void SparseLu<T>::solve(const std::vector<T>& b, std::vector<T>& x) const {
  const auto un = static_cast<std::size_t>(n_);
  if (!factored_) throw std::logic_error("SparseLu::solve before factor");
  if (b.size() != un)
    throw std::invalid_argument("SparseLu::solve: size mismatch");
  const auto& frp = fill_->row_ptr();
  const auto& fci = fill_->col_idx();
  // Forward-substitute L y = (row-permuted) b.
  for (std::size_t i = 0; i < un; ++i) {
    T acc = b[static_cast<std::size_t>(rp_[i])];
    for (std::size_t s = frp[i]; s < urow_start_[i]; ++s)
      acc -= fvals_[s] * ywork_[static_cast<std::size_t>(fci[s])];
    ywork_[i] = acc;
  }
  // Back-substitute U z = y.
  for (std::size_t ii = un; ii-- > 0;) {
    T acc = ywork_[ii];
    for (std::size_t s = urow_start_[ii] + 1; s < frp[ii + 1]; ++s)
      acc -= fvals_[s] * ywork_[static_cast<std::size_t>(fci[s])];
    ywork_[ii] = acc * diag_inv_[ii];
  }
  // Un-permute columns: x[cp_[j]] = z[j].
  x.resize(un);
  for (std::size_t j = 0; j < un; ++j)
    x[static_cast<std::size_t>(cp_[j])] = ywork_[j];
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

}  // namespace si::linalg
