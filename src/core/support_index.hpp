// Sparse support index over a dense demand matrix.
//
// Every decomposition kernel in this repo (BvN peeling, Solstice slicing,
// stuffing, threshold matching) repeatedly asks the same questions of a
// mutating matrix: which entries of row i are nonzero?  what is nnz now?
// what are the row/column sums?  Answering them from the dense storage
// costs O(N) or O(N^2) per query, which dominates once the matrix is
// sparse — and the paper's Facebook-trace workload is overwhelmingly
// sparse (Table I: 86% of coflows in the sparse class).  SupportIndex
// keeps per-row and per-column adjacency plus incrementally maintained
// aggregates, so support queries are O(1)/O(degree) and the whole peeling
// loop becomes proportional to nnz instead of N^2.
//
// Layout (the N >= 1024 scaling work, DESIGN.md "Scaling to N >= 1024"):
// adjacency lives in *blocked SoA arenas*, not per-line std::vectors.  One
// flat column arena plus a parallel value arena hold every row's support
// as a contiguous block {offset, size, capacity}; the column side keeps a
// structure-only arena (no value mirror — no hot loop streams values in
// column order).  An O(degree) iteration therefore streams two flat
// arrays (indices and values side by side) instead of chasing a
// heap-allocated vector per line and then striding the N-wide dense row
// for each value — which is what kept the matching/peeling kernels
// memory-bound at N >= 1024.  Blocks grow by relocation to the arena tail
// (amortized O(1), compaction when garbage exceeds half the arena), so
// iteration order and results are identical to the per-vector layout.
#pragma once

#include <cstddef>
#include <vector>

#include "core/matrix.hpp"
#include "core/types.hpp"

namespace reco {

/// Lightweight view of one line's support indices inside the arena.
/// Invalidated by any mutation of the index (set/add/assign/release), like
/// iterators into a vector — do not hold one across writes.
class SupportSpan {
 public:
  SupportSpan() = default;
  SupportSpan(const int* data, int size) : data_(data), size_(size) {}
  const int* begin() const { return data_; }
  const int* end() const { return data_ + size_; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int operator[](int k) const { return data_[k]; }
  int front() const { return data_[0]; }
  int back() const { return data_[size_ - 1]; }

 private:
  const int* data_ = nullptr;
  int size_ = 0;
};

/// View of the values parallel to a row's SupportSpan: element k is the
/// matrix entry at column row_support(i)[k].  Same invalidation rule.
class ValueSpan {
 public:
  ValueSpan() = default;
  ValueSpan(const double* data, int size) : data_(data), size_(size) {}
  const double* begin() const { return data_; }
  const double* end() const { return data_ + size_; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double operator[](int k) const { return data_[k]; }

 private:
  const double* data_ = nullptr;
  int size_ = 0;
};

/// Owns a dense Matrix and maintains, under `set`/`add` mutation:
///   * row_support(i) / col_support(j) — sorted indices of nonzero entries;
///   * row_values(i) — values parallel to row_support(i), streamed from
///     the SoA value arena (no dense-row gather);
///   * row_sum / col_sum / nnz / row_nnz / col_nnz — O(1) aggregates;
///   * rho / tau — O(N) over the cached per-line aggregates.
///
/// Invariants:
///   * an entry is in the support iff it is exactly nonzero, and every
///     stored value is either exact 0.0 or at least kTimeEps in magnitude:
///     `set` snaps sub-tolerance values to zero (the same clamp_zero
///     convention the subtraction chains already follow), so the support
///     never accumulates stale tolerance-crumbs;
///   * support blocks are kept sorted ascending, so iterating a row's
///     support visits the same nonzero entries in the same order as a
///     dense j = 0..N-1 scan — which is what makes the sparse kernels
///     bit-identical to their dense counterparts (see DESIGN.md §3);
///   * row_values(i)[k] equals at(i, row_support(i)[k]) exactly — the
///     value arena is a lazily refreshed mirror: in-place writes mark the
///     row dirty and the next row_values(i) re-gathers it from the dense
///     row, so read results are always exact;
///   * incremental row/col sums are updated by +=delta and therefore agree
///     with a from-scratch scan only up to float round-off; callers that
///     need scan-exact sums (stuffing's slack arithmetic) use
///     `row_sum_exact` / `col_sum_exact`, an ordered O(degree) re-scan
///     that matches Matrix::row_sum bit-for-bit because exact zeros
///     contribute exactly nothing to an IEEE sum.
class SupportIndex {
 public:
  SupportIndex() = default;

  /// Take ownership of `m` and build the index in one O(N^2) scan.
  /// Sub-tolerance entries of `m` are snapped to exact zero.
  explicit SupportIndex(Matrix m);

  /// Rebuild this index over a copy of `m` in place, reusing every buffer's
  /// capacity (arenas, blocks, sums, the dense storage when the dimension
  /// is unchanged).  Same snapping semantics as the ingest constructor.
  /// This is the slot-recycling entry point of the online scheduler: a
  /// daemon that re-seats thousands of coflows in the same residual slots
  /// must not re-allocate the index each time.
  void assign(const Matrix& m);

  /// Empty n x n index without the O(N^2) ingest scan — the right entry
  /// point for kernels that build a sparse result entry by entry
  /// (regularization, stuffing of an indexed input).
  static SupportIndex zeros(int n);

  int n() const { return m_.n(); }
  bool empty() const { return m_.empty(); }

  /// The underlying dense matrix (read-only; mutate via set/add).
  const Matrix& matrix() const { return m_; }

  /// Move the matrix out; the index is left empty.
  Matrix release();

  double at(int i, int j) const { return m_.at(i, j); }

  /// Write entry (i, j).  Sub-tolerance values are snapped to exact zero.
  /// O(1) when the entry stays inside the support (dense write + a dirty
  /// mark; the value mirror refreshes lazily on the next row_values read),
  /// O(degree) when it enters or leaves (sorted insert/erase in the row
  /// and column blocks).  Defined inline: this is the innermost write of
  /// every peeling round.
  void set(int i, int j, double v) {
    if (approx_zero(v)) v = 0.0;
    double& cell = m_.at(i, j);
    const double old = cell;
    if (v == old) return;
    row_sum_[i] += v - old;
    col_sum_[j] += v - old;
    cell = v;
    const bool was = old != 0.0;
    const bool now = v != 0.0;
    if (was != now) {
      update_support(i, j, now);
    } else if (now) {
      row_dirty_[i] = 1;
    }
  }

  /// set(i, j, at(i, j) + dv).
  void add(int i, int j, double dv) { set(i, j, m_.at(i, j) + dv); }

  // ---- O(1) aggregates -------------------------------------------------
  int nnz() const { return nnz_; }
  int row_nnz(int i) const { return row_blk_[i].len; }
  int col_nnz(int j) const { return col_blk_[j].len; }
  /// Incrementally maintained sums (scan-exact at build, then drifts by
  /// accumulated round-off — fine for tolerance-scale decisions).
  Time row_sum(int i) const { return row_sum_[i]; }
  Time col_sum(int j) const { return col_sum_[j]; }

  // ---- O(N) / O(nnz) aggregates ---------------------------------------
  /// max over rows and columns of the incremental sums (Theorem 2's rho).
  Time rho() const;
  /// max nonzeros in any row or column (Theorem 2's tau), from the cached
  /// per-line counts.
  int tau() const;
  /// Largest entry, by streaming the value arena (O(nnz), no dense reads).
  double max_entry() const;
  /// Sum of all entries, from the incremental row sums (O(N)).
  Time total() const;

  // ---- support structure ----------------------------------------------
  /// Columns j with m(i, j) != 0, ascending.  Exact — no stale entries.
  SupportSpan row_support(int i) const {
    const Block& b = row_blk_[i];
    return {row_cols_.data() + b.off, b.len};
  }
  /// Values parallel to row_support(i): element k is at(i, support[k]).
  ValueSpan row_values(int i) const {
    const Block& b = row_blk_[i];
    if (row_dirty_[i]) refresh_row_values(i);
    return {row_vals_.data() + b.off, b.len};
  }
  /// Rows i with m(i, j) != 0, ascending.
  SupportSpan col_support(int j) const {
    const Block& b = col_blk_[j];
    return {col_rows_.data() + b.off, b.len};
  }

  /// Ordered O(degree) re-scan of row i over its support; bit-identical to
  /// Matrix::row_sum(i) because every skipped entry is exactly 0.0.
  Time row_sum_exact(int i) const;
  Time col_sum_exact(int j) const;

  /// Total heap capacity currently held, in elements (dense storage plus
  /// the adjacency/value arenas) — sampled by the online core's
  /// alloc-event accounting to prove recycled slots stop allocating at
  /// steady state.
  std::size_t capacity_footprint() const;

  /// Reserve every adjacency block to full density (n entries), making the
  /// index's capacity independent of the shape of the matrix it currently
  /// holds.  A recycled slot whose index is dense-reserved can be re-seated
  /// with any n x n demand without allocating — without this, a long
  /// arrival stream keeps breaking per-row nnz records in recycled slots
  /// and the allocation high-water mark creeps forever.
  void reserve_dense();

 private:
  /// One line's contiguous region inside an arena.
  struct Block {
    int off = 0;  ///< first element index in the arena
    int len = 0;  ///< live elements
    int cap = 0;  ///< reserved elements (len <= cap)
  };

  /// Slow path of set(): entry (i, j) entered (`now`) or left the support.
  void update_support(int i, int j, bool now);

  /// Rebuild both arenas from the dense matrix (ingest / assign / compact).
  void build_from_matrix();

  /// Re-gather row i's value mirror from the dense row and mark it clean.
  /// Out of line so the clean-row path of row_values() stays small where
  /// it inlines into the matching and peel loops.
  void refresh_row_values(int i) const;

  /// Drop dead space: rewrite an arena so blocks are tightly packed in
  /// line order.  Called when relocation garbage exceeds half the arena.
  void compact_rows();
  void compact_cols();

  Matrix m_;
  // Row-side blocked SoA: columns and values in lockstep.
  std::vector<int> row_cols_;
  mutable std::vector<double> row_vals_;
  std::vector<Block> row_blk_;
  /// Per-row staleness of the value mirror.  An in-place set() only writes
  /// the dense cell and this byte; row_values() gathers the row from dense
  /// storage on its next read and clears the mark.  Writes therefore cost
  /// what they did pre-SoA, and a burst of writes (a peel's subtraction
  /// chain) pays one gather per row instead of one search per write.
  /// Structural insert/erase keep the mirror aligned, so clean rows stay
  /// clean.  mutable: refresh happens under const readers — concurrent
  /// row_values() calls on the SAME index race; every current caller
  /// reads one index from one thread (see ordering.cpp's parallel loops,
  /// which are per-coflow).
  mutable std::vector<unsigned char> row_dirty_;
  int row_garbage_ = 0;  ///< dead elements left behind by block relocation
  // Column side: structure only (no hot loop streams values by column).
  std::vector<int> col_rows_;
  std::vector<Block> col_blk_;
  int col_garbage_ = 0;
  std::vector<Time> row_sum_;
  std::vector<Time> col_sum_;
  int nnz_ = 0;
  /// Once reserve_dense() has run, every (re)layout keeps cap == n per
  /// block so the arenas never grow again (zero-alloc slot recycling).
  bool dense_reserved_ = false;
};

}  // namespace reco
