#include "core/support_index.hpp"

#include <algorithm>
#include <utility>

namespace reco {

namespace {

/// Capacity policy for a freshly laid-out block: a small multiple-of-4
/// round-up leaves headroom for stuffing's fill-in without relocating,
/// while keeping the arena within ~1.5x of nnz.  Empty lines get no
/// reservation at all — zeros(n) must not pay O(N) arena space up front.
int cap_for(int len) { return len == 0 ? 0 : (len + 3) & ~3; }

}  // namespace

SupportIndex::SupportIndex(Matrix m) : m_(std::move(m)) { build_from_matrix(); }

void SupportIndex::assign(const Matrix& m) {
  m_ = m;  // dense storage: vector copy-assign reuses capacity
  build_from_matrix();
}

void SupportIndex::build_from_matrix() {
  const int n = m_.n();
  row_blk_.assign(n, Block{});
  col_blk_.assign(n, Block{});
  row_sum_.assign(n, 0.0);
  col_sum_.assign(n, 0.0);
  row_garbage_ = 0;
  col_garbage_ = 0;
  nnz_ = 0;
  // Pass 1: snap ingest crumbs and count per-line support so every block
  // can be laid out contiguously in line order in one shot.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double& cell = m_.at(i, j);
      if (approx_zero(cell)) {
        cell = 0.0;  // snap ingest crumbs so support == {exactly nonzero}
        continue;
      }
      ++row_blk_[i].len;
      ++col_blk_[j].len;
      row_sum_[i] += cell;
      col_sum_[j] += cell;
      ++nnz_;
    }
  }
  int row_total = 0;
  int col_total = 0;
  for (int i = 0; i < n; ++i) {
    Block& rb = row_blk_[i];
    rb.cap = dense_reserved_ ? n : cap_for(rb.len);
    rb.off = row_total;
    row_total += rb.cap;
    Block& cb = col_blk_[i];
    cb.cap = dense_reserved_ ? n : cap_for(cb.len);
    cb.off = col_total;
    col_total += cb.cap;
  }
  row_cols_.resize(row_total);
  row_vals_.resize(row_total);
  row_dirty_.assign(n, 0);
  col_rows_.resize(col_total);
  // Pass 2: fill the blocks (ascending by construction of the scan order).
  std::vector<int> fill(n, 0);
  for (int i = 0; i < n; ++i) {
    int k = row_blk_[i].off;
    for (int j = 0; j < n; ++j) {
      const double v = m_.at(i, j);
      if (v == 0.0) continue;
      row_cols_[k] = j;
      row_vals_[k] = v;
      ++k;
      col_rows_[col_blk_[j].off + fill[j]++] = i;
    }
    // Reset len to what pass 2 actually wrote (identical to pass 1's count).
    row_blk_[i].len = k - row_blk_[i].off;
  }
}

SupportIndex SupportIndex::zeros(int n) {
  SupportIndex idx;
  idx.m_ = Matrix(n);
  idx.row_blk_.assign(n, Block{});
  idx.col_blk_.assign(n, Block{});
  idx.row_dirty_.assign(n, 0);
  idx.row_sum_.assign(n, 0.0);
  idx.col_sum_.assign(n, 0.0);
  return idx;
}

Matrix SupportIndex::release() {
  Matrix out = std::move(m_);
  *this = SupportIndex();
  return out;
}

void SupportIndex::update_support(int i, int j, bool now) {
  // Row side: columns and values move in lockstep, so a clean row's value
  // mirror stays clean through structural changes (a dirty row's shifted
  // values are stale either way; the dirty mark already covers them).
  {
    Block& b = row_blk_[i];
    if (now) {
      if (b.len == b.cap) {
        // Relocate to the arena tail with doubled capacity; the abandoned
        // region becomes garbage until the next compaction.
        const int new_cap = std::max(4, b.cap * 2);
        const int new_off = static_cast<int>(row_cols_.size());
        row_cols_.resize(row_cols_.size() + new_cap);
        row_vals_.resize(row_vals_.size() + new_cap);
        std::copy_n(row_cols_.begin() + b.off, b.len, row_cols_.begin() + new_off);
        std::copy_n(row_vals_.begin() + b.off, b.len, row_vals_.begin() + new_off);
        row_garbage_ += b.cap;
        b.off = new_off;
        b.cap = new_cap;
      }
      int* cols = row_cols_.data() + b.off;
      const int pos = static_cast<int>(std::lower_bound(cols, cols + b.len, j) - cols);
      std::copy_backward(cols + pos, cols + b.len, cols + b.len + 1);
      double* vals = row_vals_.data() + b.off;
      std::copy_backward(vals + pos, vals + b.len, vals + b.len + 1);
      cols[pos] = j;
      vals[pos] = m_.at(i, j);
      ++b.len;
    } else {
      int* cols = row_cols_.data() + b.off;
      const int pos = static_cast<int>(std::lower_bound(cols, cols + b.len, j) - cols);
      std::copy(cols + pos + 1, cols + b.len, cols + pos);
      double* vals = row_vals_.data() + b.off;
      std::copy(vals + pos + 1, vals + b.len, vals + pos);
      --b.len;
    }
  }
  // Column side: structure only.
  {
    Block& b = col_blk_[j];
    if (now) {
      if (b.len == b.cap) {
        const int new_cap = std::max(4, b.cap * 2);
        const int new_off = static_cast<int>(col_rows_.size());
        col_rows_.resize(col_rows_.size() + new_cap);
        std::copy_n(col_rows_.begin() + b.off, b.len, col_rows_.begin() + new_off);
        col_garbage_ += b.cap;
        b.off = new_off;
        b.cap = new_cap;
      }
      int* rows = col_rows_.data() + b.off;
      const int pos = static_cast<int>(std::lower_bound(rows, rows + b.len, i) - rows);
      std::copy_backward(rows + pos, rows + b.len, rows + b.len + 1);
      rows[pos] = i;
      ++b.len;
    } else {
      int* rows = col_rows_.data() + b.off;
      const int pos = static_cast<int>(std::lower_bound(rows, rows + b.len, i) - rows);
      std::copy(rows + pos + 1, rows + b.len, rows + pos);
      --b.len;
    }
  }
  nnz_ += now ? 1 : -1;
  if (row_garbage_ * 2 > static_cast<int>(row_cols_.size())) compact_rows();
  if (col_garbage_ * 2 > static_cast<int>(col_rows_.size())) compact_cols();
}

void SupportIndex::compact_rows() {
  const int n = m_.n();
  std::vector<int> cols;
  std::vector<double> vals;
  cols.reserve(row_cols_.size() - row_garbage_);
  vals.reserve(row_vals_.size() - row_garbage_);
  for (int i = 0; i < n; ++i) {
    Block& b = row_blk_[i];
    const int new_off = static_cast<int>(cols.size());
    cols.resize(new_off + b.cap);
    vals.resize(new_off + b.cap);
    std::copy_n(row_cols_.begin() + b.off, b.len, cols.begin() + new_off);
    std::copy_n(row_vals_.begin() + b.off, b.len, vals.begin() + new_off);
    b.off = new_off;
  }
  row_cols_.swap(cols);
  row_vals_.swap(vals);
  row_garbage_ = 0;
}

void SupportIndex::compact_cols() {
  const int n = m_.n();
  std::vector<int> rows;
  rows.reserve(col_rows_.size() - col_garbage_);
  for (int j = 0; j < n; ++j) {
    Block& b = col_blk_[j];
    const int new_off = static_cast<int>(rows.size());
    rows.resize(new_off + b.cap);
    std::copy_n(col_rows_.begin() + b.off, b.len, rows.begin() + new_off);
    b.off = new_off;
  }
  col_rows_.swap(rows);
  col_garbage_ = 0;
}

Time SupportIndex::rho() const {
  Time r = 0.0;
  for (const Time s : row_sum_) r = std::max(r, s);
  for (const Time s : col_sum_) r = std::max(r, s);
  return r;
}

int SupportIndex::tau() const {
  int t = 0;
  for (const Block& b : row_blk_) t = std::max(t, b.len);
  for (const Block& b : col_blk_) t = std::max(t, b.len);
  return t;
}

void SupportIndex::refresh_row_values(int i) const {
  const Block& b = row_blk_[i];
  const double* row = m_.row_data(i);
  const int* cols = row_cols_.data() + b.off;
  double* vals = row_vals_.data() + b.off;
  for (int k = 0; k < b.len; ++k) vals[k] = row[cols[k]];
  row_dirty_[i] = 0;
}

// max_entry and row_sum_exact read the clean-row fast path from the value
// arena and fall back to a dense gather on dirty rows WITHOUT refreshing:
// they stay non-mutating, so const concurrent readers of distinct rows
// (the simulator's satisfaction probes) never race on the mirror.

double SupportIndex::max_entry() const {
  double m = 0.0;
  const int n = m_.n();
  for (int i = 0; i < n; ++i) {
    const Block& b = row_blk_[i];
    if (row_dirty_[i]) {
      const double* row = m_.row_data(i);
      const int* cols = row_cols_.data() + b.off;
      for (int k = 0; k < b.len; ++k) m = std::max(m, row[cols[k]]);
    } else {
      const double* vals = row_vals_.data() + b.off;
      for (int k = 0; k < b.len; ++k) m = std::max(m, vals[k]);
    }
  }
  return m;
}

Time SupportIndex::total() const {
  Time s = 0.0;
  for (const Time r : row_sum_) s += r;
  return s;
}

Time SupportIndex::row_sum_exact(int i) const {
  Time s = 0.0;
  const Block& b = row_blk_[i];
  if (row_dirty_[i]) {
    const int* cols = row_cols_.data() + b.off;
    for (int k = 0; k < b.len; ++k) s += m_.at(i, cols[k]);
  } else {
    const double* vals = row_vals_.data() + b.off;
    for (int k = 0; k < b.len; ++k) s += vals[k];
  }
  return s;
}

Time SupportIndex::col_sum_exact(int j) const {
  Time s = 0.0;
  for (const int i : col_support(j)) s += m_.at(i, j);
  return s;
}

void SupportIndex::reserve_dense() {
  dense_reserved_ = true;
  const int n = m_.n();
  // Relayout every block at full-density capacity so no future insert can
  // relocate: the arenas reach their high-water mark here, once.
  std::vector<int> cols(static_cast<std::size_t>(n) * n);
  std::vector<double> vals(static_cast<std::size_t>(n) * n);
  std::vector<int> rows(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n; ++i) {
    Block& rb = row_blk_[i];
    const int new_off = i * n;
    std::copy_n(row_cols_.begin() + rb.off, rb.len, cols.begin() + new_off);
    std::copy_n(row_vals_.begin() + rb.off, rb.len, vals.begin() + new_off);
    rb.off = new_off;
    rb.cap = n;
    Block& cb = col_blk_[i];
    std::copy_n(col_rows_.begin() + cb.off, cb.len, rows.begin() + new_off);
    cb.off = new_off;
    cb.cap = n;
  }
  row_cols_.swap(cols);
  row_vals_.swap(vals);
  col_rows_.swap(rows);
  row_garbage_ = 0;
  col_garbage_ = 0;
}

std::size_t SupportIndex::capacity_footprint() const {
  return m_.capacity() + row_cols_.capacity() + row_vals_.capacity() +
         row_dirty_.capacity() + col_rows_.capacity() + row_blk_.capacity() +
         col_blk_.capacity() + row_sum_.capacity() + col_sum_.capacity();
}

}  // namespace reco
