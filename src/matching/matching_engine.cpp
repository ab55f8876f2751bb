#include "matching/matching_engine.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "obs/obs.hpp"

namespace reco {

namespace {

constexpr int kInf = std::numeric_limits<int>::max();

/// Sum of every buffer capacity in the scratch.  Vector capacities only
/// grow, so an unchanged total across a solve proves the solve performed
/// zero heap allocations — that is the scratch_reuses acceptance counter.
std::size_t total_capacity(const MatchingScratch& s) {
  return s.csr_off.capacity() + s.csr_col.capacity() + s.csr_val.capacity() +
         s.match_left.capacity() + s.match_right.capacity() + s.final_left.capacity() +
         s.final_right.capacity() + s.dist.capacity() + s.queue.capacity() +
         s.stack_u.capacity() + s.stack_e.capacity() + s.values.capacity() +
         s.row_mark.capacity() + s.col_mark.capacity() + s.gate_stamp.capacity() +
         s.col_gate.capacity() + s.gate_heap.capacity() + s.adj_bits.capacity() +
         s.visited_bits.capacity() + s.layer_bits.capacity() + s.free_col_bits.capacity();
}

/// Resize to `n`, filling fresh slots only when the logical size grows.
template <class T>
void ensure_size(std::vector<T>& v, std::size_t n, T fill) {
  if (v.size() < n) {
    v.assign(n, fill);
  } else if (v.size() > n) {
    v.resize(n);
  }
}

/// Layered BFS from all free left vertices (seed-identical: rows enqueue
/// ascending, edges scan ascending).  Returns true iff an augmenting path
/// exists; `dist` receives the layers for the DFS phase.
bool bfs_layers_csr(const MatchingScratch& s, const std::vector<int>& ml,
                    const std::vector<int>& mr, std::vector<int>& dist, std::vector<int>& queue,
                    double threshold, bool check_value) {
  const double cut = threshold - kTimeEps;
  int head = 0;
  int tail = 0;
  for (int u = 0; u < s.n_left; ++u) {
    if (ml[u] == -1) {
      dist[u] = 0;
      queue[tail++] = u;
    } else {
      dist[u] = kInf;
    }
  }
  bool found = false;
  while (head < tail) {
    const int u = queue[head++];
    const int end = s.csr_off[u + 1];
    for (int e = s.csr_off[u]; e < end; ++e) {
      if (check_value && s.csr_val[e] < cut) continue;
      const int w = mr[s.csr_col[e]];
      if (w == -1) {
        found = true;
      } else if (dist[w] == kInf) {
        dist[w] = dist[u] + 1;
        queue[tail++] = w;
      }
    }
  }
  return found;
}

/// Bake the value-filtered adjacency into per-row bitmasks: bit j of row
/// u's mask is set iff edge (u, j) survives the threshold cut.  One build
/// per hk_augment_csr call (O(E + N^2/64)); every subsequent BFS phase
/// then expands layers word-parallel without touching csr_val.
void build_adj_bits(MatchingScratch& s, double threshold, bool check_value) {
  const double cut = threshold - kTimeEps;
  const int words = (s.n_right + 63) >> 6;
  const std::size_t total = static_cast<std::size_t>(s.n_left) * words;
  ensure_size(s.adj_bits, total, std::uint64_t{0});
  std::fill(s.adj_bits.begin(), s.adj_bits.begin() + static_cast<std::ptrdiff_t>(total), 0);
  ensure_size(s.visited_bits, static_cast<std::size_t>(words), std::uint64_t{0});
  ensure_size(s.layer_bits, static_cast<std::size_t>(words), std::uint64_t{0});
  ensure_size(s.free_col_bits, static_cast<std::size_t>(words), std::uint64_t{0});
  for (int u = 0; u < s.n_left; ++u) {
    std::uint64_t* row = s.adj_bits.data() + static_cast<std::size_t>(u) * words;
    const int end = s.csr_off[u + 1];
    for (int e = s.csr_off[u]; e < end; ++e) {
      if (check_value && s.csr_val[e] < cut) continue;
      const int j = s.csr_col[e];
      row[j >> 6] |= std::uint64_t{1} << (j & 63);
    }
  }
  ++s.stats.bitset_builds;
}

/// Word-parallel twin of bfs_layers_csr.  Layer-synchronous: OR the
/// adjacency masks of the current frontier, strip already-visited
/// columns, then enqueue the matched partner of every newly reached
/// column.  BFS layer depths are canonical (independent of intra-layer
/// visit order), so `dist` comes out identical to the CSR walk — which is
/// all the DFS phase consumes — and the final matching is bit-identical.
bool bfs_layers_bitset(MatchingScratch& s, const std::vector<int>& ml,
                       const std::vector<int>& mr, std::vector<int>& dist,
                       std::vector<int>& queue) {
  const int n = s.n_left;
  const int words = (s.n_right + 63) >> 6;
  std::uint64_t* visited = s.visited_bits.data();
  std::uint64_t* layer = s.layer_bits.data();
  std::uint64_t* free_cols = s.free_col_bits.data();
  std::fill(visited, visited + words, 0);
  std::fill(free_cols, free_cols + words, 0);
  for (int j = 0; j < s.n_right; ++j) {
    if (mr[j] == -1) free_cols[j >> 6] |= std::uint64_t{1} << (j & 63);
  }
  int tail = 0;
  for (int u = 0; u < n; ++u) {
    if (ml[u] == -1) {
      dist[u] = 0;
      queue[tail++] = u;
    } else {
      dist[u] = kInf;
    }
  }
  bool found = false;
  int begin = 0;
  int depth = 0;
  while (begin < tail) {
    std::fill(layer, layer + words, 0);
    for (int k = begin; k < tail; ++k) {
      const std::uint64_t* row =
          s.adj_bits.data() + static_cast<std::size_t>(queue[k]) * words;
      for (int w = 0; w < words; ++w) layer[w] |= row[w];
    }
    begin = tail;
    ++depth;
    for (int w = 0; w < words; ++w) {
      std::uint64_t fresh = layer[w] & ~visited[w];
      if (fresh == 0) continue;
      visited[w] |= fresh;
      if (fresh & free_cols[w]) found = true;
      std::uint64_t matched = fresh & ~free_cols[w];
      while (matched != 0) {
        const int j = (w << 6) + __builtin_ctzll(matched);
        matched &= matched - 1;
        const int r = mr[j];  // never a free row: mr[j] != -1 implies ml[r] == j
        dist[r] = depth;
        queue[tail++] = r;
      }
    }
  }
  return found;
}

/// Iterative layered DFS from `u0`, the exact transformation of the
/// reference recursion: probe edges ascending; descend into the matched
/// partner one BFS layer down; on a dead end set dist[u] = kInf so the
/// phase never re-enters the vertex; on success match every frame through
/// the edge it descended by.  Frame k's cursor (stack_e[k]) stays parked
/// on the descending edge so failure resumes right after it.
bool dfs_augment_csr(const MatchingScratch& s, int u0, std::vector<int>& ml, std::vector<int>& mr,
                     std::vector<int>& dist, std::vector<int>& stack_u, std::vector<int>& stack_e,
                     double threshold, bool check_value) {
  const double cut = threshold - kTimeEps;
  int sp = 0;
  stack_u[0] = u0;
  stack_e[0] = s.csr_off[u0];
  sp = 1;
  while (sp > 0) {
    const int u = stack_u[sp - 1];
    int e = stack_e[sp - 1];
    const int end = s.csr_off[u + 1];
    int found_v = -1;
    bool descended = false;
    for (; e < end; ++e) {
      if (check_value && s.csr_val[e] < cut) continue;
      const int v = s.csr_col[e];
      const int w = mr[v];
      if (w == -1) {
        found_v = v;
        break;
      }
      if (dist[w] == dist[u] + 1) {
        stack_e[sp - 1] = e;  // remember the edge we descend through
        stack_u[sp] = w;
        stack_e[sp] = s.csr_off[w];
        ++sp;
        descended = true;
        break;
      }
    }
    if (descended) continue;
    if (found_v != -1) {
      // Success: match each frame with the edge it is parked on.
      int v = found_v;
      int k = sp - 1;
      while (true) {
        ml[stack_u[k]] = v;
        mr[v] = stack_u[k];
        if (k == 0) break;
        --k;
        v = s.csr_col[stack_e[k]];
      }
      return true;
    }
    // Dead end: prune the vertex for this phase and resume the parent
    // just past the edge it descended through.
    dist[u] = kInf;
    --sp;
    if (sp > 0) ++stack_e[sp - 1];
  }
  return false;
}

}  // namespace

namespace {

/// Pick the BFS expansion strategy for this call.  The CSR is already
/// built, so the edge count is exact; with check_value the count includes
/// sub-threshold edges, which only ever overestimates density — an
/// overestimate can cost a suboptimal mode pick, never a wrong result.
bool use_bitset_bfs(const MatchingScratch& s) {
  if (s.hk_mode == HkMode::kCsr) return false;
  if (s.hk_mode == HkMode::kBitset) return true;
  if (s.n_left < kBitsetMinPorts) return false;
  const double cells = static_cast<double>(s.n_left) * static_cast<double>(s.n_right);
  return static_cast<double>(s.csr_col.size()) >= kBitsetMinDensity * cells;
}

}  // namespace

int hk_augment_csr(MatchingScratch& s, std::vector<int>& ml, std::vector<int>& mr,
                   double threshold, bool check_value) {
  const std::size_t nl = static_cast<std::size_t>(s.n_left);
  ensure_size(s.dist, nl, 0);
  ensure_size(s.queue, nl, 0);
  ensure_size(s.stack_u, nl + 1, 0);
  ensure_size(s.stack_e, nl + 1, 0);
  int size = 0;
  for (int u = 0; u < s.n_left; ++u) {
    if (ml[u] != -1) ++size;
  }
  const bool bitset_bfs = size < s.n_left && use_bitset_bfs(s);
  if (bitset_bfs) build_adj_bits(s, threshold, check_value);
  while (size < s.n_left &&
         (bitset_bfs ? bfs_layers_bitset(s, ml, mr, s.dist, s.queue)
                     : bfs_layers_csr(s, ml, mr, s.dist, s.queue, threshold, check_value))) {
    ++s.stats.phases;
    if (bitset_bfs) ++s.stats.bitset_phases;
    for (int u = 0; u < s.n_left; ++u) {
      if (ml[u] == -1 &&
          dfs_augment_csr(s, u, ml, mr, s.dist, s.stack_u, s.stack_e, threshold, check_value)) {
        ++size;
        ++s.stats.augmentations;
      }
    }
  }
  return size;
}

void build_csr(const Matrix& m, double keep_threshold, bool with_values, MatchingScratch& s) {
  const int n = m.n();
  const double cut = keep_threshold - kTimeEps;
  s.n_left = n;
  s.n_right = n;
  ensure_size(s.csr_off, static_cast<std::size_t>(n) + 1, 0);
  s.csr_col.clear();
  s.csr_val.clear();
  s.csr_off[0] = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const double x = m.at(i, j);
      if (x >= cut) {
        s.csr_col.push_back(j);
        if (with_values) s.csr_val.push_back(x);
      }
    }
    s.csr_off[i + 1] = static_cast<int>(s.csr_col.size());
  }
}

void build_csr(const SupportIndex& idx, double keep_threshold, bool with_values,
               MatchingScratch& s) {
  const int n = idx.n();
  const double cut = keep_threshold - kTimeEps;
  s.n_left = n;
  s.n_right = n;
  ensure_size(s.csr_off, static_cast<std::size_t>(n) + 1, 0);
  s.csr_col.clear();
  s.csr_val.clear();
  s.csr_off[0] = 0;
  for (int i = 0; i < n; ++i) {
    // Stream the SoA arenas side by side — no dense-row gather.
    const auto cols = idx.row_support(i);
    const auto vals = idx.row_values(i);
    for (int k = 0; k < cols.size(); ++k) {
      const double x = vals[k];
      if (x >= cut) {
        s.csr_col.push_back(cols[k]);
        if (with_values) s.csr_val.push_back(x);
      }
    }
    s.csr_off[i + 1] = static_cast<int>(s.csr_col.size());
  }
}

namespace {

void collect_values(const Matrix& m, std::vector<double>& values) {
  values.clear();
  for (int i = 0; i < m.n(); ++i) {
    for (int j = 0; j < m.n(); ++j) {
      const double x = m.at(i, j);
      if (!approx_zero(x)) values.push_back(x);
    }
  }
}

void collect_values(const SupportIndex& idx, std::vector<double>& values) {
  values.clear();
  for (int i = 0; i < idx.n(); ++i) {
    const auto vals = idx.row_values(i);
    values.insert(values.end(), vals.begin(), vals.end());
  }
}

double value_at(const Matrix& m, int i, int j) { return m.at(i, j); }
double value_at(const SupportIndex& idx, int i, int j) { return idx.at(i, j); }

/// A failed probe at `t` left a *maximum* matching of size n - d in
/// ml/mr.  The rows reachable from free rows by alternating paths form a
/// Hall violator S with |N(S)| = |S| - d; feasibility at any t' requires
/// d currently-absent columns to gain an edge from S, so t' cannot exceed
/// (d-th largest entering edge value) + eps.  Returns that bound (or
/// +inf when no certificate binds) — every candidate above it is provably
/// infeasible, so discarding them cannot change the selected bottleneck.
double hall_prune(MatchingScratch& s, double t) {
  const int n = s.n_left;
  const double cut = t - kTimeEps;
  const std::size_t nn = static_cast<std::size_t>(n);
  ensure_size(s.row_mark, nn, 0);
  ensure_size(s.col_mark, nn, 0);
  ensure_size(s.gate_stamp, nn, 0);
  ensure_size(s.col_gate, nn, 0.0);
  // Reserve to the worst case up front: a later prune with more gate
  // columns than the first must not allocate in steady state.
  if (s.gate_heap.capacity() < nn) s.gate_heap.reserve(nn);
  const double no_bound = std::numeric_limits<double>::infinity();
  const int stamp = ++s.mark_stamp;
  int head = 0;
  int tail = 0;
  int d = 0;
  for (int i = 0; i < n; ++i) {
    if (s.match_left[i] == -1) {
      s.row_mark[i] = stamp;
      s.queue[tail++] = i;
      ++d;
    }
  }
  if (d == 0) return no_bound;
  while (head < tail) {
    const int u = s.queue[head++];
    const int end = s.csr_off[u + 1];
    for (int e = s.csr_off[u]; e < end; ++e) {
      if (s.csr_val[e] < cut) continue;
      const int j = s.csr_col[e];
      if (s.col_mark[j] == stamp) continue;
      s.col_mark[j] = stamp;
      const int w = s.match_right[j];
      if (w != -1 && s.row_mark[w] != stamp) {
        s.row_mark[w] = stamp;
        s.queue[tail++] = w;
      }
    }
  }
  // Best entering value per column outside N(S), over edges from S that
  // are below the probe threshold.
  s.gate_heap.clear();
  for (int k = 0; k < tail; ++k) {
    const int u = s.queue[k];
    const int end = s.csr_off[u + 1];
    for (int e = s.csr_off[u]; e < end; ++e) {
      if (s.csr_val[e] >= cut) continue;
      const int j = s.csr_col[e];
      if (s.col_mark[j] == stamp) continue;
      if (s.gate_stamp[j] != stamp) {
        s.gate_stamp[j] = stamp;
        s.col_gate[j] = s.csr_val[e];
      } else if (s.csr_val[e] > s.col_gate[j]) {
        s.col_gate[j] = s.csr_val[e];
      }
    }
  }
  for (int j = 0; j < n; ++j) {
    if (s.gate_stamp[j] == stamp) s.gate_heap.push_back(s.col_gate[j]);
  }
  if (static_cast<int>(s.gate_heap.size()) < d) return no_bound;  // cannot certify
  std::nth_element(s.gate_heap.begin(), s.gate_heap.begin() + (d - 1), s.gate_heap.end(),
                   std::greater<double>());
  return s.gate_heap[d - 1] + kTimeEps;
}

template <class Src>
bool bottleneck_solve_impl(const Src& src, MatchingScratch& s) {
  const std::size_t cap_before = total_capacity(s);
  const MatchingScratch::Stats before = s.stats;
  ++s.stats.solves;

  collect_values(src, s.values);
  bool ok = false;
  if (!s.values.empty()) {
    const int n = src.n();
    const std::size_t nn = static_cast<std::size_t>(n);
    const double vmin = *std::min_element(s.values.begin(), s.values.end());
    build_csr(src, vmin, /*with_values=*/true, s);
    // A warm seed only carries over at the same dimension; a resize could
    // leave match_right referencing truncated rows.
    if (s.match_left.size() != nn || s.match_right.size() != nn) {
      s.match_left.assign(nn, -1);
      s.match_right.assign(nn, -1);
      s.has_hint = false;
    }

    bool first_probe = true;
    const auto probe = [&](double t) {
      ++s.stats.probes;
      const double cut = t - kTimeEps;
      int kept = 0;
      for (int i = 0; i < n; ++i) {
        const int j = s.match_left[i];
        if (j == -1) continue;
        if (value_at(src, i, j) < cut) {
          s.match_left[i] = -1;
          s.match_right[j] = -1;
        } else {
          ++kept;
        }
      }
      if (first_probe) {
        first_probe = false;
        if (kept > 0) {
          ++s.stats.warm_start_hits;
          s.stats.warm_edges_kept += static_cast<std::uint64_t>(kept);
        }
      }
      return hk_augment_csr(s, s.match_left, s.match_right, t, /*check_value=*/true) == n;
    };

    if (probe(vmin)) {
      // Search for the largest value with a feasible probe.  Feasibility
      // is exactly monotone in the threshold (a lower cut keeps a
      // superset of edges), so ANY probe order converges to the same
      // answer; the pool never needs sorting.  Invariants: `lo_val` is a
      // support value with a (directly probed or monotonicity-implied)
      // feasible probe; values[0..m) holds every still-plausible
      // candidate, each strictly above lo_val.
      double lo_val = vmin;
      std::size_t m = 0;
      for (std::size_t r = 0; r < s.values.size(); ++r) {
        const double v = s.values[r];
        if (v > vmin) s.values[m++] = v;
      }
      // Discard after a failed probe at `t` with Hall bound `b`:
      // candidates >= t fail by monotonicity (not counted as pruned);
      // candidates in (b, t) fail by the certificate alone.
      const auto discard_infeasible = [&](double t, double b) {
        std::size_t w = 0;
        std::uint64_t certified = 0;
        for (std::size_t r = 0; r < m; ++r) {
          const double v = s.values[r];
          if (v >= t) continue;
          if (v > b) {
            ++certified;
            continue;
          }
          s.values[w++] = v;
        }
        m = w;
        if (certified > 0) {
          ++s.stats.hall_prunes;
          s.stats.probes_pruned += certified;
        }
      };

      // First pivot: the previous solve's bottleneck.  On a slowly
      // mutating matrix it is exact or one ladder rung high, so the hint
      // probe plus one successor probe finish the search.  A feasible
      // probe at non-support `h` implies the largest support value <= h
      // is feasible too — no extra probe needed.
      if (m > 0 && s.has_hint && s.hint > lo_val) {
        const double h = s.hint;
        if (probe(h)) {
          std::size_t w = 0;
          for (std::size_t r = 0; r < m; ++r) {
            const double v = s.values[r];
            if (v > h) {
              s.values[w++] = v;
            } else if (v > lo_val) {
              lo_val = v;
            }
          }
          m = w;
          if (m > 0) {
            // Confirm optimality by probing the successor value: if the
            // smallest remaining candidate fails, every candidate fails.
            const double succ = *std::min_element(s.values.begin(), s.values.begin() + m);
            if (probe(succ)) {
              lo_val = succ;
              w = 0;
              for (std::size_t r = 0; r < m; ++r) {
                if (s.values[r] > succ) s.values[w++] = s.values[r];
              }
              m = w;
            } else {
              m = 0;
            }
          }
        } else {
          discard_infeasible(h, hall_prune(s, h));
        }
      }

      // Quickselect descent over whatever remains: probe the median of
      // the pool, halve around it.  Total partition work is O(nnz); the
      // seed paid an O(nnz log nnz) sort before its first probe.
      while (m > 0) {
        std::nth_element(s.values.begin(), s.values.begin() + static_cast<std::ptrdiff_t>(m / 2),
                         s.values.begin() + static_cast<std::ptrdiff_t>(m));
        const double pivot = s.values[m / 2];
        if (probe(pivot)) {
          lo_val = pivot;
          std::size_t w = 0;
          for (std::size_t r = 0; r < m; ++r) {
            if (s.values[r] > pivot) s.values[w++] = s.values[r];
          }
          m = w;
        } else {
          discard_infeasible(pivot, hall_prune(s, pivot));
        }
      }

      // Canonical result: one cold-start Hopcroft-Karp at the winning
      // threshold, bit-identical to the reference implementation.  The
      // warm working matching only ever accelerated feasibility answers.
      s.bottleneck = lo_val;
      ensure_size(s.final_left, nn, -1);
      ensure_size(s.final_right, nn, -1);
      std::fill(s.final_left.begin(), s.final_left.end(), -1);
      std::fill(s.final_right.begin(), s.final_right.end(), -1);
      s.matching_size =
          hk_augment_csr(s, s.final_left, s.final_right, s.bottleneck, /*check_value=*/true);
      // Adopt the canonical matching as the next solve's warm seed.
      std::copy(s.final_left.begin(), s.final_left.end(), s.match_left.begin());
      std::copy(s.final_right.begin(), s.final_right.end(), s.match_right.begin());
      ok = s.matching_size == n;
    }
  }
  s.has_hint = ok;
  if (ok) s.hint = s.bottleneck;

  if (total_capacity(s) == cap_before) {
    ++s.stats.scratch_reuses;
  } else {
    ++s.stats.alloc_events;
  }

  if (obs::enabled()) {
    static obs::Counter& solves = obs::metrics().counter("matching.engine.solves");
    static obs::Counter& probes = obs::metrics().counter("matching.engine.probes");
    static obs::Counter& pruned = obs::metrics().counter("matching.engine.probes_pruned");
    static obs::Counter& augments = obs::metrics().counter("matching.engine.augmentations");
    static obs::Counter& warm_hits = obs::metrics().counter("matching.engine.warm_start_hits");
    static obs::Counter& warm_edges = obs::metrics().counter("matching.engine.warm_edges_kept");
    static obs::Counter& reuses = obs::metrics().counter("matching.engine.scratch_reuses");
    static obs::Counter& allocs = obs::metrics().counter("matching.engine.scratch_allocs");
    static obs::Counter& bit_phases = obs::metrics().counter("matching.engine.bitset_phases");
    static obs::Counter& bit_builds = obs::metrics().counter("matching.engine.bitset_builds");
    const MatchingScratch::Stats& a = s.stats;
    bit_phases.inc(static_cast<double>(a.bitset_phases - before.bitset_phases));
    bit_builds.inc(static_cast<double>(a.bitset_builds - before.bitset_builds));
    solves.inc(static_cast<double>(a.solves - before.solves));
    probes.inc(static_cast<double>(a.probes - before.probes));
    pruned.inc(static_cast<double>(a.probes_pruned - before.probes_pruned));
    augments.inc(static_cast<double>(a.augmentations - before.augmentations));
    warm_hits.inc(static_cast<double>(a.warm_start_hits - before.warm_start_hits));
    warm_edges.inc(static_cast<double>(a.warm_edges_kept - before.warm_edges_kept));
    reuses.inc(static_cast<double>(a.scratch_reuses - before.scratch_reuses));
    allocs.inc(static_cast<double>(a.alloc_events - before.alloc_events));
  }
  return ok;
}

}  // namespace

bool bottleneck_solve(const Matrix& m, MatchingScratch& s) {
  return bottleneck_solve_impl(m, s);
}

bool bottleneck_solve(const SupportIndex& idx, MatchingScratch& s) {
  return bottleneck_solve_impl(idx, s);
}

}  // namespace reco
