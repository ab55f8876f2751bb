// Micro-benchmarks (google-benchmark) for the hot kernels: matching,
// decomposition, and scheduling throughput.  These are not paper figures;
// they justify the sparse support-index design (see DESIGN.md §3).
//
// Inputs are density-swept: every kernel runs at DS in {0.05, 0.1, 0.2,
// 0.5, 1.0} (second Arg, in permille) plus a trace-like input that mimics
// the paper's Facebook workload (a coflow touches a small rectangle of
// ports).  Each sparse kernel has a retained dense twin from
// reco::dense_reference, so `sparse vs dense at equal nnz` is a single
// grep through the output.  Every benchmark reports `nnz` and `N` as
// counters.
//
// `--baseline_json=FILE` writes a machine-readable baseline
// (name -> {ns_per_op, nnz, N}); see docs/SIMULATOR.md for how
// BENCH_microkernels.json is regenerated.  Timing and reporting come from
// the shared harness in bench_util.hpp: 0.05 s min time x 3 repetitions,
// median recorded (robust to scheduler-noise outliers).
#define RECO_BENCH_WITH_GBENCH
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "bvn/bvn.hpp"
#include "bvn/regularization.hpp"
#include "bvn/stuffing.hpp"
#include "core/support_index.hpp"
#include "matching/bottleneck.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching_engine.hpp"
#include "obs/obs.hpp"
#include "ocs/all_stop_executor.hpp"
#include "oracles/dense_reference.hpp"
#include "sched/reco_sin.hpp"
#include "sched/solstice.hpp"
#include "trace/generator.hpp"
#include "trace/rng.hpp"

namespace {

using namespace reco;

/// Bernoulli-sparse demand: each entry is nonzero with probability
/// `density` (the DS knob of the density sweep).
Matrix sparse_random(int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.uniform(0.0, 1.0) < density) m.at(i, j) = rng.uniform(0.5, 10.0);
    }
  }
  return m;
}

/// Trace-like sparsity: a coflow touches a small set of senders and
/// receivers (Table I's sparse class dominates the Facebook trace), so its
/// demand lives in a thin random rectangle of the port matrix.
Matrix trace_like(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n);
  const int senders = 2 + static_cast<int>(rng.uniform_int(n / 8 + 1));
  const int receivers = 2 + static_cast<int>(rng.uniform_int(n / 8 + 1));
  std::vector<int> rows, cols;
  for (int k = 0; k < senders; ++k) rows.push_back(static_cast<int>(rng.uniform_int(n)));
  for (int k = 0; k < receivers; ++k) cols.push_back(static_cast<int>(rng.uniform_int(n)));
  for (const int i : rows) {
    for (const int j : cols) {
      if (rng.uniform(0.0, 1.0) < 0.7) m.at(i, j) = rng.uniform(0.5, 10.0);
    }
  }
  return m;
}

/// Density sweep shared by the kernel benchmarks: Args are {N, DS_permille}.
void DensitySweep(benchmark::internal::Benchmark* b) {
  for (const int n : {32, 64, 128}) {
    for (const int permille : {50, 100, 200, 500, 1000}) b->Args({n, permille});
  }
}

Matrix swept_input(const benchmark::State& state, std::uint64_t seed) {
  const int n = static_cast<int>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 1000.0;
  return sparse_random(n, density, seed + static_cast<std::uint64_t>(n) * 1000 +
                                       static_cast<std::uint64_t>(state.range(1)));
}

void report_shape(benchmark::State& state, const Matrix& m) {
  state.counters["N"] = static_cast<double>(m.n());
  state.counters["nnz"] = static_cast<double>(m.nnz());
}

// ---- threshold matching (Hopcroft–Karp over the support) -----------------

void BM_ThresholdMatchingDense(benchmark::State& state) {
  const Matrix m = swept_input(state, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(threshold_matching(m, 0.5).size);
  }
  report_shape(state, m);
}
BENCHMARK(BM_ThresholdMatchingDense)->Apply(DensitySweep);

void BM_ThresholdMatchingSparse(benchmark::State& state) {
  const SupportIndex idx(swept_input(state, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(threshold_matching(idx, 0.5).size);
  }
  report_shape(state, idx.matrix());
}
BENCHMARK(BM_ThresholdMatchingSparse)->Apply(DensitySweep);

// ---- exact bottleneck matching -------------------------------------------

void BM_BottleneckMatchingDense(benchmark::State& state) {
  const Matrix m = stuff(swept_input(state, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bottleneck_perfect_matching(m)->bottleneck);
  }
  report_shape(state, m);
}
BENCHMARK(BM_BottleneckMatchingDense)->Apply(DensitySweep);

void BM_BottleneckMatchingSparse(benchmark::State& state) {
  const SupportIndex idx(stuff(swept_input(state, 2)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bottleneck_perfect_matching(idx)->bottleneck);
  }
  report_shape(state, idx.matrix());
}
BENCHMARK(BM_BottleneckMatchingSparse)->Apply(DensitySweep);

// Seed twin: the retained pre-engine implementation (cold recursive
// Hopcroft-Karp per probe, per-call adjacency).  write_json() divides this
// by the engine row at {128, 200} into `bottleneck_speedup_vs_seed`.
void BM_BottleneckMatchingSeedSparse(benchmark::State& state) {
  const SupportIndex idx(stuff(swept_input(state, 2)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dense_reference::bottleneck_perfect_matching_reference(idx)->bottleneck);
  }
  report_shape(state, idx.matrix());
}
BENCHMARK(BM_BottleneckMatchingSeedSparse)->Apply(DensitySweep);

// Engine with a caller-owned scratch, the hot-path calling convention:
// after the first iteration every solve warm-starts from the previous
// matching and reuses every buffer (steady state allocates nothing).
void BM_BottleneckAmortized(benchmark::State& state) {
  const SupportIndex idx(stuff(swept_input(state, 2)));
  MatchingScratch scratch;
  for (auto _ : state) {
    bottleneck_solve(idx, scratch);
    benchmark::DoNotOptimize(scratch.bottleneck);
  }
  report_shape(state, idx.matrix());
}
BENCHMARK(BM_BottleneckAmortized)->Apply(DensitySweep);

// ---- warm-started exact-bottleneck peel ----------------------------------
//
// The twins isolate engine layer 3: an exact-bottleneck peel with one
// scratch carried across rounds (each round repairs the previous round's
// matching) vs the same loop paying a cold solve per round.

void BM_PeelWarmStart(benchmark::State& state) {
  const Matrix stuffed = stuff(swept_input(state, 2));
  for (auto _ : state) {
    SupportIndex m(stuffed);
    MatchingScratch scratch;  // one arena for the whole peel
    int rounds = 0;
    while (m.nnz() > 0 && bottleneck_solve(m, scratch)) {
      for (int i = 0; i < m.n(); ++i) {
        const int j = scratch.final_left[i];
        m.set(i, j, clamp_zero(m.at(i, j) - scratch.bottleneck));
      }
      ++rounds;
    }
    benchmark::DoNotOptimize(rounds);
  }
  report_shape(state, stuffed);
}
BENCHMARK(BM_PeelWarmStart)->Args({64, 200})->Args({128, 200});

void BM_PeelColdStart(benchmark::State& state) {
  const Matrix stuffed = stuff(swept_input(state, 2));
  for (auto _ : state) {
    SupportIndex m(stuffed);
    int rounds = 0;
    while (m.nnz() > 0) {
      MatchingScratch scratch;  // cold: fresh buffers, no warm seed
      if (!bottleneck_solve(m, scratch)) break;
      for (int i = 0; i < m.n(); ++i) {
        const int j = scratch.final_left[i];
        m.set(i, j, clamp_zero(m.at(i, j) - scratch.bottleneck));
      }
      ++rounds;
    }
    benchmark::DoNotOptimize(rounds);
  }
  report_shape(state, stuffed);
}
BENCHMARK(BM_PeelColdStart)->Args({64, 200})->Args({128, 200});

// ---- BvN peel (the acceptance kernel: >= 3x at N=128, DS <= 0.2) ---------

void BM_BvnPeelDense(benchmark::State& state) {
  const Matrix m = stuff(swept_input(state, 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dense_reference::bvn_decompose(m, BvnPolicy::kFirstMatching).num_assignments());
  }
  report_shape(state, m);
}
BENCHMARK(BM_BvnPeelDense)->Apply(DensitySweep);

void BM_BvnPeelSparse(benchmark::State& state) {
  const Matrix m = stuff(swept_input(state, 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bvn_decompose(SupportIndex(m), BvnPolicy::kFirstMatching).num_assignments());
  }
  report_shape(state, m);
}
BENCHMARK(BM_BvnPeelSparse)->Apply(DensitySweep);

void BM_BvnPeelDenseTraceLike(benchmark::State& state) {
  const Matrix m = stuff(trace_like(static_cast<int>(state.range(0)), 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dense_reference::bvn_decompose(m, BvnPolicy::kFirstMatching).num_assignments());
  }
  report_shape(state, m);
}
BENCHMARK(BM_BvnPeelDenseTraceLike)->Arg(64)->Arg(128);

void BM_BvnPeelSparseTraceLike(benchmark::State& state) {
  const Matrix m = stuff(trace_like(static_cast<int>(state.range(0)), 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bvn_decompose(SupportIndex(m), BvnPolicy::kFirstMatching).num_assignments());
  }
  report_shape(state, m);
}
BENCHMARK(BM_BvnPeelSparseTraceLike)->Arg(64)->Arg(128);

// ---- telemetry overhead on the peel kernel -------------------------------
//
// The disabled/enabled twin pins the telemetry design budget: with
// collection off the peel must run within 2% of an uninstrumented build
// (one relaxed load + branch per round).  write_json() below turns the
// pair into a "telemetry_overhead_pct" baseline entry.

void BM_BvnPeelSparseTelemetryOff(benchmark::State& state) {
  const Matrix m = stuff(swept_input(state, 4));
  obs::set_enabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bvn_decompose(SupportIndex(m), BvnPolicy::kFirstMatching).num_assignments());
  }
  report_shape(state, m);
}
BENCHMARK(BM_BvnPeelSparseTelemetryOff)->Args({128, 200});

void BM_BvnPeelSparseTelemetryOn(benchmark::State& state) {
  const Matrix m = stuff(swept_input(state, 4));
  const bool was_enabled = obs::enabled();
  const std::size_t old_capacity = obs::tracer().capacity();
  obs::set_enabled(true);
  obs::tracer().set_capacity(4096);  // bound the span buffer inside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bvn_decompose(SupportIndex(m), BvnPolicy::kFirstMatching).num_assignments());
  }
  obs::set_enabled(was_enabled);
  obs::tracer().set_capacity(old_capacity);
  if (!was_enabled) obs::reset();  // keep user-requested telemetry, drop ours
  report_shape(state, m);
}
BENCHMARK(BM_BvnPeelSparseTelemetryOn)->Args({128, 200});

// ---- stuffing ------------------------------------------------------------

void BM_StuffDense(benchmark::State& state) {
  const Matrix m = swept_input(state, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense_reference::stuff(m).nnz());
  }
  report_shape(state, m);
}
BENCHMARK(BM_StuffDense)->Apply(DensitySweep);

void BM_StuffSparse(benchmark::State& state) {
  const Matrix m = swept_input(state, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stuff(m).nnz());
  }
  report_shape(state, m);
}
BENCHMARK(BM_StuffSparse)->Apply(DensitySweep);

void BM_RegularizeAndStuff(benchmark::State& state) {
  const Matrix m = swept_input(state, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stuff_granular(regularize(m, 0.25), 0.25).nnz());
  }
  report_shape(state, m);
}
BENCHMARK(BM_RegularizeAndStuff)->Apply(DensitySweep);

// ---- end-to-end schedulers ----------------------------------------------

void BM_SolsticeDense(benchmark::State& state) {
  const Matrix m = swept_input(state, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense_reference::solstice(m).num_assignments());
  }
  report_shape(state, m);
}
BENCHMARK(BM_SolsticeDense)->Apply(DensitySweep);

void BM_SolsticeSparse(benchmark::State& state) {
  const Matrix m = swept_input(state, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solstice(m).num_assignments());
  }
  report_shape(state, m);
}
BENCHMARK(BM_SolsticeSparse)->Apply(DensitySweep);

void BM_RecoSinEndToEnd(benchmark::State& state) {
  const Matrix m = swept_input(state, 5);
  const Time delta = 0.25;
  for (auto _ : state) {
    const CircuitSchedule s = reco_sin(m, delta);
    benchmark::DoNotOptimize(execute_all_stop(s, m, delta).cct);
  }
  report_shape(state, m);
}
BENCHMARK(BM_RecoSinEndToEnd)->Args({16, 1000})->Args({32, 500})->Args({64, 200});

void BM_WorkloadGeneration(benchmark::State& state) {
  GeneratorOptions o;
  o.num_ports = 150;
  o.num_coflows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_workload(o).size());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Arg(64)->Arg(526);

// ---- baseline derived metrics --------------------------------------------

/// Headline metrics appended to the baseline JSON: the telemetry
/// enabled/disabled delta on the peel kernel (the <2% disabled-overhead
/// acceptance budget lives in the Off twin) and the engine-vs-seed speedup
/// on the headline sparse config (the >= 3x bar of the amortized-engine
/// work).  Zero-valued inputs yield non-finite ratios, which the harness
/// drops.
std::vector<std::pair<std::string, double>> derived_metrics(
    const std::vector<bench::gbench::Row>& rows) {
  using bench::gbench::row_ns;
  const double peel_off = row_ns(rows, "BM_BvnPeelSparseTelemetryOff/128/200");
  const double peel_on = row_ns(rows, "BM_BvnPeelSparseTelemetryOn/128/200");
  const double seed_ns = row_ns(rows, "BM_BottleneckMatchingSeedSparse/128/200");
  const double engine_ns = row_ns(rows, "BM_BottleneckMatchingSparse/128/200");
  return {
      {"telemetry_overhead_pct", 100.0 * (peel_on - peel_off) / peel_off},
      {"bottleneck_speedup_vs_seed", seed_ns / engine_ns},
  };
}

}  // namespace

int main(int argc, char** argv) {
  return reco::bench::gbench::run_main(argc, argv, {"nnz", "N"}, derived_metrics);
}
