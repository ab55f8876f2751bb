// N-sweep benchmarks for the decomposition stack at N >= 1024 ports: the
// scale twin of bench_micro_kernels.  Where the micro suite sweeps density
// at N <= 128, this one holds nnz roughly constant (~8k edges) while N
// grows 256 -> 4096, the regime where per-round costs that scale with N
// rather than with the support dominate and the bitset Hopcroft-Karp path
// engages.
//
// Row groups:
//   * BM_ThresholdMatchingSparse / BM_BottleneckMatchingSparse — the
//     matching kernels at scale (the /1024/125 row is dense enough that
//     kAuto selects the bitset BFS; the constant-nnz rows stay on CSR).
//   * BM_PeelSequential/{N}/{permille} — full-schedule kFirstMatching BvN
//     decomposition of a stuffed input.
//   * BM_RecoSinPlan / BM_SolsticePlan — whole-planner cost vs fabric
//     width (folded in from the retired bench_scalability binary).
//   * BM_OnlineDaemonStream — streamed arrivals through the event-driven
//     daemon; the million-coflow soak variant compiles in only with
//     -DRECO_BENCH_SOAK=ON (see bench/CMakeLists.txt).
//
// `--baseline_json=FILE` writes BENCH_scale.json; CI's perf-guard-scale
// step gates BM_BottleneckMatchingSparse/1024/* against the committed
// copy.  Timing comes from the shared harness in bench_util.hpp (0.05 s
// min time x 3 repetitions, median recorded).
#define RECO_BENCH_WITH_GBENCH
#include <cstdint>

#include "bench_util.hpp"
#include "bvn/bvn.hpp"
#include "bvn/stuffing.hpp"
#include "core/support_index.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching_engine.hpp"
#include "sched/reco_sin.hpp"
#include "sched/solstice.hpp"
#include "sim/online_daemon.hpp"
#include "trace/generator.hpp"
#include "trace/rng.hpp"

namespace {

using namespace reco;

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

/// Constant-nnz N-sweep: permille halves as N doubles, so every point
/// carries ~2k demand edges and the measured growth is the per-port (not
/// per-edge) cost.  The {1024, 125} point is the dense outlier that
/// crosses the kAuto bitset-BFS gate.
void ScaleSweep(benchmark::internal::Benchmark* b) {
  b->Args({256, 31})->Args({512, 16})->Args({1024, 8})->Args({2048, 4})->Args({4096, 2});
  b->Args({1024, 125});
}

// ---- matching kernels at scale -------------------------------------------

void BM_ThresholdMatchingSparse(benchmark::State& state) {
  const SupportIndex idx(swept_input(state, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(threshold_matching(idx, 0.5).size);
  }
  report_shape(state, idx.matrix());
}
BENCHMARK(BM_ThresholdMatchingSparse)->Apply(ScaleSweep);

void BM_BottleneckMatchingSparse(benchmark::State& state) {
  const SupportIndex idx(stuff(swept_input(state, 2)));
  MatchingScratch scratch;
  for (auto _ : state) {
    bottleneck_solve(idx, scratch);
    benchmark::DoNotOptimize(scratch.bottleneck);
  }
  state.counters["bitset_phases"] = static_cast<double>(scratch.stats.bitset_phases);
  report_shape(state, idx.matrix());
}
BENCHMARK(BM_BottleneckMatchingSparse)->Apply(ScaleSweep);

// ---- full BvN peel -------------------------------------------------------
//
// Args are {N, permille}.  At these shapes the schedule has thousands of
// rounds, each an O(N) coefficient scan plus N index subtractions and a
// matching repair.

void BM_PeelSequential(benchmark::State& state) {
  const Matrix stuffed = stuff(swept_input(state, 4));
  int rounds = 0;
  for (auto _ : state) {
    rounds = bvn_decompose(SupportIndex(stuffed), BvnPolicy::kFirstMatching).num_assignments();
    benchmark::DoNotOptimize(rounds);
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  report_shape(state, stuffed);
}
BENCHMARK(BM_PeelSequential)->Args({512, 16})->Args({1024, 8});

// ---- whole-planner cost vs fabric width (ex-bench_scalability) -----------

void BM_RecoSinPlan(benchmark::State& state) {
  const Matrix demand = swept_input(state, 5);
  const Time delta = 0.25;
  int assigns = 0;
  for (auto _ : state) {
    assigns = reco_sin(demand, delta).num_assignments();
    benchmark::DoNotOptimize(assigns);
  }
  state.counters["assigns"] = static_cast<double>(assigns);
  report_shape(state, demand);
}
BENCHMARK(BM_RecoSinPlan)->Args({128, 600})->Args({256, 600})->Args({512, 100});

void BM_SolsticePlan(benchmark::State& state) {
  const Matrix demand = swept_input(state, 5);
  int assigns = 0;
  for (auto _ : state) {
    assigns = solstice(demand).num_assignments();
    benchmark::DoNotOptimize(assigns);
  }
  state.counters["assigns"] = static_cast<double>(assigns);
  report_shape(state, demand);
}
BENCHMARK(BM_SolsticePlan)->Args({128, 600})->Args({256, 600})->Args({512, 100});

// ---- streamed arrivals through the online daemon -------------------------

void daemon_stream(benchmark::State& state, int coflows) {
  GeneratorOptions gen;
  gen.num_ports = 16;
  gen.num_coflows = coflows;
  gen.seed = 995;
  gen.mean_interarrival = 0.01;
  sim::OnlineDaemonOptions opt;
  opt.core.record_schedule = false;
  opt.core.record_cct = false;
  std::uint64_t finished = 0;
  for (auto _ : state) {
    ArrivalStream stream(gen);
    sim::PullSource<ArrivalStream> source(stream);
    sim::OnlineDaemon daemon(OnlinePolicyKind::kDrainReplanRecoMul, opt);
    daemon.reserve(1024);  // slots recycle; no need to reserve the full trace
    finished = daemon.run(source).stats.finished;
    benchmark::DoNotOptimize(finished);
  }
  state.SetItemsProcessed(state.iterations() * coflows);
  state.counters["N"] = 16.0;
  state.counters["finished"] = static_cast<double>(finished);
}

void BM_OnlineDaemonStream(benchmark::State& state) {
  daemon_stream(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_OnlineDaemonStream)->Arg(2000);

#ifdef RECO_BENCH_SOAK
// Million-coflow soak: a synthetic trace streamed one arrival at a time
// through the drain-replan Reco-Mul daemon (arrivals are generated, never
// materialized, so memory stays flat while every admit / plan / recycle
// path runs a million times).  Compiled in only with -DRECO_BENCH_SOAK=ON;
// runs for minutes, so it is pinned to a single iteration.
void BM_MillionCoflowSoak(benchmark::State& state) {
  daemon_stream(state, 1000000);
}
BENCHMARK(BM_MillionCoflowSoak)->Iterations(1)->Repetitions(1);
#endif  // RECO_BENCH_SOAK

}  // namespace

int main(int argc, char** argv) {
  return reco::bench::gbench::run_main(argc, argv, {"nnz", "N"});
}
