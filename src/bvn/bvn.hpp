// Birkhoff-von-Neumann decomposition of a doubly stochastic matrix into
// permutation matrices with coefficients — equivalently, into a circuit
// scheduling (each permutation is a circuit establishment, its coefficient
// the planned duration).  Three extraction policies, all one sequential
// peel over a SupportIndex:
//
//  * kFirstMatching   — classic Birkhoff peeling: any perfect matching on
//                       the nonzero support, coefficient = its min entry.
//                       This is the Theorem-1 strawman and LP-II-GB's
//                       intra-coflow method.
//  * kMaxMinAmortized — descending power-of-two threshold with incremental
//                       matching repair; extracts matchings whose min entry
//                       is within 2x of the true bottleneck optimum at
//                       amortized near-linear cost.  This is the "max-min
//                       matching similar to [7]" of Alg. 1, and the policy
//                       Reco-Sin uses by default.
//  * kExactBottleneck — true max-min matching each round (the amortized
//                       bottleneck engine in matching/matching_engine.hpp,
//                       one warm-started scratch for the whole peel).
//                       Fewer, longer assignments than kMaxMinAmortized
//                       but slower at 150 ports: as Reco-Sin's policy on
//                       perfbench's sin-paper workload (526 coflows, 4-core
//                       x86-64) it cut reconfigurations per coflow from
//                       207.07 to 120.53 and weighted CCT over the lower
//                       bound from 1.056 to 1.031, but ran 2.6x slower
//                       (11.7 against ~31 coflows/s).  Change Reco-Sin's
//                       default only with an end-to-end benchmark run
//                       that shows the trade is worth it.
#pragma once

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/support_index.hpp"

namespace reco {

enum class BvnPolicy {
  kFirstMatching,
  kMaxMinAmortized,
  kExactBottleneck,
};

/// Decompose `m` (must be doubly stochastic; throws otherwise) into a
/// circuit schedule whose service matrix equals `m` exactly.
/// Terminates in at most nnz(m) rounds: every extracted coefficient zeroes
/// at least one entry.
CircuitSchedule bvn_decompose(Matrix m, BvnPolicy policy);

/// Sparse-path variant for callers that already carry a SupportIndex
/// (the Reco-Sin pipeline builds one index and threads it through
/// regularize -> stuff -> decompose).  Peeling cost is proportional to the
/// support: O(nnz * sqrt(N)) for the initial matching plus O(degree) per
/// repaired edge per round, versus O(rounds * N^2) for a dense rescan.
CircuitSchedule bvn_decompose(SupportIndex m, BvnPolicy policy);

/// Cover an arbitrary non-negative matrix with matchings: each round takes
/// a maximum matching on the nonzero support and holds it for the largest
/// matched entry, zeroing everything matched.  The service matrix *covers*
/// (>=) the input rather than equaling it.  Needs no Birkhoff structure;
/// used to finish the tolerance-scale residue that floating-point slicing
/// leaves behind, and usable on its own as a crude scheduler.
CircuitSchedule cover_decompose(Matrix m);
CircuitSchedule cover_decompose(SupportIndex m);

}  // namespace reco
