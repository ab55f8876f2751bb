// Reco-Sin (Algorithm 1): regularization-based single-coflow scheduling.
//
//   1. regularize D (round entries up to multiples of delta);
//   2. stuff to a delta-granular doubly stochastic matrix;
//   3. BvN-decompose with max-min matchings.
//
// Every coefficient is >= delta, so reconfiguration time never exceeds
// transmission time (Lemma 1) and the executed CCT is at most 2x optimal
// (Theorem 2) — and usually much closer, because the executor stops each
// establishment as soon as the *original* demands on it finish.
#pragma once

#include "bvn/bvn.hpp"
#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/port_liveness.hpp"
#include "core/types.hpp"

namespace reco {

/// Build the Reco-Sin circuit scheduling for one coflow.
CircuitSchedule reco_sin(const Matrix& demand, Time delta,
                         BvnPolicy policy = BvnPolicy::kMaxMinAmortized);

/// Recovery planning: re-plan `residual` on the surviving ports only.
/// Demand on a failed ingress row / egress column is masked out (it is
/// stranded until the port is repaired), the remainder goes through the
/// normal Reco-Sin pipeline, and circuits the stuffing stage placed on
/// failed ports — padding, never demand — are pruned from the result, so
/// no assignment in the returned schedule asks the fabric to light a dark
/// port.  Ports outside `ports`' range read as up.
CircuitSchedule reco_sin_surviving(const Matrix& residual, const PortLiveness& ports, Time delta,
                                   BvnPolicy policy = BvnPolicy::kMaxMinAmortized);

}  // namespace reco
