// Online scheduling policies: how the event-driven replan core (OnlineCore
// / the sim OnlineDaemon) treats arrivals.  A policy answers two questions
// the daemon asks on every event:
//
//   * does an arrival preempt the running epoch (cut + replan) or wait for
//     the fabric to go idle?
//   * is the batch served as one Reco-Mul instance, or serialized through
//     the single-coflow Reco-Sin pipeline in arrival order?
//
// Batch policies order the live residual set with the core's
// OrderingPolicy; the serialized policy serves it in arrival order.  The
// three policies are the modes of `schedule_online`.
#pragma once

namespace reco {

enum class OnlinePolicyKind {
  kEpochRecoMul,
  kFifoRecoSin,
  kDrainReplanRecoMul,
};

const char* to_string(OnlinePolicyKind kind);

/// True: an arrival cuts the running epoch (started slices finish,
/// everything else is cancelled and folded back) and triggers an immediate
/// replan.  False: arrivals wait for the fabric to go idle.
constexpr bool preempts_on_arrival(OnlinePolicyKind kind) {
  return kind == OnlinePolicyKind::kDrainReplanRecoMul;
}

/// True: coflows are served one at a time through the single-coflow
/// pipeline in arrival order instead of batch replanning.
constexpr bool serializes_batch(OnlinePolicyKind kind) {
  return kind == OnlinePolicyKind::kFifoRecoSin;
}

}  // namespace reco
