#include "sched/online_policy.hpp"

namespace reco {

const char* to_string(OnlinePolicyKind kind) {
  switch (kind) {
    case OnlinePolicyKind::kEpochRecoMul: return "epoch-reco-mul";
    case OnlinePolicyKind::kFifoRecoSin: return "fifo-reco-sin";
    case OnlinePolicyKind::kDrainReplanRecoMul: return "drain-replan-reco-mul";
  }
  return "unknown";
}

}  // namespace reco
