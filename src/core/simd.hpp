// Kernel-tier report for benchmark stamps.  The decomposition hot loops
// are plain scalar code, so the only tier is "scalar".
#pragma once

namespace reco::simd {

enum class Level : int { kScalar = 0 };

inline Level active_level() { return Level::kScalar; }

inline const char* level_name(Level) { return "scalar"; }

}  // namespace reco::simd
