// Helpers of the end-to-end benchmark: exact-sample percentiles, an
// in-memory span log with self-time arithmetic, and the plan checks that
// hold every emitted schedule to the paper's guarantees.  Everything here
// runs outside the timed regions.
#pragma once
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/circuit.hpp"
#include "core/coflow.hpp"
#include "core/matrix.hpp"
#include "core/slice.hpp"
#include "core/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linearly interpolated q-quantile (0 <= q <= 1) of exact samples.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// The highest of p90/p95/p98/p99/p99.5/p99.9 with at least ten samples
/// beyond it.  With fewer than 100 samples no candidate qualifies and the
/// tail is the maximum (percentile 100, nothing beyond it).
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples ranked above the percentile
  std::size_t count = 0;   ///< samples the tail was taken from
};
Tail tail_of(const std::vector<double>& samples);

/// Spans kept in memory for the traced run.  A span's parent is the span
/// that caused it (-1 for a root); self time is a span's duration minus the
/// part of it that its children cover.
class SpanLog {
 public:
  /// Names are string literals: a span costs no allocation beyond its slot.
  struct Span {
    const char* name = "";
    int parent = -1;
    double start_s = 0.0;  ///< seconds since the log was created
    double end_s = 0.0;
  };
  SpanLog() : origin_(Clock::now()) {}
  int begin(const char* name, int parent = -1);
  void end(int span);
  const std::vector<Span>& spans() const { return spans_; }
  /// Summed durations of every span called `name`.
  double total(std::string_view name) const;
  /// Summed self time of every span called `name`.
  double self_total(std::string_view name) const;
  /// Chrome trace-event JSON ("X" events, microseconds).
  std::string chrome_json() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Time attributed to a stage that the benchmark can only time as part of
/// an enclosing call: the enclosing time minus the stages re-timed on their
/// own.  Not clamped, so noise shows instead of being hidden.
double self_time(double enclosing, const std::vector<double>& stages);

/// Failure names of one Reco-Sin plan against Theorem 2: every assignment
/// is a port matching held for at least delta, the plan and its execution
/// serve the whole demand, and the executed CCT is at most 2(rho+tau*delta).
std::vector<std::string> check_reco_sin(const reco::Matrix& demand,
                                        const reco::CircuitSchedule& plan, reco::Time cct,
                                        bool executed_all, reco::Time delta);

/// Theorem 3's per-coflow Eqn. (3) factor (1 + 1/sqrt c)(floor(sqrt c)+1)/floor(sqrt c).
double eqn3_bound(double c);

/// Outcome of the Reco-Mul checks.
struct MulCheck {
  std::vector<std::string> global_failures;  ///< whole-plan checks that failed
  std::vector<int> coflow_failures;          ///< ids of coflows failing a per-coflow check
  double worst_ratio = 0.0;                  ///< max real CCT / S_p CCT (check_reco_mul)
  /// Coflows counted as failed: all of them if a whole-plan check failed.
  int failed_coflows(int num_coflows) const;
};

/// Checks of an emitted real-time schedule alone: it is port feasible, and
/// every demand entry is served for at least its size (all-stop halts only
/// stretch a slice, so real service may exceed the demand, never fall short).
MulCheck check_real_schedule(const std::vector<reco::Coflow>& coflows,
                             const reco::SliceSchedule& real);

/// Checks of a Reco-Mul plan with its intermediate schedules: those of
/// check_real_schedule, S_p and the pseudo schedule transmit exactly the
/// demand, and each coflow's real CCT is within Eqn. (3) of its S_p CCT
/// (plus the delta of the first batch, which the paper's accounting omits).
MulCheck check_reco_mul(const std::vector<reco::Coflow>& coflows,
                        const reco::SliceSchedule& packet, const reco::SliceSchedule& pseudo,
                        const reco::SliceSchedule& real, reco::Time delta, double c);

/// Peak resident set (VmHWM) of this process in MB, or 0 if unreadable.
double peak_rss_mb();

}  // namespace perfbench
