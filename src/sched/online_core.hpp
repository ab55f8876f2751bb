// Incremental online replan core: the engine under both `schedule_online`
// (the batch loop driver) and the event-driven `sim::OnlineDaemon`.
//
// The historical online path rebuilt all Reco-Mul state from dense Coflow
// copies on every epoch — O(batch * N^2) of allocation and copying per
// replan.  OnlineCore instead keeps one long-lived *slot* per live coflow
// holding its sparse residual (`SupportIndex`), recycles slots through a
// free list as coflows finish, and threads caller-owned scratch
// (PacketScratch / RecoMulScratch / OrderingScratch)
// through every pipeline stage.  After warm-up, a replan touches only
// pre-sized buffers: the `alloc_events` counter (same accounting idiom as
// `matching.engine`) stays flat across a 100k-coflow arrival stream.
//
// Determinism contract: every decision is a pure function of submitted
// coflows and options.  Wall-clock enters only the latency recorder and
// obs telemetry, which never feed back; `runtime::parallel_for` call sites
// write by index — so replays are byte-identical across `--threads`.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/coflow.hpp"
#include "core/slice.hpp"
#include "core/snapshot.hpp"
#include "core/support_index.hpp"
#include "core/types.hpp"
#include "sched/online_policy.hpp"
#include "sched/ordering.hpp"
#include "sched/packet_scheduler.hpp"
#include "sched/reco_mul.hpp"

namespace reco {

/// Fixed power-of-two-bucket latency sketch: allocation-free recording
/// (plain array increments).  Kept separate from the obs registry so
/// decision latency is first-class in the daemon report even when
/// telemetry is disabled; quantiles delegate to the shared
/// obs::quantile_from_buckets interpolation, so percentile math lives in
/// one place and agrees with the registry histograms.
class DecisionLatencyRecorder {
 public:
  static constexpr std::size_t kBuckets = 40;  ///< up to 2^39 us (~6.4 days)

  void record_us(double us);

  std::uint64_t count() const { return count_; }
  double mean_us() const { return count_ == 0 ? 0.0 : sum_us_ / static_cast<double>(count_); }
  double min_us() const { return count_ == 0 ? 0.0 : min_us_; }
  double max_us() const { return max_us_; }
  /// Linearly interpolated q-quantile (0 <= q <= 1) over the pow2 buckets,
  /// clamped to the observed [min, max].
  double quantile_us(double q) const;

  /// Checkpoint hooks: totals resume across a restart.  Latency is
  /// wall-clock and therefore *not* part of the byte-identity contract —
  /// post-resume recordings depend on the machine — but carrying the
  /// counters over keeps lifetime summaries meaningful.
  void save(SnapshotWriter& out) const;
  void load(SnapshotReader& in);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};  ///< bucket k: us <= 2^k
  std::uint64_t count_ = 0;
  double sum_us_ = 0.0;
  double min_us_ = 0.0;
  double max_us_ = 0.0;
};

struct OnlineCoreOptions {
  Time delta = 100e-6;
  double c_threshold = 4.0;
  OrderingPolicy ordering = OrderingPolicy::kBssi;  ///< ALG_p inside an epoch
  /// Keep the emitted SliceSchedule.  The soak/daemon mode turns this off:
  /// an unbounded result vector is the one buffer that *must* grow with
  /// stream length (the digest still covers every emitted slice).
  bool record_schedule = true;
  /// Keep per-coflow CCTs (indexed by admission sequence).  `reserve()`
  /// pre-sizes the vector so recording stays allocation-free.
  bool record_cct = true;
};

struct OnlineCoreStats {
  std::uint64_t submitted = 0;
  std::uint64_t finished = 0;
  std::uint64_t plans = 0;
  std::uint64_t commits = 0;
  std::uint64_t emitted_slices = 0;
  std::uint64_t slot_reuses = 0;    ///< admissions that recycled a finished slot
  std::uint64_t alloc_events = 0;   ///< capacity-footprint high-water increases
  std::uint64_t peak_live = 0;      ///< max concurrently live coflows
  int reconfigurations = 0;         ///< distinct start batches among emitted slices
  int epochs = 0;                   ///< batch replan rounds committed
  Time demand_total = 0.0;          ///< sum of submitted demand volume
  Time delivered_total = 0.0;       ///< volume drained from residuals so far
  Time total_weighted_cct = 0.0;    ///< sum w_k * CCT_k over finished coflows
};

/// The replan engine.  Drivers own the clock and the arrival feed; the core
/// owns every per-coflow and per-epoch buffer.  Protocol:
///
///   batch policies:  submit(c)... -> plan(now) -> commit(cut) -> repeat
///   serial (FIFO):   submit(c)... -> step_fifo(now) -> repeat
///
/// `plan` builds a full Reco-Mul plan for the live set on a local time axis
/// based at `now`; `commit` materializes the prefix of slices that start by
/// `cut_local` (infinity = the whole plan), folds served volume out of the
/// residuals, finishes drained coflows, and recycles their slots.
class OnlineCore {
 public:
  explicit OnlineCore(OnlinePolicyKind kind, const OnlineCoreOptions& options = {});

  /// Pre-size result and bookkeeping vectors for an expected stream length
  /// (warm-up allocation, so the steady state stays flat).
  void reserve(std::size_t expected_coflows);

  /// Admit a coflow (it has arrived; the driver controls when).  Returns
  /// the admission sequence number (0-based, dense) used to key
  /// `cct_by_seq`.  All demands must share one fabric dimension.
  std::uint64_t submit(const Coflow& coflow);

  std::size_t live() const { return live_slots_.size(); }
  bool idle() const { return live_slots_.empty(); }
  bool has_plan() const { return has_plan_; }

  /// Build a plan for every live coflow on a local axis based at `now`.
  /// Returns the full plan's real-time makespan (local).  Batch policies
  /// only; requires no plan outstanding and a non-empty live set.
  Time plan(Time now);

  /// Emit the kept prefix (slices starting by `cut_local` + eps), update
  /// residuals/CCTs, recycle finished slots.  Returns the kept epoch end
  /// (local axis; 0 if nothing was kept).
  Time commit(Time cut_local);

  /// FIFO: serve the earliest-admitted live coflow to completion through
  /// Reco-Sin starting at max(now, arrival).  Returns the absolute finish
  /// time (`now` unchanged if nothing is live).
  Time step_fifo(Time now);

  OnlinePolicyKind kind() const { return kind_; }
  const OnlinePolicy& policy() const { return *policy_; }
  const OnlineCoreOptions& options() const { return options_; }

  const SliceSchedule& schedule() const { return schedule_; }
  /// Per-coflow CCT keyed by admission sequence (record_cct mode).
  const std::vector<Time>& cct_by_seq() const { return cct_; }
  /// Residual demand volume still live (exact sums; O(live * n)).  The
  /// conservation invariant — delivered_total + outstanding() ==
  /// demand_total up to accumulated clamp crumbs — is the drain-replan
  /// accounting property the tests pin down.
  Time outstanding() const;

  const OnlineCoreStats& stats() const { return stats_; }
  const DecisionLatencyRecorder& latency() const { return latency_; }

  /// Serialize the full scheduling state: slots (sparse residuals), live
  /// and free lists, stats, digest, CCTs, the recorded schedule, and —
  /// crucially — only a *flag* for an outstanding plan.  Plans are a pure
  /// function of the live residuals (residuals are untouched between
  /// plan() and commit()), so load() rebuilds an outstanding plan by
  /// re-running plan() on the restored slots instead of serializing
  /// RecoMulSchedule internals; the rebuilt plan is bit-identical, and the
  /// resumed run's digest, schedule, and stats match the uninterrupted
  /// run's exactly.  load() requires a core constructed with the same
  /// policy kind and options (verified; throws std::runtime_error on
  /// mismatch).
  void save(SnapshotWriter& out) const;
  void load(SnapshotReader& in);
  /// FNV-1a over every emitted slice (start/end bits, ports, coflow id) —
  /// the byte-identity witness for thread-count and daemon-vs-loop
  /// equivalence without storing a 100k-coflow schedule.
  std::uint64_t digest() const { return digest_; }
  /// Heap capacity currently held by all working state, in elements.
  std::size_t capacity_footprint() const;

 private:
  struct Slot {
    SupportIndex residual;
    CoflowId id = 0;        ///< external id stamped on emitted slices
    std::uint64_t seq = 0;  ///< admission sequence
    double weight = 1.0;
    Time arrival = 0.0;
    Time last_end = 0.0;    ///< latest emitted slice end (absolute axis)
  };

  void emit_slice(Time start, Time end, PortId src, PortId dst, CoflowId id);
  void finish_slot(int slot, Time done_at);
  /// Sample the capacity footprint; a new high-water mark is an alloc event.
  void note_footprint();

  OnlinePolicyKind kind_;
  std::unique_ptr<OnlinePolicy> policy_;
  OnlineCoreOptions options_;

  // Slot store: slots_ never shrinks; finished slots are recycled via the
  // free list and re-seated with SupportIndex::assign (capacity reuse).
  std::vector<Slot> slots_;
  std::vector<int> free_slots_;
  std::vector<int> live_slots_;  ///< live slot indices, admission order

  // Per-plan state (valid while has_plan_).
  bool has_plan_ = false;
  Time base_ = 0.0;
  std::vector<int> batch_slots_;                  ///< batch position -> slot
  std::vector<const SupportIndex*> batch_residuals_;
  std::vector<double> batch_weights_;
  std::vector<CoflowId> batch_ids_;               ///< iota: local id == position
  std::vector<int> order_;
  SliceSchedule packet_;
  RecoMulSchedule plan_;

  // Pipeline scratch, threaded through every stage.
  OrderingScratch ordering_scratch_;
  PacketScratch packet_scratch_;
  RecoMulScratch mul_scratch_;
  std::vector<Time> kept_starts_;     ///< batch counting among kept slices
  std::vector<char> finished_flags_;  ///< single-pass live-list compaction
  SliceSchedule step_slices_;         ///< FIFO per-step executor output

  // Results and accounting.
  SliceSchedule schedule_;
  std::vector<Time> cct_;
  OnlineCoreStats stats_;
  DecisionLatencyRecorder latency_;
  std::uint64_t digest_ = 14695981039346656037ULL;  // FNV-1a offset basis
  std::size_t footprint_high_water_ = 0;
};

}  // namespace reco
