// Fault flight recorder: a bounded ring of recent structured events —
// admissions, plans, commits, cuts, recovery replans, port failures and
// repairs, peel aborts — that is dumped as JSONL when something goes
// wrong, so the postmortem sees the N events *leading up to* the anomaly
// rather than only its aftermath.
//
// Producers stay on the PR-3 telemetry contract: every record site is
// gated on `obs::enabled()` (one relaxed load + branch when off), the
// recorder is write-only with respect to scheduling decisions, and the
// ring is bounded — recording overwrites the oldest event once full.
//
// Arming: `arm(path)` names a JSONL file; `trigger(reason)` then writes
// the entire ring (newest dump wins — the file always holds the most
// recent incident, bounded by the ring capacity).  Trigger sites in the
// tree: RecoveringController on a mid-schedule replan, the campaign
// runner on an anomaly replay, and reco_serve on exit.  Unarmed triggers
// are counted but write nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace reco::obs {

/// One recorded event.  `kind` is a static tag ("admission", "replan",
/// "port_fail", ...); `id` and `value` are kind-specific (coflow or port
/// id; latency, size, count), -1 / 0 when unused; `note` is optional
/// free text.
struct FlightEvent {
  std::uint64_t seq = 0;  ///< global record order (survives ring wrap)
  double t = 0.0;         ///< producer-timeline seconds
  const char* kind = "";
  std::int64_t id = -1;
  double value = 0.0;
  std::string note;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1024);

  /// Ring bound; resizing clears recorded events.
  std::size_t capacity() const;
  void set_capacity(std::size_t capacity);

  /// Push one event (overwrites the oldest once the ring is full).
  /// Callers gate on obs::enabled(); the recorder itself never checks.
  void record(const char* kind, double t, std::int64_t id = -1, double value = 0.0,
              std::string note = {});

  /// Name the auto-dump file.  An empty path disarms.
  void arm(std::string path);
  bool armed() const;
  std::string armed_path() const;

  /// Dump the ring (plus one trailing "trigger" event carrying `reason`)
  /// to the armed path.  Overwrites: the file holds the latest incident.
  /// No-op when unarmed; I/O failure is reported on stderr, never thrown
  /// (trigger sites are failure paths already).
  void trigger(const char* reason);

  std::size_t size() const;
  std::uint64_t total_events() const;
  std::uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }

  /// Ring contents oldest-to-newest, one JSON object per line:
  /// {"seq":..,"t":..,"kind":"..","id":..,"value":..,"note":".."}
  void write_jsonl(std::ostream& out) const;
  /// write_jsonl to `path` (creates parent dirs; throws on I/O failure).
  void save_jsonl(const std::string& path) const;

  /// Drop all events (capacity and armed path are untouched).
  void clear();

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<FlightEvent> ring_;  ///< circular once full
  std::size_t head_ = 0;           ///< next write position
  std::uint64_t total_ = 0;
  std::string path_;
  std::atomic<std::uint64_t> dumps_{0};
};

/// Process-wide recorder (created on first use, like obs::metrics()).
FlightRecorder& flight_recorder();

}  // namespace reco::obs
