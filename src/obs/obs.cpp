#include "obs/obs.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "stats/csv.hpp"

namespace reco::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

bool init_from_env() {
  const char* env = std::getenv("RECO_TRACE");
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
    set_enabled(true);
  }
  return enabled();
}

MetricsRegistry& metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leak: outlives atexit flushes
  return *registry;
}

Tracer& tracer() {
  static Tracer* t = new Tracer();  // leak: outlives atexit flushes
  return *t;
}

void reset() {
  metrics().reset();
  tracer().clear();
}

void sync_trace_dropped() {
  // Monotone re-publication: inc by the delta since the last sync so the
  // counter tracks Tracer::dropped() without a settable counter type.
  // reset() zeroes the counter but not the tracer's lifetime drop count;
  // the high-water mark keeps later syncs from re-adding old drops.
  static std::atomic<std::uint64_t> synced{0};
  const std::uint64_t dropped = tracer().dropped();
  std::uint64_t seen = synced.load(std::memory_order_relaxed);
  if (dropped < seen) {  // tracer was cleared: re-base the high-water mark
    synced.store(dropped, std::memory_order_relaxed);
    return;
  }
  while (dropped > seen) {
    if (synced.compare_exchange_weak(seen, dropped, std::memory_order_relaxed)) {
      metrics().counter("obs.trace.dropped_events").inc(static_cast<double>(dropped - seen));
      break;
    }
  }
}

void save_trace_json(const std::string& path) {
  ensure_parent_directory(path);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_trace_json: cannot open " + path);
  tracer().write_chrome_json(out);
  if (!out) throw std::runtime_error("save_trace_json: write failed for " + path);
}

void save_metrics_csv(const std::string& path) {
  ensure_parent_directory(path);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_metrics_csv: cannot open " + path);
  metrics().write_csv(out);
  if (!out) throw std::runtime_error("save_metrics_csv: write failed for " + path);
}

namespace {
std::string& exit_trace_path() {
  static std::string path;
  return path;
}
std::string& exit_metrics_path() {
  static std::string path;
  return path;
}
}  // namespace

void flush_at_exit(std::string trace_path, std::string metrics_path) {
  static bool registered = false;
  exit_trace_path() = std::move(trace_path);
  exit_metrics_path() = std::move(metrics_path);
  if (!registered) {
    registered = true;
    std::atexit([] {
      // Exit context: report failures, don't throw.
      try {
        if (!exit_trace_path().empty()) save_trace_json(exit_trace_path());
        if (!exit_metrics_path().empty()) save_metrics_csv(exit_metrics_path());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "obs: exit flush failed: %s\n", e.what());
      }
    });
  }
}

}  // namespace reco::obs
