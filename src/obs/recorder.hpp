// The per-simulation observability hub: one SpanTracer + one
// MetricsRegistry, plus the virtual-time sampling loop that turns live
// gauges into time series.
//
// A Recorder belongs to exactly one sim::Engine replica (same ownership rule
// as everything else in a trial). Instrumented layers hold a nullable
// `obs::Recorder*` and emit only when it is set, so the instrumentation has
// zero cost when observability is off and the simulation's event sequence is
// unchanged either way: sampler ticks only consume sequence numbers, which
// never reorders the other events at a timestamp.
#pragma once

#include <cstdint>
#include <string>

#include "common/id.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"

namespace aimes::obs {

/// Knobs carried in core::AimesConfig.
struct ObservabilityOptions {
  bool enabled = false;
  /// Virtual-time distance between registry samples.
  common::SimDuration sample_interval = common::SimDuration::seconds(30);
};

/// Everything a trial keeps after the Recorder (and its engine) are gone:
/// summary stats always, rendered export artifacts on request.
struct Snapshot {
  std::uint64_t span_checksum = 0;
  std::size_t span_count = 0;
  std::size_t instant_count = 0;
  int max_span_depth = 0;
  std::size_t metric_count = 0;
  std::size_t sample_count = 0;
  // Rendered exports (empty unless requested — they can be large).
  std::string chrome_trace;
  std::string prometheus;
  std::string csv;
};

class Recorder {
 public:
  explicit Recorder(sim::Engine& engine) : engine_(engine) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  [[nodiscard]] SpanTracer& tracer() { return tracer_; }
  [[nodiscard]] const SpanTracer& tracer() const { return tracer_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Samples immediately, then keeps sampling every `interval` for as long
  /// as other work remains queued. The loop parks itself when the sampler
  /// would be the only pending event, so `while (engine.step())`-style
  /// drivers still terminate; any later emission through note_activity()
  /// revives it.
  void start_sampling(common::SimDuration interval);

  /// Cancels the pending sampler tick (idempotent).
  void stop_sampling();

  /// Re-arms a parked sampler; instrumented layers call this via the
  /// emission helpers below so sampling resumes with the next burst of
  /// activity.
  void note_activity();

  /// Convenience emission helpers (all virtual-time-stamped with now()).
  SpanId begin_span(std::string name, std::string track, SpanId parent = kNoSpan) {
    note_activity();
    return tracer_.begin_span(engine_.now(), std::move(name), std::move(track), parent);
  }
  void end_span(SpanId id) { tracer_.end_span(id, engine_.now()); }
  void instant(std::string name, std::string track, std::vector<Attr> attrs = {}) {
    note_activity();
    tracer_.instant(engine_.now(), std::move(name), std::move(track), std::move(attrs));
  }

  /// Summary stats + optionally the rendered Chrome-trace / Prometheus / CSV
  /// artifacts.
  [[nodiscard]] Snapshot snapshot(bool render_artifacts = false) const;

 private:
  void tick();

  sim::Engine& engine_;
  SpanTracer tracer_;
  MetricsRegistry metrics_;
  common::SimDuration interval_ = common::SimDuration::zero();
  common::EventId pending_ = common::EventId::invalid();
  bool sampling_ = false;
};

}  // namespace aimes::obs
