#include "obs/recorder.hpp"

#include <sstream>

#include "obs/trace_export.hpp"

namespace aimes::obs {

void Recorder::start_sampling(common::SimDuration interval) {
  if (interval <= common::SimDuration::zero()) return;
  if (pending_.valid()) {
    engine_.cancel(pending_);
    pending_ = common::EventId::invalid();
  }
  interval_ = interval;
  sampling_ = true;
  metrics_.sample(engine_.now());
  if (engine_.queued() > 0) {
    pending_ = engine_.schedule(interval_, [this] { tick(); });
  }
}

void Recorder::stop_sampling() {
  if (pending_.valid()) {
    engine_.cancel(pending_);
    pending_ = common::EventId::invalid();
  }
  sampling_ = false;
}

void Recorder::note_activity() {
  if (!sampling_ || pending_.valid()) return;
  pending_ = engine_.schedule(interval_, [this] { tick(); });
}

void Recorder::tick() {
  pending_ = common::EventId::invalid();
  metrics_.sample(engine_.now());
  // Reschedule only while other work remains: a sampler that kept itself
  // alive would spin `while (engine.step())` drivers forever. A parked
  // sampler is revived by the next emission (note_activity).
  if (engine_.queued() > 0) {
    pending_ = engine_.schedule(interval_, [this] { tick(); });
  }
}

Snapshot Recorder::snapshot(bool render_artifacts) const {
  Snapshot snap;
  snap.span_checksum = tracer_.checksum();
  snap.span_count = tracer_.spans().size();
  snap.instant_count = tracer_.instants().size();
  snap.max_span_depth = tracer_.max_depth();
  snap.metric_count = metrics_.metrics().size();
  snap.sample_count = metrics_.sample_count();
  if (render_artifacts) {
    std::ostringstream trace;
    export_chrome_trace(tracer_, metrics_, trace);
    snap.chrome_trace = trace.str();
    std::ostringstream prom;
    export_prometheus(metrics_, prom);
    snap.prometheus = prom.str();
    std::ostringstream csv;
    export_csv_series(metrics_, csv);
    snap.csv = csv.str();
  }
  return snap;
}

}  // namespace aimes::obs
