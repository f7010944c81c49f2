// Trial runner: the reproducible unit of the virtual laboratory.
//
// One *trial* = one fresh world (fresh testbed, fresh background-load
// realization from the trial's seed) running one application under one
// experiment's strategy. Repeated trials with distinct seeds reproduce the
// paper's "each application was run many times depending on run-to-run
// fluctuation"; a year of machine-room dynamics compresses into seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/stats.hpp"
#include "core/aimes.hpp"
#include "exp/matrix.hpp"

namespace aimes::exp {

/// Result of one trial: the execution layer's full report, verbatim. A trial
/// that fails to plan carries a default report (success == false). Embedding
/// the report (instead of hand-copying fields) means new report fields —
/// recovery stats, fault counts, metrics — reach the experiment layer
/// without edits in two places.
/// Engine self-profiling of one trial: how the *simulator* performed, as
/// opposed to what the simulated middleware did. Wall-clock fields are
/// measured on the worker that ran the trial and excluded from checksums
/// (they vary run to run; the simulation itself does not).
struct EngineStats {
  std::size_t events_executed = 0;
  std::size_t peak_queued = 0;
  double wall_seconds = 0.0;
  /// events_executed / wall_seconds (0 when wall time is unmeasurably small).
  double events_per_second = 0.0;
};

struct TrialResult {
  core::ExecutionReport report;
  EngineStats engine;
  /// Observability summary (all-zero unless tweaks.observability.enabled);
  /// rendered artifacts only when tweaks.obs_artifacts was set.
  obs::Snapshot obs;
  /// The trial never ran: a cancellation stop() fired before its turn.
  /// Skipped trials are excluded from every cell aggregate.
  bool skipped = false;
};

/// Aggregated results of repeated trials of one (experiment, size) cell.
struct CellResult {
  ExperimentSpec experiment;
  int tasks = 0;
  common::Summary ttc_s;  // seconds
  common::Summary tw_s;
  common::Summary tx_s;
  common::Summary ts_s;
  /// Faults injected / pilots resubmitted per successful trial (zero-heavy
  /// unless the tweaks carry a fault plan).
  common::Summary faults_n;
  common::Summary resubmitted_n;
  std::size_t failures = 0;  // trials that did not complete all units
  /// Trials skipped by a cancellation stop() — when nonzero the cell was cut
  /// short and its checksum does not claim cross-run bit-identity.
  std::size_t trials_skipped = 0;
  /// FNV-1a fold of every completed trial's span checksum in seed order —
  /// the bit-identity witness across `jobs` (folds zeros when observability
  /// is off, so it is still stable, just uninformative).
  std::uint64_t span_checksum = 0;
  /// Engine self-profiling summed over the cell's trials.
  std::size_t events_executed = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] bool cancelled() const { return trials_skipped > 0; }
};

/// Overrides applied to every trial's world.
struct WorldTweaks {
  /// Shrink or grow the default warmup (longer warmup = richer wait history).
  common::SimDuration warmup = common::SimDuration::hours(6);
  /// Replace the testbed entirely (empty = standard five-site pool).
  std::vector<cluster::TestbedSiteSpec> testbed;
  /// Failure injection for reliability experiments.
  double unit_failure_probability = 0.0;
  /// Fault plan injected into every trial's world (plan empty = none):
  /// explicit launch/kill/outage/transfer events plus stochastic rates, all
  /// seeded from the trial seed.
  core::FaultConfig faults;
  /// Execution-Manager pilot-loss recovery (disabled by default, matching
  /// historical trials; front ends arm it when a fault plan is present).
  core::RecoveryPolicy recovery;
  /// Span tracer + metrics registry + sampler (off by default; a trial with
  /// observability on is event-for-event identical to one without).
  core::ObsConfig observability;
  /// Also render the Chrome-trace/Prometheus/CSV artifacts into the trial's
  /// Snapshot (they can be large; summaries are always filled).
  bool obs_artifacts = false;
  /// Empty; see core::ShardingConfig.
  core::ShardingConfig sharding;
};

/// One application under one planning strategy — the general form of a cell,
/// of which ExperimentSpec (Table I's four rows) is a special case. The
/// daemon and aimes-run both land here, so a profile+strategy submitted over
/// HTTP runs the exact trial the CLI runs.
struct AppSpec {
  skeleton::SkeletonSpec skeleton;
  core::PlannerConfig planner;
  std::string label;
};

/// The AppSpec equivalent of `experiment` x `tasks`: same skeleton, same
/// planner inputs, bit-identical trials (asserted by the request tests).
[[nodiscard]] AppSpec make_app_spec(const ExperimentSpec& experiment, int tasks);

/// FNV-1a offset basis: the initial state of every cell checksum fold. A
/// live RunProgress can start here and fold completed trials in seed order
/// to converge on the exact CellResult / CampaignCellResult checksum.
inline constexpr std::uint64_t kChecksumSeed = 1469598103934665603ULL;

/// One fold step of a trial's span checksum into `state` — shared by the
/// cell aggregation and the streaming-progress prefix fold, so the running
/// checksum a watcher sees equals CellResult::span_checksum once the last
/// trial lands.
[[nodiscard]] constexpr std::uint64_t fold_trial_span(std::uint64_t state,
                                                      std::uint64_t span_checksum) {
  return (state ^ span_checksum) * 1099511628211ULL;
}

/// Invoked per finished trial from whichever pool worker ran it; must be
/// thread-safe when jobs > 1. Receives the trial index (seed order).
using TrialProgress = std::function<void(int, const TrialResult&)>;
/// Polled before each trial starts; returning true skips the remaining
/// trials (cooperative cancellation at trial granularity).
using StopToken = std::function<bool()>;

/// Runs one trial in a fresh world derived from `seed`.
[[nodiscard]] TrialResult run_trial(const AppSpec& app, std::uint64_t seed,
                                    const WorldTweaks& tweaks = {});
[[nodiscard]] TrialResult run_trial(const ExperimentSpec& experiment, int tasks,
                                    std::uint64_t seed, const WorldTweaks& tweaks = {});

/// Runs `n_trials` trials (seeds base_seed+1 ... base_seed+n) and aggregates.
///
/// `jobs` controls parallelism: 1 (default) is the legacy serial loop, 0
/// means hardware concurrency, N > 1 runs trials on a sim::ReplicaPool of N
/// workers. Each trial builds its own world from its own seed, and results
/// are aggregated in seed order, so the aggregate is bit-identical for every
/// `jobs` value — asserted by the reproducibility tests.
[[nodiscard]] CellResult run_cell(const AppSpec& app, int n_trials,
                                  std::uint64_t base_seed, const WorldTweaks& tweaks = {},
                                  const TrialProgress& progress = nullptr, int jobs = 1,
                                  const StopToken& stop = nullptr);
[[nodiscard]] CellResult run_cell(const ExperimentSpec& experiment, int tasks, int n_trials,
                                  std::uint64_t base_seed, const WorldTweaks& tweaks = {},
                                  const TrialProgress& progress = nullptr, int jobs = 1,
                                  const StopToken& stop = nullptr);

}  // namespace aimes::exp
