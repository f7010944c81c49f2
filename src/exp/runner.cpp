#include "exp/runner.hpp"

#include <chrono>

#include "common/log.hpp"
#include "sim/replica_pool.hpp"
#include "skeleton/application.hpp"

namespace aimes::exp {

namespace {
/// Fills the engine self-profiling block from a finished world. Wall time
/// is the caller's measurement (simulation wall clock, not setup).
EngineStats engine_stats(core::Aimes& aimes, double wall_seconds) {
  EngineStats stats;
  stats.events_executed = aimes.engine().executed();
  stats.peak_queued = aimes.engine().peak_queued();
  stats.wall_seconds = wall_seconds;
  stats.events_per_second =
      wall_seconds > 1e-9 ? static_cast<double>(stats.events_executed) / wall_seconds : 0.0;
  return stats;
}
}  // namespace

AppSpec make_app_spec(const ExperimentSpec& experiment, int tasks) {
  AppSpec app;
  app.skeleton = experiment.make_skeleton(tasks);
  app.planner = experiment.make_planner_config();
  app.label = experiment.label;
  return app;
}

TrialResult run_trial(const AppSpec& app, std::uint64_t seed, const WorldTweaks& tweaks) {
  core::AimesConfig config;
  config.seed = seed;
  config.warmup = tweaks.warmup;
  if (!tweaks.testbed.empty()) config.testbed = tweaks.testbed;
  config.execution.units.unit_failure_probability = tweaks.unit_failure_probability;
  config.execution.recovery = tweaks.recovery;
  config.faults = tweaks.faults;
  config.observability = tweaks.observability;

  const auto wall_start = std::chrono::steady_clock::now();
  core::Aimes aimes(config);
  aimes.start();

  const auto materialized = skeleton::materialize(app.skeleton, seed);

  TrialResult result;
  auto run = aimes.run(materialized, app.planner);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  result.engine = engine_stats(aimes, wall_seconds);
  if (aimes.recorder() != nullptr) result.obs = aimes.recorder()->snapshot(tweaks.obs_artifacts);
  if (!run.ok()) {
    common::Log::warn("exp", "trial failed to plan: " + run.error());
    return result;
  }
  result.report = std::move(run->report);
  return result;
}

TrialResult run_trial(const ExperimentSpec& experiment, int tasks, std::uint64_t seed,
                      const WorldTweaks& tweaks) {
  return run_trial(make_app_spec(experiment, tasks), seed, tweaks);
}

CellResult run_cell(const AppSpec& app, int n_trials, std::uint64_t base_seed,
                    const WorldTweaks& tweaks, const TrialProgress& progress, int jobs,
                    const StopToken& stop) {
  CellResult cell;
  cell.experiment.label = app.label;
  for (const auto& stage : app.skeleton.stages) cell.tasks += stage.tasks;
  cell.tasks *= app.skeleton.iterations > 1 ? app.skeleton.iterations : 1;
  if (n_trials <= 0) return cell;
  // Each trial is a pure function of its seed; the pool returns results in
  // seed order no matter which worker finishes first, so the serial
  // aggregation below sees exactly the sequence the legacy loop saw.
  // Progress fires from whichever worker finished the trial (callers that
  // aggregate must lock); the stop token is polled before each trial starts,
  // so cancellation lands at trial granularity.
  sim::ReplicaPool pool(jobs < 0 ? 1u : static_cast<unsigned>(jobs));
  const std::vector<TrialResult> results = pool.map<TrialResult>(
      static_cast<std::size_t>(n_trials), [&](std::size_t t) {
        if (stop && stop()) {
          TrialResult skipped;
          skipped.skipped = true;
          return skipped;
        }
        TrialResult r =
            run_trial(app, base_seed + static_cast<std::uint64_t>(t) + 1, tweaks);
        if (progress) progress(static_cast<int>(t), r);
        return r;
      });
  cell.span_checksum = kChecksumSeed;
  for (int t = 0; t < n_trials; ++t) {
    const TrialResult& r = results[static_cast<std::size_t>(t)];
    if (r.skipped) {
      ++cell.trials_skipped;
      continue;
    }
    cell.span_checksum = fold_trial_span(cell.span_checksum, r.obs.span_checksum);
    cell.events_executed += r.engine.events_executed;
    cell.wall_seconds += r.engine.wall_seconds;
    if (r.report.success) {
      cell.ttc_s.add(r.report.ttc.ttc.to_seconds());
      cell.tw_s.add(r.report.ttc.tw.to_seconds());
      cell.tx_s.add(r.report.ttc.tx.to_seconds());
      cell.ts_s.add(r.report.ttc.ts.to_seconds());
      cell.faults_n.add(static_cast<double>(r.report.faults.total()));
      cell.resubmitted_n.add(static_cast<double>(r.report.recovery.pilots_resubmitted));
    } else {
      ++cell.failures;
    }
  }
  return cell;
}

CellResult run_cell(const ExperimentSpec& experiment, int tasks, int n_trials,
                    std::uint64_t base_seed, const WorldTweaks& tweaks,
                    const TrialProgress& progress, int jobs, const StopToken& stop) {
  CellResult cell = run_cell(make_app_spec(experiment, tasks), n_trials, base_seed, tweaks,
                             progress, jobs, stop);
  cell.experiment = experiment;
  cell.tasks = tasks;
  return cell;
}

}  // namespace aimes::exp
