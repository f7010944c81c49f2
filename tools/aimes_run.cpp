// aimes-run: command-line front end to the virtual laboratory.
//
// Runs one skeleton application (from a config file or a built-in profile)
// on a resource pool (built-in five-site testbed or a pool config file)
// under an explicit execution strategy, and reports the TTC decomposition
// and run metrics. Optionally dumps the full state-transition trace as CSV
// and the skeleton in any of the four emitter formats.
//
// The flags map onto one typed exp::RunRequest (the same struct `aimesd`
// accepts over HTTP), and sweeps/campaigns run through the same
// exp::execute(), so a cell run here is bit-identical — same FNV-1a
// checksum — to the same request submitted via `aimesc`. Only presentation
// stays local: single-run artifact rendering (--trace/--timeline/--report),
// the adaptive manager, skeleton emission, observability file outputs.
//
// Examples:
//   aimes-run --profile bag-gaussian --tasks 256 --binding late --pilots 3
//   aimes-run --skeleton app.cfg --testbed pool.cfg --seed 7 --trace run.csv
//   aimes-run --profile montage --tasks 64 --emit dax --emit-out app.dax
//   aimes-run --profile bag-uniform --tasks 512 --adaptive
//   aimes-run --profile bag-gaussian --tasks 256 --trials 32 --jobs 8
//   aimes-run --campaign 4 --tasks 16 --arrival poisson:4 --campaign-mode shared

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "core/adaptive.hpp"
#include "core/aimes.hpp"
#include "core/report_io.hpp"
#include "core/timeline.hpp"
#include "exp/request.hpp"
#include "exp/request_cli.hpp"
#include "obs/recorder.hpp"
#include "skeleton/emitters.hpp"

namespace {

using namespace aimes;

struct Args {
  exp::RunRequest req;
  bool quick = false;
  // Presentation-only concerns that never cross the wire.
  bool adaptive = false;
  bool timeline = false;
  bool verbose = false;
  std::string trace_file;
  std::string report_file;
  std::string trace_out;    // Chrome trace-event JSON (Perfetto-loadable)
  std::string metrics_out;  // Prometheus text; FILE.csv gets the series
  double sample_interval_s = 30.0;
  std::string emit;      // dax | swift | shell | json
  std::string emit_out;  // "-" or path
};

common::Expected<Args> parse_args(int argc, char** argv) {
  using E = common::Expected<Args>;
  Args args;
  common::cli::Parser cli("aimes-run");
  exp::declare_request_options(cli, args.req, args.quick);
  cli.flag("--adaptive", args.adaptive, "enable mid-run strategy adaptation");
  cli.string_option("--trace", args.trace_file,
                    "write the full state-transition trace as CSV", "FILE");
  cli.string_option("--trace-out", args.trace_out,
                    "write a Chrome trace-event JSON of the run's\n"
                    "spans and counter tracks (open in Perfetto)",
                    "FILE");
  cli.string_option("--metrics-out", args.metrics_out,
                    "write final metric values in Prometheus text\n"
                    "format; FILE.csv gets the sampled time series",
                    "FILE");
  cli.double_option("--sample-interval", args.sample_interval_s, 0.001, 1e6,
                    "metrics sampling interval in virtual seconds (30)", "S");
  cli.flag("--timeline", args.timeline, "print an ASCII Gantt timeline of the run");
  cli.string_option("--report", args.report_file, "write the run report as JSON", "FILE");
  cli.string_option("--emit", args.emit, "emit the skeleton: shell | json | dax | swift",
                    "FMT");
  cli.string_option("--emit-out", args.emit_out, "emission target ('-' = stdout)", "FILE");
  cli.flag("--verbose", args.verbose, "info-level logging");

  // Mode exclusions, declared once instead of hand-checked after parsing:
  // a campaign aggregates tenants, so the single-run artifact flags and the
  // adaptive manager cannot apply; --emit renders the skeleton without
  // running, so there is nothing for the observability exporters to record.
  for (const char* single_run : {"--adaptive", "--emit", "--trace", "--report",
                                 "--timeline"}) {
    cli.conflicts("--campaign", single_run);
  }
  for (const char* obs_out : {"--trace-out", "--metrics-out"}) {
    cli.conflicts("--emit", obs_out);
    cli.conflicts("--adaptive", obs_out);
  }

  auto parsed = cli.parse(argc, argv);
  if (!parsed) return E::error(parsed.error());
  if (parsed->help) {
    std::fputs(cli.usage().c_str(), stdout);
    std::exit(0);
  }
  exp::finalize_request_options(cli, args.req, args.quick);
  // Value-dependent checks the declarative pairs cannot express.
  if (args.req.trials > 1 && (!args.trace_out.empty() || !args.metrics_out.empty())) {
    return E::error("--trace-out/--metrics-out need a single run (--trials 1); use the "
                    "bench-obs target for sweeps");
  }
  if (args.req.trials > 1 &&
      (!args.trace_file.empty() || !args.report_file.empty() || args.timeline ||
       !args.emit.empty() || args.adaptive)) {
    return E::error(
        "--trials > 1 aggregates replicas; it cannot combine with the single-run "
        "artifacts --trace/--report/--timeline/--emit or with --adaptive");
  }
  // Observability rides the request: either output flag turns the recorder
  // (and artifact rendering) on for the executed trial.
  const bool obs_on = !args.trace_out.empty() || !args.metrics_out.empty();
  args.req.observability.enabled = obs_on;
  args.req.observability.sample_interval_s = args.sample_interval_s;
  args.req.observability.artifacts = obs_on;
  if (auto st = exp::validate(args.req); !st.ok()) return E::error(st.error());
  return args;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

/// Prints the observability summary and writes the requested artifacts.
/// Returns false when a file could not be written.
bool emit_observability(const Args& args, const obs::Snapshot& snap) {
  std::printf("  observability: %zu spans (max depth %d), %zu instants, %zu metrics, "
              "%zu samples | span checksum %016llx\n",
              snap.span_count, snap.max_span_depth, snap.instant_count, snap.metric_count,
              snap.sample_count, static_cast<unsigned long long>(snap.span_checksum));
  bool ok = true;
  if (!args.trace_out.empty()) {
    ok = write_text_file(args.trace_out, snap.chrome_trace) && ok;
    if (ok) std::printf("  trace-out: %s (open in ui.perfetto.dev)\n", args.trace_out.c_str());
  }
  if (!args.metrics_out.empty()) {
    ok = write_text_file(args.metrics_out, snap.prometheus) && ok;
    ok = write_text_file(args.metrics_out + ".csv", snap.csv) && ok;
    if (ok) {
      std::printf("  metrics-out: %s (+ %s.csv time series)\n", args.metrics_out.c_str(),
                  args.metrics_out.c_str());
    }
  }
  return ok;
}

/// Campaign front end: one trial prints the per-tenant breakdown; --trials N
/// sweeps seeded replicas through the campaign cell runner. Both run through
/// exp::execute — the same path a daemon submission takes.
int run_campaign(const Args& args) {
  const exp::RunRequest& req = args.req;
  std::printf("campaign: %d tenants (base %d tasks, sizes x{1,2,4}), mode %s\n",
              req.campaign.tenants, req.tasks,
              std::string(to_string(req.campaign.mode)).c_str());

  const exp::RunResult result = exp::execute(req);
  if (!result.ok) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return 1;
  }

  if (req.trials > 1) {
    const exp::CampaignCellResult& cell = result.campaign;
    std::printf("  %d trials: makespan mean %.0f s (stddev %.0f) | tenant TTC mean %.0f s\n",
                req.trials, cell.makespan_s.mean(), cell.makespan_s.stddev(),
                cell.tenant_ttc_s.mean());
    if (req.admission.enabled) {
      std::printf("  admission: %zu admitted, %zu shed | queue wait mean %.0f s | "
                  "goodput mean %.1f units/h\n",
                  cell.tenants_admitted, cell.tenants_shed, cell.admission_wait_s.mean(),
                  cell.goodput_uph.mean());
    }
    std::printf("  failed trials: %zu of %d | checksum %016llx\n", cell.failures,
                req.trials, static_cast<unsigned long long>(result.checksum));
    return result.success ? 0 : 1;
  }

  if (!result.has_first_campaign) {
    std::fprintf(stderr, "campaign trial did not run\n");
    return 1;
  }
  const exp::CampaignTrialResult& trial = result.first_campaign;
  std::printf("campaign %s: makespan %s\n", trial.success ? "succeeded" : "INCOMPLETE",
              trial.makespan.str().c_str());
  const bool obs_on = req.observability.enabled;
  if (req.campaign.mode == exp::CampaignMode::kSequential) {
    for (std::size_t i = 0; i < trial.tenant_ttc.size(); ++i) {
      std::printf("  t%zu: %d tasks, TTC %s\n", i + 1,
                  exp::campaign_tenant_tasks(result.campaign.spec, static_cast<int>(i)),
                  trial.tenant_ttc[i].str().c_str());
    }
    if (obs_on && !emit_observability(args, trial.obs)) return 1;
    return trial.success ? 0 : 1;
  }
  for (const auto& t : trial.report.tenants) {
    if (t.admission == core::AdmissionOutcome::kShed) {
      std::printf("  %s (w%d): SHED (%s) after %s queued\n", t.name.c_str(), t.weight,
                  core::to_string(t.shed_reason), t.admission_wait.str().c_str());
      continue;
    }
    std::printf("  %s (w%d): %zu done, TTC %s (Tw %s Tx %s Ts %s), pilots %d (%d reused)%s%s\n",
                t.name.c_str(), t.weight, t.units_done, t.ttc.ttc.str().c_str(),
                t.ttc.tw.str().c_str(), t.ttc.tx.str().c_str(), t.ttc.ts.str().c_str(),
                t.pilots_leased, t.pilots_reused, t.error.empty() ? "" : " | ERROR: ",
                t.error.c_str());
    if (t.admission == core::AdmissionOutcome::kAdmittedDegraded ||
        t.admission_wait > common::SimDuration::zero()) {
      std::printf("    admission: %s, %d pilot(s) granted, queued %s, slo %s\n",
                  core::to_string(t.admission), t.granted_pilots,
                  t.admission_wait.str().c_str(), core::to_string(t.slo));
    }
  }
  if (trial.report.admission.requests > 0) {
    std::printf("  admission: %llu requests | %llu admitted, %llu degraded, %llu queued, "
                "%llu shed\n",
                static_cast<unsigned long long>(trial.report.admission.requests),
                static_cast<unsigned long long>(trial.report.admission.admitted),
                static_cast<unsigned long long>(trial.report.admission.degraded),
                static_cast<unsigned long long>(trial.report.admission.queued),
                static_cast<unsigned long long>(trial.report.admission.shed));
  }
  if (trial.report.health.trips > 0 || trial.report.recovery.pilots_lost > 0) {
    std::printf("  health: %llu failures seen, %llu breaker trip(s), %llu probe(s) | "
                "recovery: %zu lost, %zu resubmitted\n",
                static_cast<unsigned long long>(trial.report.health.failures),
                static_cast<unsigned long long>(trial.report.health.trips),
                static_cast<unsigned long long>(trial.report.health.half_opens),
                trial.report.recovery.pilots_lost, trial.report.recovery.pilots_resubmitted);
  }
  std::printf("  pool: %d launched, %d leases served from running pilots, %d idled out\n",
              trial.report.pool.launched, trial.report.pool.reused,
              trial.report.pool.cancelled_idle);
  for (const auto& f : trial.report.fair_share) {
    std::printf("  fair-share t%d (w%d): %llu dispatches, max gap %llu\n", f.tenant,
                f.weight, static_cast<unsigned long long>(f.dispatched),
                static_cast<unsigned long long>(f.max_dispatch_gap));
  }
  std::printf("  throughput %.1f tasks/h over the campaign makespan\n",
              trial.report.metrics.throughput_tasks_per_hour);
  if (obs_on) {
    std::printf("  peak concurrent executing units (sampled gauge): %zu\n",
                trial.report.metrics.peak_units_executing);
    if (!emit_observability(args, trial.obs)) return 1;
  }
  return trial.success ? 0 : 1;
}

int emit_skeleton(const Args& args, const skeleton::SkeletonApplication& app) {
  std::string text;
  if (args.emit == "shell") text = skeleton::to_shell_script(app);
  else if (args.emit == "json") text = skeleton::to_json(app);
  else if (args.emit == "dax") text = skeleton::to_pegasus_dax(app);
  else if (args.emit == "swift") text = skeleton::to_swift_script(app);
  else {
    std::fprintf(stderr, "unknown emit format '%s'\n", args.emit.c_str());
    return 2;
  }
  if (args.emit_out.empty() || args.emit_out == "-") {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream out(args.emit_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.emit_out.c_str());
      return 1;
    }
    out << text;
    std::printf("wrote %s (%zu bytes, %s form)\n", args.emit_out.c_str(), text.size(),
                args.emit.c_str());
  }
  return 0;
}

/// Sweep front end (--trials > 1): N seeded replicas through exp::execute —
/// the same cell the daemon runs, same seeds S+1..S+N, same checksum.
int run_sweep(const Args& args) {
  const exp::RunRequest& req = args.req;
  std::printf("\nsweep: %d trials (seeds %llu..%llu), %s worker(s)\n", req.trials,
              static_cast<unsigned long long>(req.seed + 1),
              static_cast<unsigned long long>(req.seed + req.trials),
              req.jobs == 0 ? "hardware" : std::to_string(req.jobs).c_str());
  const exp::RunResult result = exp::execute(req);
  if (!result.ok) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return 1;
  }
  const exp::CellResult& cell = result.cell;
  std::printf("  TTC mean %.0f s (stddev %.0f, p50 %.0f) | Tw %.0f | Tx %.0f | Ts %.0f\n",
              cell.ttc_s.mean(), cell.ttc_s.stddev(), cell.ttc_s.percentile(50),
              cell.tw_s.mean(), cell.tx_s.mean(), cell.ts_s.mean());
  if (cell.faults_n.mean() > 0.0 || cell.resubmitted_n.mean() > 0.0) {
    std::printf("  faults/trial mean %.1f | pilots resubmitted/trial mean %.1f\n",
                cell.faults_n.mean(), cell.resubmitted_n.mean());
  }
  std::printf("  failed trials: %zu of %d | checksum %016llx\n", cell.failures, req.trials,
              static_cast<unsigned long long>(result.checksum));
  return result.success ? 0 : 1;
}

/// Single-run front end: drives trial 1's world (seed S+1, exactly the world
/// `--trials 1` runs through exp::execute) directly, which keeps the
/// renderers only this path offers — strategy description, adaptive manager,
/// CSV trace, ASCII timeline, report JSON, observability artifacts.
int run_single(const Args& args, const exp::ResolvedRun& resolved) {
  const exp::RunRequest& req = args.req;
  const exp::WorldTweaks& tweaks = resolved.tweaks;
  const std::uint64_t seed = req.seed + 1;

  core::AimesConfig config;
  config.seed = seed;
  config.warmup = tweaks.warmup;
  if (!tweaks.testbed.empty()) config.testbed = tweaks.testbed;
  config.execution.recovery = tweaks.recovery;
  config.faults = tweaks.faults;
  config.observability = tweaks.observability;

  const auto app = skeleton::materialize(resolved.app.skeleton, seed);
  std::printf("application '%s': %zu tasks in %zu stage(s), %s compute, %s external input\n",
              app.name().c_str(), app.task_count(), app.stages().size(),
              app.total_compute().str().c_str(), app.total_external_input().str().c_str());

  if (!args.emit.empty()) return emit_skeleton(args, app);

  core::Aimes aimes(config);
  aimes.start();

  auto strategy = aimes.plan(app, resolved.app.planner);
  if (!strategy) {
    std::fprintf(stderr, "planner: %s\n", strategy.error().c_str());
    return 1;
  }
  std::printf("\n%s\n", strategy->describe().c_str());

  pilot::Profiler adaptive_trace;
  core::ExecutionReport report;
  std::size_t adaptation_count = 0;
  if (args.adaptive) {
    core::AdaptiveExecutionManager manager(
        aimes.engine(), adaptive_trace, aimes.services(), aimes.staging(), aimes.bundles(),
        aimes.config().execution, core::AdaptivePolicy{}, common::Rng(seed));
    bool done = false;
    auto status = manager.enact(app, *strategy, [&](const core::ExecutionReport&) {
      done = true;
    });
    if (!status.ok()) {
      std::fprintf(stderr, "enact: %s\n", status.error().c_str());
      return 1;
    }
    while (!done && aimes.engine().step()) {
    }
    report = manager.report();
    adaptation_count = manager.adaptations().size();
  } else {
    auto result = aimes.execute(app, *strategy);
    report = result.report;
    adaptive_trace = std::move(result.trace);
  }

  std::printf("run %s: %zu done, %zu failed\n", report.success ? "succeeded" : "INCOMPLETE",
              report.units_done, report.units_failed);
  std::printf("  TTC %s | Tw %s | Tx %s | Ts %s\n", report.ttc.ttc.str().c_str(),
              report.ttc.tw.str().c_str(), report.ttc.tx.str().c_str(),
              report.ttc.ts.str().c_str());
  std::printf("  throughput %.1f tasks/h | pilot usage %.1f core-h (%.0f%% useful) | "
              "charge %.1f SU | energy %.2f kWh\n",
              report.metrics.throughput_tasks_per_hour, report.metrics.pilot_core_hours,
              100.0 * report.metrics.pilot_efficiency, report.metrics.charge,
              report.metrics.energy_kwh);
  if (args.adaptive) std::printf("  adaptations: %zu\n", adaptation_count);
  if (report.faults.total() > 0 || report.recovery.pilots_lost > 0) {
    std::printf("  faults: %zu injected (%zu launch, %zu kill, %zu outage, %zu transfer) | "
                "recovery: %zu lost, %zu resubmitted, %zu abandoned, mean latency %s\n",
                report.faults.total(), report.faults.pilot_launch_failures,
                report.faults.pilot_kills, report.faults.site_outages,
                report.faults.transfer_failures, report.recovery.pilots_lost,
                report.recovery.pilots_resubmitted, report.recovery.recoveries_abandoned,
                report.recovery.mean_recovery_latency().str().c_str());
  }

  if (aimes.recorder() != nullptr) {
    std::printf("  peak concurrent executing units (sampled gauge): %zu\n",
                report.metrics.peak_units_executing);
    std::printf("  engine: %zu events executed, peak queue %zu\n", aimes.engine().executed(),
                aimes.engine().peak_queued());
    if (!emit_observability(args, aimes.recorder()->snapshot(true))) return 1;
  }

  if (args.timeline) {
    if (core::build_timeline(adaptive_trace).empty()) {
      // No rows to draw: the trace has no RUN_START (run failed before
      // enactment) or no time passed after it.
      std::printf("\ntimeline: no RUN_START record in the trace, nothing to draw "
                  "(did the run fail before enactment?)\n");
    } else {
      std::printf("\n%s", core::render_timeline(adaptive_trace).c_str());
    }
  }
  if (!args.report_file.empty()) {
    auto saved = core::save_report_json(report, args.report_file);
    if (!saved.ok()) {
      std::fprintf(stderr, "report: %s\n", saved.error().c_str());
      return 1;
    }
    std::printf("  report: %s\n", args.report_file.c_str());
  }
  if (!args.trace_file.empty()) {
    std::ofstream out(args.trace_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_file.c_str());
      return 1;
    }
    adaptive_trace.render_csv(out);
    std::printf("  trace: %zu records -> %s\n", adaptive_trace.size(),
                args.trace_file.c_str());
  }
  return report.success ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr, "%s\n", parsed.error().c_str());
    return 2;
  }
  const Args& args = *parsed;
  if (args.verbose) common::Log::set_level(common::LogLevel::kInfo);

  if (args.req.is_campaign()) return run_campaign(args);
  if (args.req.trials > 1) return run_sweep(args);

  // Single run (and skeleton emission): resolve files once, then drive the
  // world directly for the artifact renderers.
  auto resolved = exp::resolve(args.req);
  if (!resolved) {
    std::fprintf(stderr, "%s\n", resolved.error().c_str());
    return 1;
  }
  return run_single(args, *resolved);
}
