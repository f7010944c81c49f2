#include "exp/request_cli.hpp"

namespace aimes::exp {

void declare_request_options(common::cli::Parser& cli, RunRequest& req, bool& quick) {
  cli.string_option("--skeleton", req.skeleton_file, "skeleton application config file",
                    "FILE");
  cli.string_option("--profile", req.profile,
                    "built-in profile when no --skeleton is given:\n"
                    "bag-uniform | bag-gaussian | montage | blast |\n"
                    "cybershake | mapreduce (default bag-gaussian)",
                    "NAME");
  cli.int_option("--tasks", req.tasks, 1, 10000000,
                 "application size for built-in profiles (128)");
  cli.string_option("--testbed", req.testbed_file,
                    "resource pool config (default: paper's 5 sites)", "FILE");
  cli.string_option("--binding", req.strategy.binding, "early | late (late)", "B");
  cli.string_option("--scheduler", req.strategy.scheduler,
                    "unit scheduler: direct | round-robin | backfill\n"
                    "(default: derived from --binding)",
                    "K");
  cli.int_option("--pilots", req.strategy.pilots, 1, 4096, "number of pilots (3)");
  cli.string_option("--selection", req.strategy.selection,
                    "random | predicted (predicted)", "S");
  cli.int_option("--experiment", req.strategy.experiment, 1, 4,
                 "run a Table I experiment row (1-4); fixes the\n"
                 "workload and strategy, overriding --profile,\n"
                 "--binding, --pilots, and --selection");
  cli.uint64_option("--seed", req.seed, "world/application seed (42)", "S");
  cli.int_option("--trials", req.trials, 1, 1000000,
                 "sweep mode: run N replicas seeded S+1..S+N and\n"
                 "aggregate TTC (default 1 = single run)");
  cli.int_option("--jobs", req.jobs, 0, 4096,
                 "sweep worker threads (default: hardware\n"
                 "concurrency; 1 = serial). Aggregates are\n"
                 "bit-identical for every M",
                 "M");
  cli.double_option("--warmup", req.warmup_hours, 0.0, 24.0 * 365.0,
                    "background warmup hours (6)", "H");
  cli.double_option("--deadline", req.deadline_s, 0.1, 24.0 * 3600.0 * 365.0,
                    "daemon submissions: fail the run if still queued,\n"
                    "or cut it at the next trial boundary, this many\n"
                    "wall seconds after submit (default 0 = none);\n"
                    "local runs ignore it",
                    "S");
  cli.int_option("--campaign", req.campaign.tenants, 2, 256,
                 "campaign mode: N tenants with sizes cycled from\n"
                 "--tasks x {1,2,4}; plans each arrival against a\n"
                 "shared pilot pool (see --campaign-mode)");
  cli.custom_option("--arrival", "SPEC",
                    "campaign arrival process: poisson:RATE (tenants\n"
                    "per hour) or fixed:SECONDS (default fixed:1200)",
                    [&req](const std::string& value) {
                      return parse_arrival_spec(value, req.campaign.arrival);
                    });
  cli.custom_option("--campaign-mode", "M", "shared | private | sequential (shared)",
                    [&req](const std::string& value) -> common::Status {
                      if (!parse_campaign_mode(value, req.campaign.mode)) {
                        return common::Status::error(
                            "expected shared, private, or sequential");
                      }
                      return {};
                    });
  cli.flag("--admission", req.admission.enabled,
           "campaign: arm the SLO-aware admission ladder\n"
           "(admit -> queue -> degrade -> shed)");
  cli.custom_option("--quota", "C[:U[:H]]",
                    "campaign: per-tenant quota as concurrent cores,\n"
                    "optionally :units and :core-hours (0 = unlimited);\n"
                    "implies --admission",
                    [&req](const std::string& value) {
                      return parse_quota(value, req.admission.quota);
                    });
  cli.string_option("--slo", req.admission.slo,
                    "campaign: declared tenant SLO class, interactive |\n"
                    "standard | batch (standard); implies --admission",
                    "CLASS");
  cli.double_option("--max-queue-wait", req.admission.max_queue_wait_s, 1.0, 1e9,
                    "campaign: admission queue wait bound in seconds\n"
                    "(1800); implies --admission",
                    "S");
  cli.double_option("--breaker-threshold", req.admission.breaker_threshold, 0.01, 1.0,
                    "campaign: EWMA failure score that trips a site's\n"
                    "breaker (0.6); any --breaker-* arms the breakers",
                    "X");
  cli.int_option("--breaker-min-events", req.admission.breaker_min_events, 1, 1000000,
                 "campaign: events recorded at a site before its\n"
                 "breaker may trip (3)");
  cli.double_option("--breaker-cooldown", req.admission.breaker_cooldown_s, 1.0, 1e9,
                    "campaign: seconds an open breaker blocks a site\n"
                    "before the half-open probe (600)",
                    "S");
  cli.string_option("--fault-plan", req.faults.plan_file,
                    "fault-injection plan config ([fault.*] sections);\n"
                    "enables Execution-Manager recovery",
                    "FILE");
  cli.double_option("--pilot-failure-rate", req.faults.pilot_failure_rate, 0.0, 1.0,
                    "probability each pilot submission is rejected (0)", "P");
  cli.flag("--quick", quick,
           "small fast run: 16 tasks, 2 pilots, 1 h warmup\n"
           "(each unless explicitly overridden)");

  // Declarative exclusions shared by every front end: Table I rows fix the
  // workload, campaigns build their own size-cycled bags.
  cli.conflicts("--experiment", "--skeleton");
  cli.conflicts("--experiment", "--campaign");
  cli.conflicts("--campaign", "--skeleton");
  for (const char* campaign_only :
       {"--arrival", "--campaign-mode", "--admission", "--quota", "--slo", "--max-queue-wait",
        "--breaker-threshold", "--breaker-min-events", "--breaker-cooldown"}) {
    cli.requires_option(campaign_only, "--campaign");
  }
}

void finalize_request_options(const common::cli::Parser& cli, RunRequest& req, bool quick) {
  if (quick) {
    if (!cli.seen("--tasks")) req.tasks = 16;
    if (!cli.seen("--pilots")) req.strategy.pilots = 2;
    if (!cli.seen("--warmup")) req.warmup_hours = 1.0;
  }
  if (cli.seen("--quota") || cli.seen("--slo") || cli.seen("--max-queue-wait")) {
    req.admission.enabled = true;
  }
  if (cli.seen("--breaker-threshold") || cli.seen("--breaker-min-events") ||
      cli.seen("--breaker-cooldown")) {
    req.admission.breaker = true;
  }
}

}  // namespace aimes::exp
