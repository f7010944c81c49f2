// exp::RunRequest: the one typed run description shared by aimes-run,
// aimesc/aimesd, and the benches. Tests pin the three contracts the
// control plane leans on:
//   1. JSON round trip — serialize and re-parse reproduces every field;
//   2. typed rejection — malformed requests name the dotted field path
//      (and byte offset for JSON) instead of failing vaguely;
//   3. execution parity — execute(request) is bit-identical (FNV-1a
//      checksum) to driving the underlying cell runners directly, so a
//      daemon submission reproduces a CLI run.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "exp/request.hpp"
#include "exp/request_cli.hpp"

namespace {

using namespace aimes;

exp::RunRequest quick_request() {
  exp::RunRequest req;
  req.tasks = 4;
  req.trials = 2;
  req.warmup_hours = 1.0;
  req.strategy.pilots = 2;
  return req;
}

TEST(RunRequestJson, RoundTripPreservesEveryField) {
  exp::RunRequest req;
  req.name = "nightly";
  req.user = "ana";
  req.profile = "montage";
  req.tasks = 64;
  req.warmup_hours = 2.5;
  req.seed = 99;
  req.trials = 8;
  req.jobs = 4;
  req.strategy.binding = "early";
  req.strategy.scheduler = "direct";
  req.strategy.pilots = 5;
  req.strategy.selection = "random";
  req.observability.enabled = true;
  req.observability.sample_interval_s = 10.0;

  const std::string json = exp::run_request_to_json(req);
  auto parsed = exp::parse_run_request("round-trip", json);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(exp::run_request_to_json(*parsed), json);
  EXPECT_EQ(parsed->name, "nightly");
  EXPECT_EQ(parsed->user, "ana");
  EXPECT_EQ(parsed->profile, "montage");
  EXPECT_EQ(parsed->tasks, 64);
  EXPECT_DOUBLE_EQ(parsed->warmup_hours, 2.5);
  EXPECT_EQ(parsed->seed, 99u);
  EXPECT_EQ(parsed->trials, 8);
  EXPECT_EQ(parsed->jobs, 4);
  EXPECT_EQ(parsed->strategy.binding, "early");
  EXPECT_EQ(parsed->strategy.scheduler, "direct");
  EXPECT_EQ(parsed->strategy.pilots, 5);
  EXPECT_EQ(parsed->strategy.selection, "random");
  EXPECT_TRUE(parsed->observability.enabled);
  EXPECT_DOUBLE_EQ(parsed->observability.sample_interval_s, 10.0);
}

TEST(RunRequestJson, CampaignRoundTripWithAdmission) {
  exp::RunRequest req = quick_request();
  req.profile = "bag-uniform";
  req.campaign.tenants = 4;
  req.campaign.arrival.poisson_per_hour = 6.0;
  req.campaign.mode = exp::CampaignMode::kPrivatePilots;
  req.admission.enabled = true;
  req.admission.quota = {3, 2, 48.0};
  req.admission.slo = "batch";
  req.admission.max_queue_wait_s = 900.0;
  req.admission.breaker = true;
  req.admission.breaker_threshold = 0.5;

  auto parsed = exp::parse_run_request("round-trip", exp::run_request_to_json(req));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->campaign.tenants, 4);
  EXPECT_DOUBLE_EQ(parsed->campaign.arrival.poisson_per_hour, 6.0);
  EXPECT_EQ(parsed->campaign.mode, exp::CampaignMode::kPrivatePilots);
  EXPECT_TRUE(parsed->admission.enabled);
  EXPECT_EQ(parsed->admission.slo, "batch");
  EXPECT_DOUBLE_EQ(parsed->admission.max_queue_wait_s, 900.0);
  EXPECT_TRUE(parsed->admission.breaker);
  EXPECT_DOUBLE_EQ(parsed->admission.breaker_threshold, 0.5);
}

TEST(RunRequestJson, ErrorsCarryDottedPathAndByteOffset) {
  auto bad = exp::parse_run_request("request body", "{\"tasks\": \"lots\"}");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("request body"), std::string::npos) << bad.error();
  EXPECT_NE(bad.error().find("'tasks'"), std::string::npos) << bad.error();
  EXPECT_NE(bad.error().find("byte"), std::string::npos) << bad.error();

  auto nested = exp::parse_run_request(
      "request body", "{\"strategy\": {\"pilots\": \"three\"}}");
  ASSERT_FALSE(nested.ok());
  EXPECT_NE(nested.error().find("strategy.pilots"), std::string::npos) << nested.error();
}

TEST(RunRequestJson, RejectsGarbageDocument) {
  EXPECT_FALSE(exp::parse_run_request("request body", "not json at all").ok());
  EXPECT_FALSE(exp::parse_run_request("request body", "").ok());
}

TEST(RunRequestJson, NonFiniteAndOutOfRangeNumbersAreRefusedByField) {
  const struct {
    const char* json;
    const char* field;
  } cases[] = {
      {R"({"warmup_hours": nan})", "'warmup_hours'"},
      {R"({"faults": {"pilot_failure_rate": nan}})", "'faults.pilot_failure_rate'"},
      {R"({"observability": {"sample_interval_s": nan}})",
       "'observability.sample_interval_s'"},
      {R"({"observability": {"sample_interval_s": 1e300}})",
       "'observability.sample_interval_s'"},
      {R"({"admission": {"max_queue_wait_s": inf}})", "'admission.max_queue_wait_s'"},
      {R"({"admission": {"breaker_cooldown_s": 1e300}})", "'admission.breaker_cooldown_s'"},
      {R"({"seed": 1e30})", "'seed'"},
      {R"({"seed": nan})", "'seed'"},
      {R"({"seed": -1})", "'seed'"},
      {R"({"tasks": 1e30})", "'tasks'"},
      {R"({"tasks": nan})", "'tasks'"},
      {R"({"strategy": {"pilots": -1e12}})", "'strategy.pilots'"},
  };
  for (const auto& c : cases) {
    auto parsed = exp::parse_run_request("request body", c.json);
    ASSERT_FALSE(parsed.ok()) << c.json;
    EXPECT_NE(parsed.error().find(c.field), std::string::npos) << parsed.error();
  }
}

TEST(RunRequestValidate, NonFiniteDoublesAreRefusedByField) {
  exp::RunRequest req = quick_request();
  const std::pair<const char*, double*> fields[] = {
      {"warmup_hours", &req.warmup_hours},
      {"deadline_s", &req.deadline_s},
      {"campaign.arrival", &req.campaign.arrival.poisson_per_hour},
      {"faults.pilot_failure_rate", &req.faults.pilot_failure_rate},
      {"admission.quota", &req.admission.quota.max_core_hours},
      {"admission.max_queue_wait_s", &req.admission.max_queue_wait_s},
      {"admission.breaker_threshold", &req.admission.breaker_threshold},
      {"admission.breaker_cooldown_s", &req.admission.breaker_cooldown_s},
      {"observability.sample_interval_s", &req.observability.sample_interval_s},
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [path, field] : fields) {
    const double saved = *field;
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
      *field = bad;
      const auto st = exp::validate(req);
      ASSERT_FALSE(st.ok()) << path << " = " << bad;
      EXPECT_NE(st.error().find(std::string("'") + path + "'"), std::string::npos)
          << st.error();
    }
    *field = saved;
  }
}

TEST(RunRequestCli, NonFiniteFlagValuesAreRefused) {
  for (const char* flag : {"--warmup", "--deadline", "--pilot-failure-rate",
                           "--max-queue-wait", "--breaker-cooldown"}) {
    for (const char* value : {"nan", "inf"}) {
      exp::RunRequest req;
      bool quick = false;
      common::cli::Parser cli("test");
      exp::declare_request_options(cli, req, quick);
      std::vector<const char*> argv = {"test", flag, value};
      auto parsed = cli.parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
      ASSERT_FALSE(parsed.ok()) << flag << " " << value;
      EXPECT_NE(parsed.error().find(flag), std::string::npos) << parsed.error();
    }
  }
}

TEST(RunRequestJson, LegacyShardingObjectIsAcceptedOnlyWhenAllZero) {
  // Requests journaled while intra-trial sharding existed carry this object.
  auto legacy = exp::parse_run_request(
      "request body",
      R"({"tasks": 8, "sharding": {"shards": 0, "grid_sites": 0, "shard_workers": 0}})");
  ASSERT_TRUE(legacy.ok()) << legacy.error();
  EXPECT_EQ(legacy->tasks, 8);
  EXPECT_EQ(exp::run_request_to_json(*legacy).find("sharding"), std::string::npos);

  for (const char* key : {"shards", "grid_sites", "shard_workers"}) {
    const std::string json = std::string(R"({"sharding": {")") + key + R"(": 2}})";
    auto refused = exp::parse_run_request("request body", json);
    ASSERT_FALSE(refused.ok()) << json;
    EXPECT_NE(refused.error().find(std::string("'sharding.") + key + "'"), std::string::npos)
        << refused.error();
  }
}

TEST(RunRequestCli, RemovedShardingFlagsAreUnknownArguments) {
  for (const char* flag : {"--shards", "--grid-sites", "--shard-workers"}) {
    exp::RunRequest req;
    bool quick = false;
    common::cli::Parser cli("test");
    exp::declare_request_options(cli, req, quick);
    std::vector<const char*> argv = {"test", flag, "2"};
    auto parsed = cli.parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
    ASSERT_FALSE(parsed.ok()) << flag;
    EXPECT_NE(parsed.error().find("unknown"), std::string::npos) << parsed.error();
  }
}

TEST(RunRequestValidate, BoundsAndConflicts) {
  exp::RunRequest req = quick_request();
  EXPECT_TRUE(exp::validate(req).ok());

  req.tasks = 0;
  EXPECT_FALSE(exp::validate(req).ok());
  req = quick_request();

  req.strategy.binding = "middle";
  const auto binding = exp::validate(req);
  ASSERT_FALSE(binding.ok());
  EXPECT_NE(binding.error().find("binding"), std::string::npos) << binding.error();
  req = quick_request();

  // An experiment already fixes the strategy and skeleton; combining it
  // with a skeleton file or a campaign is contradictory.
  req.strategy.experiment = 2;
  req.skeleton_file = "app.cfg";
  EXPECT_FALSE(exp::validate(req).ok());
  req.skeleton_file.clear();
  req.campaign.tenants = 3;
  EXPECT_FALSE(exp::validate(req).ok());
  req = quick_request();

  // Campaigns synthesize their own bags; montage has no campaign form.
  req.campaign.tenants = 3;
  req.profile = "montage";
  EXPECT_FALSE(exp::validate(req).ok());
  req.profile = "bag-uniform";
  EXPECT_TRUE(exp::validate(req).ok());

  // Admission needs a concurrent campaign to admit into.
  req.campaign.tenants = 0;
  req.admission.enabled = true;
  EXPECT_FALSE(exp::validate(req).ok());
}

TEST(RunRequestCli, FlagsAndJsonProduceTheSameRequest) {
  exp::RunRequest cli_req;
  bool quick = false;
  common::cli::Parser cli("test");
  exp::declare_request_options(cli, cli_req, quick);
  std::vector<const char*> argv = {"test",      "--profile", "bag-uniform", "--tasks",
                                   "32",        "--binding", "early",       "--scheduler",
                                   "direct",    "--pilots",  "4",           "--seed",
                                   "7",         "--trials",  "3",           "--jobs",
                                   "2",         "--warmup",  "2"};
  auto parsed = cli.parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  exp::finalize_request_options(cli, cli_req, quick);

  const std::string json =
      "{\"profile\": \"bag-uniform\", \"tasks\": 32, \"seed\": 7, \"trials\": 3,"
      " \"jobs\": 2, \"warmup_hours\": 2,"
      " \"strategy\": {\"binding\": \"early\", \"scheduler\": \"direct\", \"pilots\": 4}}";
  auto json_req = exp::parse_run_request("request body", json);
  ASSERT_TRUE(json_req.ok()) << json_req.error();

  EXPECT_EQ(exp::run_request_to_json(cli_req), exp::run_request_to_json(*json_req));
}

TEST(RunRequestCli, QuickAppliesDefaultsUnlessOverridden) {
  exp::RunRequest req;
  bool quick = false;
  common::cli::Parser cli("test");
  exp::declare_request_options(cli, req, quick);
  std::vector<const char*> argv = {"test", "--quick", "--tasks", "8"};
  auto parsed = cli.parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  exp::finalize_request_options(cli, req, quick);
  EXPECT_EQ(req.tasks, 8);          // explicit flag wins over --quick
  EXPECT_EQ(req.strategy.pilots, 2);
  EXPECT_DOUBLE_EQ(req.warmup_hours, 1.0);
}

TEST(RunRequestExecute, SingleCellMatchesDirectRunner) {
  exp::RunRequest req = quick_request();
  req.observability.enabled = true;  // make the checksum informative

  auto resolved = exp::resolve(req);
  ASSERT_TRUE(resolved.ok()) << resolved.error();
  const exp::CellResult direct =
      exp::run_cell(resolved->app, req.trials, req.seed, resolved->tweaks, nullptr, 1);

  const exp::RunResult result = exp::execute(req);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.trials_completed, req.trials);
  EXPECT_NE(result.checksum, 0u);
  EXPECT_EQ(result.checksum, direct.span_checksum);
  EXPECT_TRUE(result.has_first_trial);
  EXPECT_DOUBLE_EQ(result.cell.ttc_s.mean(), direct.ttc_s.mean());
}

TEST(RunRequestExecute, CampaignCellMatchesDirectRunner) {
  exp::RunRequest req = quick_request();
  req.profile = "bag-uniform";
  req.campaign.tenants = 3;

  auto resolved = exp::resolve(req);
  ASSERT_TRUE(resolved.ok()) << resolved.error();
  const exp::CampaignCellResult direct =
      exp::run_campaign_cell(resolved->campaign, req.trials, req.seed, resolved->tweaks, 1);

  const exp::RunResult result = exp::execute(req);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.is_campaign);
  EXPECT_TRUE(result.has_first_campaign);
  EXPECT_EQ(result.checksum, direct.checksum);
  EXPECT_DOUBLE_EQ(result.campaign.makespan_s.mean(), direct.makespan_s.mean());
}

TEST(RunRequestExecute, JobsSweepIsBitIdentical) {
  exp::RunRequest req = quick_request();
  req.trials = 3;
  req.observability.enabled = true;
  const exp::RunResult serial = exp::execute(req);
  req.jobs = 2;
  const exp::RunResult parallel_run = exp::execute(req);
  ASSERT_TRUE(serial.ok && parallel_run.ok);
  EXPECT_EQ(serial.checksum, parallel_run.checksum);
}

TEST(RunRequestExecute, CancellationStopsAtTrialBoundary) {
  exp::RunRequest req = quick_request();
  req.trials = 4;
  exp::RunHooks hooks;
  hooks.cancelled = [] { return true; };  // cancelled before the first trial
  const exp::RunResult result = exp::execute(req, hooks);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.trials_completed, 0);
  EXPECT_FALSE(result.success);
}

TEST(RunRequestExecute, InvalidRequestFailsTyped) {
  exp::RunRequest req = quick_request();
  req.profile = "no-such-profile";
  const exp::RunResult result = exp::execute(req);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("profile"), std::string::npos) << result.error;
}

TEST(RunRequestExecute, FaultPlanArmsRecovery) {
  exp::RunRequest req = quick_request();
  req.faults.pilot_failure_rate = 0.5;
  auto resolved = exp::resolve(req);
  ASSERT_TRUE(resolved.ok()) << resolved.error();
  EXPECT_TRUE(resolved->tweaks.recovery.enabled);

  req.faults.pilot_failure_rate = 0.0;
  resolved = exp::resolve(req);
  ASSERT_TRUE(resolved.ok()) << resolved.error();
  EXPECT_FALSE(resolved->tweaks.recovery.enabled);
}

TEST(RunProgress, JsonRoundTripPreservesEveryField) {
  exp::RunProgress progress;
  progress.trials_done = 3;
  progress.trials_total = 8;
  progress.units_done = 420;
  progress.units_failed = 7;
  progress.vt_seconds = 1234.5;
  progress.checksum = 0xdeadbeefcafef00dULL;
  progress.tenants_admitted = 9;
  progress.tenants_shed = 2;
  progress.pilots_resubmitted = 4;
  progress.faults_injected = 5;

  const std::string json = exp::run_progress_to_json(progress);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single line: journal/SSE framing
  auto parsed = exp::parse_run_progress("test", json);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->trials_done, 3);
  EXPECT_EQ(parsed->trials_total, 8);
  EXPECT_EQ(parsed->units_done, 420u);
  EXPECT_EQ(parsed->units_failed, 7u);
  EXPECT_DOUBLE_EQ(parsed->vt_seconds, 1234.5);
  EXPECT_EQ(parsed->checksum, 0xdeadbeefcafef00dULL);  // hex16, not a JSON double
  EXPECT_EQ(parsed->tenants_admitted, 9u);
  EXPECT_EQ(parsed->tenants_shed, 2u);
  EXPECT_EQ(parsed->pilots_resubmitted, 4u);
  EXPECT_EQ(parsed->faults_injected, 5u);
}

TEST(RunProgress, ExecuteEmitsMonotonicSnapshotsConvergingToChecksum) {
  exp::RunRequest req = quick_request();
  req.trials = 3;
  req.observability.enabled = true;
  std::vector<exp::RunProgress> seen;
  exp::RunHooks hooks;
  hooks.progress = [&seen](const exp::RunProgress& p) { seen.push_back(p); };
  const exp::RunResult result = exp::execute(req, hooks);
  ASSERT_TRUE(result.ok) << result.error;

  // One initial snapshot plus one per trial, monotone in trials_done.
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(result.progress_events, 4);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].trials_done, static_cast<int>(i));
    EXPECT_EQ(seen[i].trials_total, 3);
  }
  // The running prefix-fold checksum converges to the final cell checksum:
  // the last live snapshot is bit-identical to the result, so a watcher can
  // verify determinism without waiting for the record.
  EXPECT_EQ(seen.back().checksum, result.checksum);
  EXPECT_EQ(result.progress.checksum, result.checksum);
  EXPECT_GT(seen.back().units_done, 0u);
  EXPECT_GT(seen.back().vt_seconds, 0.0);
}

TEST(RunProgress, ParallelJobsConvergeToSameFinalSnapshot) {
  exp::RunRequest req = quick_request();
  req.trials = 4;
  req.observability.enabled = true;
  const exp::RunResult serial = exp::execute(req);
  req.jobs = 2;
  const exp::RunResult parallel_run = exp::execute(req);
  ASSERT_TRUE(serial.ok && parallel_run.ok);
  // Out-of-order trial completion parks spans until their seed-order turn,
  // so the final folded snapshot is identical across worker counts.
  EXPECT_EQ(serial.progress.checksum, parallel_run.progress.checksum);
  EXPECT_EQ(serial.progress.units_done, parallel_run.progress.units_done);
  EXPECT_EQ(parallel_run.progress.trials_done, 4);
}

TEST(RunProgress, CampaignSnapshotsCountTenantsAndConverge) {
  exp::RunRequest req = quick_request();
  req.profile = "bag-uniform";
  req.campaign.tenants = 3;
  req.trials = 2;
  std::vector<exp::RunProgress> seen;
  exp::RunHooks hooks;
  hooks.progress = [&seen](const exp::RunProgress& p) { seen.push_back(p); };
  const exp::RunResult result = exp::execute(req, hooks);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(seen.size(), 3u);  // initial + one per campaign trial
  EXPECT_EQ(seen.back().trials_done, 2);
  EXPECT_EQ(seen.back().checksum, result.checksum);
  // Every planned tenant across both trials was either admitted or shed.
  EXPECT_EQ(seen.back().tenants_admitted + seen.back().tenants_shed, 6u);
}

TEST(RunProgress, RunResultJsonRoundTripRestoresVerdict) {
  exp::RunRequest req = quick_request();
  req.trials = 2;
  req.observability.enabled = true;
  const exp::RunResult result = exp::execute(req);
  ASSERT_TRUE(result.ok);

  auto restored = exp::parse_run_result("test", exp::run_result_to_json(result));
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_EQ(restored->ok, result.ok);
  EXPECT_EQ(restored->success, result.success);
  EXPECT_EQ(restored->checksum, result.checksum);
  EXPECT_EQ(restored->trials_completed, result.trials_completed);
  EXPECT_EQ(restored->is_campaign, result.is_campaign);
  EXPECT_EQ(restored->progress_events, result.progress_events);
  EXPECT_EQ(restored->progress.checksum, result.progress.checksum);
  EXPECT_EQ(restored->progress.trials_done, result.progress.trials_done);
}

TEST(RunRequestResult, JsonCarriesChecksumAsHexString) {
  exp::RunRequest req = quick_request();
  req.observability.enabled = true;
  const exp::RunResult result = exp::execute(req);
  ASSERT_TRUE(result.ok);
  const std::string json = exp::run_result_to_json(result);
  char expected[32];
  std::snprintf(expected, sizeof(expected), "\"%016llx\"",
                static_cast<unsigned long long>(result.checksum));
  EXPECT_NE(json.find(expected), std::string::npos) << json;
}

}  // namespace
