// The in-process workloads: paper_small, paper_large, campaign.
//
// An op is one one-trial exp::RunRequest. The op list is a pure function of
// the workload and the seed; every pass runs the whole list in order, and a
// run makes a number of passes set by --seconds alone, so runs and commits
// simulate identical events. Ops run serially on the calling thread
// (jobs 1): a parallel sweep's wall time followed the scheduler more than
// the code.
//
// The untraced pass calls exp::execute, the path under every front end. The
// traced pass replays exp::run_trial's composition (constructor -> start ->
// materialize -> plan -> execute, or run_campaign) with a span around each
// call; its outputs must match the untraced pass op for op, so the spans
// describe the same simulation.

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "exp/request.hpp"
#include "skeleton/application.hpp"
#include "skeleton/profiles.hpp"

namespace perfbench {
namespace {

namespace exp = aimes::exp;
namespace core = aimes::core;

/// The size of one workload's runs. A pass is the op list; a run executes
/// `passes_for(seconds)` whole passes, a count fixed by --seconds alone (not
/// by the clock), so every run at a seed does identical work.
struct Shape {
  int replicas;         ///< copies of the cell grid per pass, each its own seeds
  std::size_t warmups;  ///< leading ops run during set-up, timings discarded
  double ops_per_s;     ///< rate on the reference host (4-core x86-64 VM)

  [[nodiscard]] int passes_for(double seconds, std::size_t pass_ops) const {
    return std::max(2, static_cast<int>(std::lround(seconds * ops_per_s /
                                                    static_cast<double>(pass_ops))));
  }
};

Shape shape_of(const std::string& workload) {
  if (workload == "paper_small") return {5, 16, 111.0};
  if (workload == "paper_large") return {4, 8, 31.0};
  return {24, 4, 14.0};  // campaign
}

/// One op, resolved during set-up (loading the campaign's testbed file).
struct Op {
  exp::RunRequest request;
  exp::ResolvedRun resolved;
};

/// The op list of one pass. Replicas of the workload's cell grid, each with
/// its own trial seed drawn from the workload seed.
std::vector<Op> make_ops(const Options& opt) {
  std::uint64_t state = opt.seed ^ Fnv().mix(opt.workload).value();
  std::vector<exp::RunRequest> requests;
  const auto base = [&] {
    exp::RunRequest req;
    req.trials = 1;
    req.jobs = 1;
    req.seed = splitmix64(state) % 1000000000ULL;
    return req;
  };
  const int replicas = shape_of(opt.workload).replicas;
  if (opt.workload == "campaign") {
    for (int rep = 0; rep < replicas; ++rep) {
      exp::RunRequest req = base();
      req.name = "campaign";
      req.profile = "bag-gaussian";
      req.tasks = 16;
      req.testbed_file = opt.repo + "/perfbench/campaign_testbed.cfg";
      req.campaign.tenants = 64;
      req.campaign.arrival.poisson_per_hour = 32.0;
      req.campaign.mode = exp::CampaignMode::kSharedPool;
      req.admission.enabled = true;
      req.observability.enabled = true;
      req.observability.artifacts = false;
      requests.push_back(req);
    }
  } else {
    // paper_large runs each 2048-task cell twice per 1024-task one: pooled
    // with equal weights, the median op fell in the gap between the sizes'
    // latency groups and jumped from seed to seed.
    const bool small = opt.workload == "paper_small";
    const std::vector<int> sizes = small ? std::vector<int>{8, 16, 32, 64, 128}
                                         : std::vector<int>{1024, 2048, 2048};
    for (int rep = 0; rep < replicas; ++rep) {
      for (int experiment = 1; experiment <= 4; ++experiment) {
        for (const int tasks : sizes) {
          exp::RunRequest req = base();
          req.strategy.experiment = experiment;
          req.tasks = tasks;
          requests.push_back(req);
        }
      }
    }
  }
  std::vector<Op> ops;
  for (auto& req : requests) {
    auto resolved = exp::resolve(req);
    if (!resolved) {
      std::fprintf(stderr, "aimes-perfbench: op does not resolve: %s\n",
                   resolved.error().c_str());
      return {};
    }
    ops.push_back(Op{std::move(req), std::move(*resolved)});
  }
  return ops;
}

/// The op's simulated outputs. Single-app: success, units done/failed and
/// TTC/Tw/Tx/Ts in ms (RunResult.checksum folds zeros with observability
/// off). Campaign: the cell checksum.
std::uint64_t digest_single(bool ok, bool success, const core::ExecutionReport& report) {
  return Fnv()
      .mix(ok)
      .mix(success)
      .mix(report.units_done)
      .mix(report.units_failed)
      .mix(static_cast<std::uint64_t>(report.ttc.ttc.count_ms()))
      .mix(static_cast<std::uint64_t>(report.ttc.tw.count_ms()))
      .mix(static_cast<std::uint64_t>(report.ttc.tx.count_ms()))
      .mix(static_cast<std::uint64_t>(report.ttc.ts.count_ms()))
      .value();
}

std::uint64_t digest_campaign(bool ok, bool success, std::uint64_t checksum) {
  return Fnv().mix(ok).mix(success).mix(checksum).value();
}

/// Per-op values of the traced pass.
struct TracedOp {
  std::map<std::string, double> ms;  ///< span name -> duration
  double op_ms = 0.0;
  double self_ms = 0.0;
  double warmup_allocs = 0.0;
  double run_allocs = 0.0;
  double events_warmup = 0.0;
  double events_run = 0.0;
  double peak_queued = 0.0;
  double trace_records = 0.0;
  double tenants_queued = 0.0;
  double tenants_shed = 0.0;
  double pool_reused = 0.0;
  double pool_acquired = 0.0;  ///< reused + launched + adopted
  std::uint64_t digest = 0;
  std::uint64_t events_total = 0;  ///< world().executed() at the end, as exp reports it
};

/// Replays exp::run_campaign_trial's tenant set-up for the traced pass.
std::vector<core::CampaignTenantSpec> make_tenants(const exp::CampaignSpec& spec,
                                                   std::uint64_t seed) {
  const auto arrivals = exp::campaign_arrivals(spec, seed);
  std::vector<core::CampaignTenantSpec> tenants;
  for (int i = 0; i < spec.n_tenants; ++i) {
    const int tasks = exp::campaign_tenant_tasks(spec, i);
    auto skel = spec.gaussian_durations ? aimes::skeleton::profiles::bag_gaussian(tasks)
                                        : aimes::skeleton::profiles::bag_uniform(tasks);
    skel.name = "t" + std::to_string(i + 1) + "-" + skel.name;
    const std::uint64_t app_seed =
        aimes::common::Rng::stream(seed, "campaign/tenant/" + std::to_string(i)).next_u64();
    const auto pick = [i](const auto& values, auto fallback) {
      return values.empty() ? fallback : values[static_cast<std::size_t>(i) % values.size()];
    };
    core::CampaignTenantSpec t;
    t.app = aimes::skeleton::materialize(skel, app_seed);
    t.name = "t" + std::to_string(i + 1);
    t.arrival = arrivals[static_cast<std::size_t>(i)];
    t.weight = pick(spec.weights, 1);
    t.priority = pick(spec.admission.priorities, 0);
    t.slo = pick(spec.admission.slos, core::SloClass::kStandard);
    t.quota = pick(spec.admission.quotas, core::TenantQuota{});
    tenants.push_back(std::move(t));
  }
  return tenants;
}

core::CampaignOptions campaign_options(const exp::CampaignSpec& spec) {
  core::CampaignOptions options;
  options.planner.binding = core::Binding::kLate;
  options.planner.scheduler = aimes::pilot::UnitSchedulerKind::kBackfill;
  options.planner.n_pilots = spec.n_pilots;
  options.planner.selection = core::SiteSelection::kRandom;
  options.sharing = spec.mode == exp::CampaignMode::kPrivatePilots
                        ? core::CampaignSharing::kPrivatePilots
                        : core::CampaignSharing::kSharedPool;
  options.pool_idle_grace = spec.pool_idle_grace;
  options.walltime_headroom = spec.walltime_headroom;
  options.admission = spec.admission.policy;
  options.breaker = spec.admission.breaker;
  options.recovery = spec.recovery;
  return options;
}

/// One traced op: exp::run_trial's composition with a span per layer call.
TracedOp run_traced(const Op& op, std::uint64_t op_id, SpanRecorder& rec) {
  TracedOp t;
  const int root = rec.begin("exp.op", -1, op_id);
  const auto timed = [&](const char* name, auto&& call) {
    const int s = rec.begin(name, root, op_id);
    call();
    rec.end(s);
    const Span& span = rec.spans()[static_cast<std::size_t>(s)];
    t.ms[name] = span.dur_us / 1000.0;
    return span.allocs;
  };
  const std::uint64_t seed = op.request.seed + 1;  // trial 1 of the request
  {
    // exp::resolve validates first, as exp::execute does.
    std::optional<exp::ResolvedRun> resolved;
    timed("exp.resolve", [&] {
      if (auto r = exp::resolve(op.request)) resolved = std::move(*r);
    });
    if (!resolved) {
      rec.end(root);
      return t;  // digest 0: counted as a failed op
    }
    const exp::WorldTweaks& tweaks = resolved->tweaks;
    core::AimesConfig config;
    config.seed = seed;
    config.warmup = tweaks.warmup;
    if (!tweaks.testbed.empty()) config.testbed = tweaks.testbed;
    config.execution.units.unit_failure_probability = tweaks.unit_failure_probability;
    config.execution.recovery = tweaks.recovery;
    config.faults = tweaks.faults;
    config.observability = tweaks.observability;
    config.sharding = tweaks.sharding;

    std::unique_ptr<core::Aimes> aimes;
    timed("core.world_build", [&] { aimes = std::make_unique<core::Aimes>(config); });
    const std::size_t ev0 = aimes->world().executed();
    t.warmup_allocs = static_cast<double>(timed("cluster.warmup", [&] { aimes->start(); }));
    const std::size_t ev1 = aimes->world().executed();

    if (!resolved->is_campaign) {
      std::optional<aimes::skeleton::SkeletonApplication> app;
      timed("skeleton.materialize",
            [&] { app = aimes::skeleton::materialize(resolved->app.skeleton, seed); });
      std::optional<aimes::common::Expected<core::ExecutionStrategy>> strategy;
      timed("core.plan", [&] { strategy = aimes->plan(*app, resolved->app.planner); });
      core::ExecutionReport report;
      if (strategy->ok()) {
        std::optional<core::RunResult> run;
        t.run_allocs = static_cast<double>(
            timed("core.execute", [&] { run = aimes->execute(*app, **strategy); }));
        t.trace_records = static_cast<double>(run->trace.size());
        report = std::move(run->report);
      }
      t.events_total = aimes->world().executed();
      t.digest = digest_single(true, report.success, report);
    } else {
      const exp::CampaignSpec& spec = resolved->campaign;
      std::vector<core::CampaignTenantSpec> tenants;
      timed("skeleton.materialize", [&] { tenants = make_tenants(spec, seed); });
      std::optional<aimes::common::Expected<core::CampaignRunResult>> run;
      t.run_allocs = static_cast<double>(timed("core.campaign", [&] {
        run = aimes->run_campaign(std::move(tenants), campaign_options(spec));
      }));
      exp::CampaignTrialResult trial;
      if (run->ok()) {
        const core::CampaignReport& report = (*run)->report;
        t.trace_records = static_cast<double>((*run)->trace.size());
        t.tenants_queued = static_cast<double>(report.admission.queued);
        t.tenants_shed = static_cast<double>(report.admission.shed);
        t.pool_reused = report.pool.reused;
        t.pool_acquired = report.pool.reused + report.pool.launched + report.pool.adopted;
        trial.report = report;
        trial.success = report.success;
        if (!trial.success && spec.admission.policy.enabled) {
          trial.success = true;
          for (const auto& ten : report.tenants) {
            if (ten.admission != core::AdmissionOutcome::kShed && !ten.success) {
              trial.success = false;
            }
          }
        }
        trial.makespan = report.makespan;
        for (const auto& ten : report.tenants) trial.tenant_ttc.push_back(ten.ttc.ttc);
      }
      t.events_total = aimes->world().executed();
      t.digest = digest_campaign(
          true, trial.success, exp::fold_campaign_trial(exp::kChecksumSeed, trial));
    }
    t.events_warmup = static_cast<double>(ev1 - ev0);
    t.events_run = static_cast<double>(aimes->world().executed() - ev1);
    t.peak_queued = static_cast<double>(aimes->world().peak_queued());
    if (aimes->recorder() != nullptr) {
      timed("obs.snapshot",
            [&] { (void)aimes->recorder()->snapshot(tweaks.obs_artifacts); });
    }
    // The world is torn down inside the op, as in exp::run_trial.
  }
  rec.end(root);
  t.op_ms = rec.spans()[static_cast<std::size_t>(root)].dur_us / 1000.0;
  // Self time: the op's wall minus its child spans, which run in sequence.
  t.self_ms = t.op_ms;
  for (const auto& [name, ms] : t.ms) t.self_ms -= ms;
  return t;
}

/// Outputs of one untraced op, as exp::execute reports them.
struct UntracedOp {
  bool ok = false;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;  ///< single-app engine events (0 for campaigns)
  double ms = 0.0;
};

UntracedOp run_untraced(const Op& op) {
  UntracedOp u;
  const auto t0 = Clock::now();
  const exp::RunResult r = exp::execute(op.request);
  u.ms = ms_between(t0, Clock::now());
  // A failed op is a non-ok RunResult (rejected or unresolvable request). A
  // simulated trial that ends unsuccessful is an output, held by the
  // witness like any other.
  u.ok = r.ok;
  if (r.is_campaign) {
    u.digest = digest_campaign(r.ok, r.success, r.checksum);
  } else {
    u.digest = digest_single(r.ok, r.success, r.first_trial.report);
    u.events = r.first_trial.engine.events_executed;
  }
  return u;
}

}  // namespace

Outcome run_sim_workload(const Options& opt) {
  Outcome out;
  pin_to_one_cpu();
  const Shape shape = shape_of(opt.workload);
  std::vector<Op> ops;
  std::vector<double> setups;
  std::optional<WitnessBook> book;
  std::vector<std::uint64_t> events;  // per op, from the untraced path
  const auto note_failure = [&](std::size_t i, const char* why) {
    ++out.failed;
    std::printf("op %zu (request seed %" PRIu64 ") failed: %s\n", i, ops[i].request.seed, why);
  };

  PassFigures figures;  // untraced passes
  std::vector<double> traced_tputs;
  SpanRecorder rec;
  std::vector<TracedOp> traced;
  std::uint64_t op_id = 0;
  bool perturbed = false;

  const auto untraced_pass = [&] {
    std::vector<double> latencies;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      UntracedOp u = run_untraced(ops[i]);
      if (!perturbed && opt.perturb_op >= 0 && i == static_cast<std::size_t>(opt.perturb_op)) {
        u.digest ^= 1;  // the test hook: one corrupted output
        perturbed = true;
      }
      ++out.attempted;
      latencies.push_back(u.ms);
      if (!u.ok) {
        note_failure(i, "non-ok RunResult");
      } else if (!book->check(i, u.digest)) {
        note_failure(i, "output differs from an earlier run of the same op");
      }
      if (events[i] == 0) events[i] = u.events;
    }
    figures.throughput.push_back(static_cast<double>(ops.size()) /
                                 std::chrono::duration<double>(Clock::now() - t0).count());
    figures.p50_ms.push_back(quantile(latencies, 0.5));
    figures.p90_ms.push_back(quantile(latencies, 0.9));
  };
  const auto traced_pass = [&] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      TracedOp t = run_traced(ops[i], op_id++, rec);
      ++out.attempted;
      if (!book->check(i, t.digest)) {
        note_failure(i, "traced output differs from the untraced op");
      } else if (!ops[i].resolved.is_campaign && t.events_total != events[i]) {
        note_failure(i, "traced world executed a different number of events");
      }
      traced.push_back(std::move(t));
    }
    traced_tputs.push_back(static_cast<double>(ops.size()) /
                           std::chrono::duration<double>(Clock::now() - t0).count());
  };

  // Each segment's set-up builds and resolves the op list from the seed,
  // then runs the warm-up ops; its passes follow. The traced run alternates
  // an untraced and a traced pass, so both see the same machine state, and
  // runs half as many of each.
  int rounds = 0;
  Clock::time_point started;
  bool stopped = false;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    ops = make_ops(opt);
    if (ops.empty()) return out;
    if (!book) {
      book.emplace(ops.size());
      events.assign(ops.size(), 0);
    }
    for (std::size_t i = 0; i < shape.warmups && i < ops.size(); ++i) {
      const UntracedOp u = run_untraced(ops[i]);
      if (!u.ok || !book->check(i, u.digest)) {
        out.witness_ok = false;
        std::printf("warm-up op %zu failed or disagreed\n", i);
      }
      events[i] = u.events;
    }
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (k == 0) {
      if (opt.perturb_op >= static_cast<long>(ops.size())) {
        std::fprintf(stderr, "aimes-perfbench: --perturb-op %ld is past the %zu ops of a pass\n",
                     opt.perturb_op, ops.size());
        return out;
      }
      const int passes = shape.passes_for(opt.seconds, ops.size());
      rounds = opt.trace ? (passes + 1) / 2 : passes;
      started = Clock::now();
    }
    for (int p = segment_start(rounds, k); p < segment_start(rounds, k + 1) && !stopped; ++p) {
      stopped = past_slow_host_cap(started, opt.seconds, p);
      if (stopped) break;
      untraced_pass();
      if (opt.trace) traced_pass();
    }
  }

  if (!opt.trace) {
    // Peak RSS per op, from one more pass after the clocked ones. Before each
    // op it hands freed pages back and resets the mark, so the figure is the
    // op's own footprint rather than what earlier ops left in the allocator.
    // That costs the op a cold heap, so this pass is not timed.
    for (std::size_t i = 0; i < ops.size(); ++i) {
      malloc_trim(0);
      reset_peak_rss();
      const UntracedOp u = run_untraced(ops[i]);
      figures.rss_mb.push_back(peak_rss_mb());
      ++out.attempted;
      if (!u.ok) {
        note_failure(i, "non-ok RunResult");
      } else if (!book->check(i, u.digest)) {
        note_failure(i, "output differs from an earlier run of the same op");
      }
    }
  }
  if (!book->complete()) out.witness_ok = false;
  out.witness = book->fold();
  const double untraced_tput = median(figures.throughput);
  if (!opt.trace) {
    out.metrics = end_to_end_metrics(figures, setups, out);
    return out;
  }

  // Per-layer metrics: medians per op over the traced ops.
  const auto per_op = [&](auto field) {
    std::vector<double> v;
    for (const TracedOp& t : traced) v.push_back(field(t));
    return median(v);
  };
  const auto span_ms = [&](const char* name) {
    return per_op([name](const TracedOp& t) {
      const auto it = t.ms.find(name);
      return it == t.ms.end() ? 0.0 : it->second;
    });
  };
  const auto sum = [&](auto field) {
    double s = 0.0;
    for (const TracedOp& t : traced) s += field(t);
    return s;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double warmup_ns = sum([](const TracedOp& t) {
    const auto it = t.ms.find("cluster.warmup");
    return it == t.ms.end() ? 0.0 : it->second * 1e6;
  });
  const double run_ns = sum([](const TracedOp& t) {
    double ms = 0.0;
    for (const char* name : {"core.execute", "core.campaign"}) {
      if (const auto it = t.ms.find(name); it != t.ms.end()) ms += it->second;
    }
    return ms * 1e6;
  });
  const double traced_tput = median(traced_tputs);
  out.metrics = {
      {"exp.resolve_ms", span_ms("exp.resolve")},
      {"core.world_build_ms", span_ms("core.world_build")},
      {"cluster.warmup_ms", span_ms("cluster.warmup")},
      {"cluster.warmup_allocs", per_op([](const TracedOp& t) { return t.warmup_allocs; })},
      {"skeleton.materialize_ms", span_ms("skeleton.materialize")},
      {"core.plan_ms", span_ms("core.plan")},
      {"core.execute_ms", span_ms("core.execute")},
      {"core.campaign_ms", span_ms("core.campaign")},
      {"core.run_allocs", per_op([](const TracedOp& t) { return t.run_allocs; })},
      {"obs.snapshot_ms", span_ms("obs.snapshot")},
      {"exp.self_ms", per_op([](const TracedOp& t) { return t.self_ms; })},
      {"bench.op_ms", per_op([](const TracedOp& t) { return t.op_ms; })},
      {"sim.events_warmup", per_op([](const TracedOp& t) { return t.events_warmup; })},
      {"sim.events_run", per_op([](const TracedOp& t) { return t.events_run; })},
      {"sim.peak_queued", per_op([](const TracedOp& t) { return t.peak_queued; })},
      {"sim.ns_per_event_warmup",
       ratio(warmup_ns, sum([](const TracedOp& t) { return t.events_warmup; }))},
      {"sim.ns_per_event_run",
       ratio(run_ns, sum([](const TracedOp& t) { return t.events_run; }))},
      {"pilot.trace_records", per_op([](const TracedOp& t) { return t.trace_records; })},
      {"core.tenants_queued", per_op([](const TracedOp& t) { return t.tenants_queued; })},
      {"core.tenants_shed", per_op([](const TracedOp& t) { return t.tenants_shed; })},
      {"pilot.pool_reuse_ratio",
       ratio(sum([](const TracedOp& t) { return t.pool_reused; }),
             sum([](const TracedOp& t) { return t.pool_acquired; }))},
      {"bench.trace_overhead_pct", 100.0 * (untraced_tput - traced_tput) / untraced_tput},
  };

  // Where an op's wall time went, summed over the traced ops.
  const double op_total = sum([](const TracedOp& t) { return t.op_ms; });
  std::map<std::string, double> span_total;
  for (const TracedOp& t : traced) {
    for (const auto& [name, ms] : t.ms) span_total[name] += ms;
  }
  span_total["exp.self"] = sum([](const TracedOp& t) { return t.self_ms; });
  for (const auto& [name, ms] : span_total) {
    std::printf("layer %-22s %6.1f%% of op wall\n", name.c_str(), 100.0 * ms / op_total);
  }
  if (!opt.trace_out.empty()) {
    if (rec.write_chrome_trace(opt.trace_out)) {
      std::printf("trace %s (%zu spans)\n", opt.trace_out.c_str(), rec.spans().size());
    } else {
      std::printf("trace %s could not be written\n", opt.trace_out.c_str());
    }
  }
  return out;
}

}  // namespace perfbench
