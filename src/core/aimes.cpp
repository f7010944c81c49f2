#include "core/aimes.hpp"

#include <cassert>

#include "common/log.hpp"

namespace aimes::core {

namespace {
/// Deterministic heterogeneous origin<->site links: production DTNs differ
/// widely in WAN throughput; cycle through a representative set.
net::LinkSpec default_link(std::size_t site_index) {
  static constexpr double kMiBs[] = {400.0, 250.0, 150.0, 80.0, 300.0};
  static constexpr std::int64_t kLatencyMs[] = {25, 40, 55, 70, 35};
  const std::size_t k = site_index % 5;
  net::LinkSpec link;
  link.capacity = common::Bandwidth::mib_per_sec(kMiBs[k]);
  link.latency = common::SimDuration::millis(kLatencyMs[k]);
  return link;
}
}  // namespace

Aimes::Aimes(AimesConfig config)
    : config_(std::move(config)),
      planner_rng_(common::Rng::stream(config_.seed, "aimes/planner")),
      exec_rng_(common::Rng::stream(config_.seed, "aimes/exec")) {
  testbed_ = std::make_unique<cluster::Testbed>(engine_, config_.testbed, config_.seed);

  // Observability hub first, so every layer below can register its gauges
  // during construction (registration order = construction order, which
  // keeps metric iteration deterministic).
  if (config_.observability.enabled) {
    recorder_ = std::make_unique<obs::Recorder>(engine_);
    config_.execution.recorder = recorder_.get();
  }

  // A non-empty fault plan gets one injector shared by every layer; its RNG
  // stream derives from the world seed, so an empty plan leaves every other
  // stream untouched.
  if (!config_.faults.empty()) {
    fault_injector_ = std::make_unique<sim::FaultInjector>(config_.faults.plan, config_.seed);
    config_.execution.faults = fault_injector_.get();
  }
  if (config_.execution.bundles == nullptr) config_.execution.bundles = &bundle_manager_;

  const auto sites = testbed_->sites();
  for (std::size_t i = 0; i < sites.size(); ++i) {
    topology_.add_site(sites[i]->id(),
                       i < config_.links.size() ? config_.links[i] : default_link(i));
  }
  transfers_ = std::make_unique<net::TransferManager>(engine_, topology_);
  transfers_->set_recorder(recorder_.get());
  staging_ = std::make_unique<net::StagingService>(engine_, *transfers_, config_.staging,
                                                   fault_injector_.get());

  for (auto* site : sites) {
    site->set_recorder(recorder_.get());
    services_.push_back(std::make_unique<saga::JobService>(
        engine_, *site, common::Rng::stream(config_.seed, "saga/" + site->name()),
        saga::JobServiceOptions(), fault_injector_.get()));
    services_.back()->set_recorder(recorder_.get());
    agents_.push_back(
        std::make_unique<bundle::BundleAgent>(engine_, *site, topology_, *transfers_));
    bundle_manager_.add_agent(*agents_.back());
  }
}

bool Aimes::run_world_while(const std::function<bool()>& keep_going) {
  bool stepped = true;
  while (keep_going() && (stepped = engine_.step())) {
  }
  return stepped;
}

void Aimes::start() {
  assert(!started_);
  started_ = true;
  testbed_->prime_and_start();
  engine_.run_until(engine_.now() + config_.warmup);
  world_ready_ = engine_.now();

  // Sampling starts at "world ready": warmup noise stays out of the series
  // and t=warmup is the first sampled point of every experiment.
  if (recorder_) recorder_->start_sampling(config_.observability.sample_interval);

  // Outage windows are anchored to "world ready" (post-warmup), so a plan's
  // offsets line up with experiment time regardless of the warmup length.
  if (fault_injector_) {
    for (const auto& spec : fault_injector_->outages()) {
      cluster::ClusterSite* site = testbed_->site(spec.site);
      if (site == nullptr) {
        common::Log::warn("aimes", "fault plan names unknown site '" + spec.site +
                                       "'; outage skipped");
        continue;
      }
      const auto duration = spec.duration;
      auto* injector = fault_injector_.get();
      engine_.schedule(spec.start, [site, duration, injector] {
        injector->count_outage();
        site->begin_outage(duration);
      });
    }
  }
}

std::vector<saga::JobService*> Aimes::services() {
  std::vector<saga::JobService*> out;
  out.reserve(services_.size());
  for (auto& s : services_) out.push_back(s.get());
  return out;
}

common::Expected<ExecutionStrategy> Aimes::plan(const skeleton::SkeletonApplication& app,
                                                const PlannerConfig& planner) {
  assert(started_ && "call start() before planning");
  return derive_strategy(app, bundle_manager_, planner, planner_rng_);
}

RunResult Aimes::execute(const skeleton::SkeletonApplication& app,
                         const ExecutionStrategy& strategy) {
  assert(started_ && "call start() before executing");
  RunResult result;
  ++run_counter_;

  ExecutionManager manager(
      engine_, result.trace, services(), *staging_, config_.execution,
      common::Rng::stream(config_.seed, "run/" + std::to_string(run_counter_)));

  bool callback_fired = false;
  auto status = manager.enact(app, strategy,
                              [&](const ExecutionReport&) { callback_fired = true; });
  if (!status.ok()) {
    common::Log::error("aimes", "enact failed: " + status.error());
    result.report.strategy = strategy;
    result.report.success = false;
    return result;
  }

  // Drive virtual time until the run completes. The background workload has
  // a finite horizon, so an application that cannot finish (e.g. every unit
  // exhausted its attempts while no pilot could activate) drains the event
  // queue and is reported as unsuccessful.
  run_world_while([&] { return !callback_fired; });
  if (!callback_fired) {
    common::Log::error("aimes", "world ran out of events before '" + app.name() +
                                    "' completed (workload horizon too short?)");
    result.report.strategy = strategy;
    result.report.success = false;
    result.report.ttc = analyze_ttc(result.trace);
    return result;
  }
  // Let pilot cancellations settle so the resources are released before the
  // next run on this world.
  engine_.run_until(engine_.now() + common::SimDuration::minutes(1));
  result.report = manager.report();
  return result;
}

common::Expected<RunResult> Aimes::run(const skeleton::SkeletonApplication& app,
                                       const PlannerConfig& planner) {
  auto strategy = plan(app, planner);
  if (!strategy) return common::Expected<RunResult>::error(strategy.error());
  return execute(app, *strategy);
}

common::Expected<CampaignRunResult> Aimes::run_campaign(
    std::vector<CampaignTenantSpec> tenants, const CampaignOptions& options) {
  using E = common::Expected<CampaignRunResult>;
  assert(started_ && "call start() before running a campaign");
  CampaignRunResult result;
  ++run_counter_;

  CampaignOptions campaign_options = options;
  if (campaign_options.recorder == nullptr) campaign_options.recorder = recorder_.get();
  // Like the recorder, the world's fault plan flows into the campaign: the
  // injector for pilot-kill consultation, and the outage schedule (site
  // names resolved, offsets anchored to "world ready" exactly as start()
  // schedules them) as breaker overlay windows.
  if (campaign_options.faults == nullptr) campaign_options.faults = fault_injector_.get();
  if (campaign_options.outages.empty() && fault_injector_ != nullptr) {
    for (const auto& spec : fault_injector_->outages()) {
      const cluster::ClusterSite* site = testbed_->site(spec.site);
      if (site == nullptr) continue;
      campaign_options.outages.push_back(
          SiteOutageWindow{site->id(), world_ready_ + spec.start, spec.duration});
    }
  }
  CampaignExecutor executor(
      engine_, result.trace, services(), *staging_, bundle_manager_, campaign_options,
      common::Rng::stream(config_.seed, "run/" + std::to_string(run_counter_)));

  bool callback_fired = false;
  auto status = executor.enact(std::move(tenants),
                               [&](const CampaignReport&) { callback_fired = true; });
  if (!status.ok()) return E::error(status.error());

  run_world_while([&] { return !callback_fired; });
  if (!callback_fired) {
    return E::error("campaign: world ran out of events before completion "
                    "(workload horizon too short?)");
  }
  // Let pilot cancellations settle so the resources are released before the
  // next run on this world.
  engine_.run_until(engine_.now() + common::SimDuration::minutes(1));
  result.report = executor.report();
  return result;
}

common::Expected<StagedRunResult> Aimes::execute_staged(
    const skeleton::SkeletonApplication& app, const PlannerConfig& planner) {
  using E = common::Expected<StagedRunResult>;
  assert(started_ && "call start() before executing");

  StagedRunResult result;
  result.success = true;
  const common::SimTime began = engine_.now();
  for (std::size_t i = 0; i < app.stages().size(); ++i) {
    const auto stage_app = app.stage_slice(i);
    // Re-plan with *now*'s bundle information, sized to this stage alone.
    auto strategy = derive_strategy(stage_app, bundle_manager_, planner, planner_rng_);
    if (!strategy) {
      return E::error("staged execution: stage '" + stage_app.name() +
                      "': " + strategy.error());
    }
    RunResult stage_run = execute(stage_app, *strategy);
    result.success = result.success && stage_run.report.success;
    result.stage_reports.push_back(std::move(stage_run.report));
    if (!result.success) break;  // later stages lack their inputs
  }
  result.total_ttc = engine_.now() - began;
  return result;
}

}  // namespace aimes::core
