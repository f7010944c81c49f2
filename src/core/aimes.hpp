// The AIMES middleware facade (paper §III.E, Figure 1).
//
// Assembles the whole stack — discrete-event engine, simulated resource pool
// with background load, network topology and staging, SAGA job services,
// bundle agents and manager — and exposes the paper's workflow:
//
//   aimes::core::Aimes aimes(config);
//   aimes.start();                                   // warm the testbed
//   auto app      = skeleton::materialize(spec, s);  // Figure 1, step 1
//   auto strategy = aimes.plan(app, planner_config); // steps 2-3
//   auto report   = aimes.execute(app, *strategy);   // steps 4-6
//
// "Self-containment": nothing is deployed into the resources — pilots are
// ordinary batch jobs. "Self-introspection": execute() returns the full
// state-transition trace with the TTC decomposition.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "bundle/agent.hpp"
#include "bundle/manager.hpp"
#include "cluster/testbed.hpp"
#include "core/campaign.hpp"
#include "core/execution_manager.hpp"
#include "core/planner.hpp"
#include "net/staging.hpp"
#include "net/topology.hpp"
#include "net/transfer.hpp"
#include "obs/recorder.hpp"
#include "pilot/profiler.hpp"
#include "saga/job_service.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"

namespace aimes::core {

/// Empty. Its one use is `config.sharding = tweaks.sharding;` at
/// perfbench/src/sim.cpp:239; it goes, with AimesConfig::sharding and
/// exp::WorldTweaks::sharding, when that line does.
struct ShardingConfig {};

/// Fault injection for one world. Wraps the plan so fault-related knobs
/// added later live beside it instead of loose in AimesConfig.
struct FaultConfig {
  /// Faults to inject (empty = none; runs are then bit-identical to a world
  /// built without fault support). Outage windows are scheduled relative to
  /// the end of warmup; launch/kill/transfer faults are consulted at the
  /// SAGA, pilot, and staging layers.
  sim::FaultPlan plan;

  [[nodiscard]] bool empty() const { return plan.empty(); }
};

/// Observability configuration: the obs options already form a cohesive
/// struct, so the config tier aliases rather than wraps it.
using ObsConfig = obs::ObservabilityOptions;

/// World configuration.
struct AimesConfig {
  /// Master seed; every RNG stream in the world derives from it.
  std::uint64_t seed = 42;
  /// The simulated resource pool (defaults to the paper-shaped 5 sites).
  std::vector<cluster::TestbedSiteSpec> testbed = cluster::standard_testbed();
  /// Virtual time to run background load before any experiment, so queues
  /// and histories reach steady state.
  common::SimDuration warmup = common::SimDuration::hours(6);
  net::StagingPolicy staging;
  ExecutionOptions execution;
  /// Origin->site links; when empty, a deterministic heterogeneous set is
  /// generated (different bandwidth/latency per site).
  std::vector<net::LinkSpec> links;
  /// Fault injection (plan empty = none).
  FaultConfig faults;
  /// Observability (span tracer + metrics registry + sampler). Off by
  /// default; when enabled, a Recorder is created with the world and every
  /// layer emits spans/metrics into it alongside the flat Profiler trace.
  ObsConfig observability;
  /// Empty; see ShardingConfig.
  ShardingConfig sharding;
};

/// Result of a full run, including the trace.
struct RunResult {
  ExecutionReport report;
  /// The complete state-transition trace of this run (self-introspection).
  pilot::Profiler trace;
};

/// Result of a multi-tenant campaign run, including the shared trace.
struct CampaignRunResult {
  CampaignReport report;
  pilot::Profiler trace;
};

/// Result of a staged (per-stage re-planned) run.
struct StagedRunResult {
  /// One report per stage, in stage order.
  std::vector<ExecutionReport> stage_reports;
  /// All stages completed successfully.
  bool success = false;
  /// Wall (virtual) time from first stage start to last stage end.
  common::SimDuration total_ttc = common::SimDuration::zero();
};

/// The integrated middleware.
class Aimes {
 public:
  explicit Aimes(AimesConfig config);

  Aimes(const Aimes&) = delete;
  Aimes& operator=(const Aimes&) = delete;

  /// Primes and starts the background workload, then advances virtual time
  /// by the configured warmup. Call once before planning or executing.
  void start();

  // --- Component access (the virtual laboratory's instruments) ---
  /// The world's one event engine.
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  /// Same as engine(); perfbench/src/sim.cpp still calls it by this name.
  [[nodiscard]] sim::Engine& world() { return engine_; }
  [[nodiscard]] cluster::Testbed& testbed() { return *testbed_; }
  [[nodiscard]] bundle::BundleManager& bundles() { return bundle_manager_; }
  [[nodiscard]] net::StagingService& staging() { return *staging_; }
  [[nodiscard]] const AimesConfig& config() const { return config_; }
  [[nodiscard]] std::vector<saga::JobService*> services();
  /// Non-null only when the config carries a non-empty fault plan.
  [[nodiscard]] sim::FaultInjector* fault_injector() { return fault_injector_.get(); }
  /// Non-null only when `config.observability.enabled` (self-introspection
  /// beyond the flat trace: spans, metrics, exporters).
  [[nodiscard]] obs::Recorder* recorder() { return recorder_.get(); }

  /// Figure 1 steps 2-3: derive a strategy from bundle information.
  [[nodiscard]] common::Expected<ExecutionStrategy> plan(
      const skeleton::SkeletonApplication& app, const PlannerConfig& planner);

  /// Figure 1 steps 4-6: enact a strategy and run virtual time forward until
  /// the application completes (or the world runs out of events, reported as
  /// failure). Can be called repeatedly on the same warm world.
  RunResult execute(const skeleton::SkeletonApplication& app,
                    const ExecutionStrategy& strategy);

  /// plan() + execute().
  common::Expected<RunResult> run(const skeleton::SkeletonApplication& app,
                                  const PlannerConfig& planner);

  /// Multi-tenant campaign: every tenant is planned on arrival against the
  /// shared pilot pool (or a private fleet, per `options.sharing`) and all
  /// tenants execute concurrently on one PilotManager/UnitManager pair.
  /// Drives virtual time until the campaign completes.
  common::Expected<CampaignRunResult> run_campaign(std::vector<CampaignTenantSpec> tenants,
                                                   const CampaignOptions& options);

  /// Staged dynamic execution (paper §V): the application runs stage by
  /// stage; before *each* stage the planner re-derives a strategy sized to
  /// that stage from the bundle's *current* information, so the coupling
  /// tracks both the workload's shape and the resources' weather. Stages
  /// run sequentially (stage N+1's inputs are stage N's outputs, staged
  /// back to the origin in between). Fails fast on the first stage that
  /// cannot be planned.
  common::Expected<StagedRunResult> execute_staged(const skeleton::SkeletonApplication& app,
                                                   const PlannerConfig& planner);

 private:
  /// Steps events while `keep_going()` holds. Returns false if the world
  /// ran out of events first.
  bool run_world_while(const std::function<bool()>& keep_going);

  AimesConfig config_;
  sim::Engine engine_;
  std::unique_ptr<obs::Recorder> recorder_;
  std::unique_ptr<sim::FaultInjector> fault_injector_;
  std::unique_ptr<cluster::Testbed> testbed_;
  net::Topology topology_;
  std::unique_ptr<net::TransferManager> transfers_;
  std::unique_ptr<net::StagingService> staging_;
  std::vector<std::unique_ptr<saga::JobService>> services_;
  std::vector<std::unique_ptr<bundle::BundleAgent>> agents_;
  bundle::BundleManager bundle_manager_;
  common::Rng planner_rng_;
  common::Rng exec_rng_;
  bool started_ = false;
  int run_counter_ = 0;
  /// Absolute sim time at the end of warmup; outage-window offsets in the
  /// fault plan are anchored here.
  common::SimTime world_ready_;
};

}  // namespace aimes::core
