#include "exp/campaign.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "sim/replica_pool.hpp"
#include "skeleton/application.hpp"
#include "skeleton/profiles.hpp"

namespace aimes::exp {

namespace {

/// FNV-1a over the raw bytes of successive int64 values.
class Fnv {
 public:
  Fnv() = default;
  explicit Fnv(std::uint64_t seed) : hash_(seed) {}
  void mix(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (u >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kChecksumSeed;
};

core::PlannerConfig campaign_planner_config(const CampaignSpec& spec) {
  core::PlannerConfig cfg;
  cfg.binding = core::Binding::kLate;
  cfg.scheduler = pilot::UnitSchedulerKind::kBackfill;
  cfg.n_pilots = spec.n_pilots;
  cfg.selection = core::SiteSelection::kRandom;
  return cfg;
}

/// Tenant i's application: a size-cycled bag with a tenant-unique name (so
/// staged files never alias across tenants) materialized from a per-tenant
/// stream of the trial seed.
skeleton::SkeletonApplication make_tenant_app(const CampaignSpec& spec, int tenant_index,
                                              std::uint64_t seed) {
  const int tasks = campaign_tenant_tasks(spec, tenant_index);
  auto skel = spec.gaussian_durations ? skeleton::profiles::bag_gaussian(tasks)
                                      : skeleton::profiles::bag_uniform(tasks);
  skel.name = "t" + std::to_string(tenant_index + 1) + "-" + skel.name;
  const std::uint64_t app_seed =
      common::Rng::stream(seed, "campaign/tenant/" + std::to_string(tenant_index)).next_u64();
  return skeleton::materialize(skel, app_seed);
}

int tenant_weight(const CampaignSpec& spec, int tenant_index) {
  if (spec.weights.empty()) return 1;
  return spec.weights[static_cast<std::size_t>(tenant_index) % spec.weights.size()];
}

/// Cycles `values` across tenants like `weights`; `fallback` when empty.
template <typename T>
T cycled(const std::vector<T>& values, int tenant_index, T fallback) {
  if (values.empty()) return fallback;
  return values[static_cast<std::size_t>(tenant_index) % values.size()];
}

}  // namespace

std::string_view to_string(CampaignMode mode) {
  switch (mode) {
    case CampaignMode::kSharedPool: return "shared";
    case CampaignMode::kPrivatePilots: return "private";
    case CampaignMode::kSequential: return "sequential";
  }
  return "?";
}

bool parse_campaign_mode(std::string_view text, CampaignMode& out) {
  if (text == "shared") {
    out = CampaignMode::kSharedPool;
  } else if (text == "private") {
    out = CampaignMode::kPrivatePilots;
  } else if (text == "sequential") {
    out = CampaignMode::kSequential;
  } else {
    return false;
  }
  return true;
}

int campaign_tenant_tasks(const CampaignSpec& spec, int tenant_index) {
  return spec.base_tasks * (1 << (tenant_index % 3));
}

std::vector<common::SimDuration> campaign_arrivals(const CampaignSpec& spec,
                                                   std::uint64_t seed) {
  std::vector<common::SimDuration> out;
  out.reserve(static_cast<std::size_t>(spec.n_tenants));
  common::Rng rng = common::Rng::stream(seed, "campaign/arrivals");
  common::SimDuration at = common::SimDuration::zero();
  for (int i = 0; i < spec.n_tenants; ++i) {
    out.push_back(at);
    if (spec.arrival.poisson_per_hour > 0.0) {
      const double gap_s = rng.exponential(3600.0 / spec.arrival.poisson_per_hour);
      at += common::SimDuration::seconds(gap_s);
    } else {
      at += spec.arrival.fixed_spacing;
    }
  }
  return out;
}

CampaignTrialResult run_campaign_trial(const CampaignSpec& spec, std::uint64_t seed,
                                       const WorldTweaks& tweaks) {
  core::AimesConfig config;
  config.seed = seed;
  config.warmup = tweaks.warmup;
  if (!tweaks.testbed.empty()) config.testbed = tweaks.testbed;
  config.execution.units.unit_failure_probability = tweaks.unit_failure_probability;
  config.faults = tweaks.faults;
  config.observability = tweaks.observability;

  core::Aimes aimes(config);
  aimes.start();

  const auto arrivals = campaign_arrivals(spec, seed);
  const auto planner = campaign_planner_config(spec);

  CampaignTrialResult result;
  if (spec.mode == CampaignMode::kSequential) {
    // Baseline: the campaign as a user without a multi-tenant executor would
    // run it — each application planned and executed alone, the next one
    // starting only after its predecessor finished (or at its own arrival
    // time, whichever is later).
    const common::SimTime start = aimes.engine().now();
    common::SimTime last_finish = start;
    result.success = true;
    for (int i = 0; i < spec.n_tenants; ++i) {
      const common::SimTime arrival = start + arrivals[static_cast<std::size_t>(i)];
      if (arrival > aimes.engine().now()) aimes.engine().run_until(arrival);
      const auto app = make_tenant_app(spec, i, seed);
      auto run = aimes.run(app, planner);
      common::SimTime finish = aimes.engine().now();
      if (run.ok() && run->report.success) {
        finish = run->report.ttc.run_finished;
      } else {
        if (!run.ok()) {
          common::Log::warn("exp", "campaign tenant failed to plan: " + run.error());
        }
        result.success = false;
      }
      result.tenant_ttc.push_back(finish - arrival);
      last_finish = std::max(last_finish, finish);
    }
    result.makespan = last_finish - start;
    if (aimes.recorder() != nullptr) {
      result.obs = aimes.recorder()->snapshot(tweaks.obs_artifacts);
    }
    return result;
  }

  std::vector<core::CampaignTenantSpec> tenants;
  tenants.reserve(static_cast<std::size_t>(spec.n_tenants));
  for (int i = 0; i < spec.n_tenants; ++i) {
    core::CampaignTenantSpec t;
    t.app = make_tenant_app(spec, i, seed);
    t.name = "t" + std::to_string(i + 1);
    t.arrival = arrivals[static_cast<std::size_t>(i)];
    t.weight = tenant_weight(spec, i);
    t.priority = cycled(spec.admission.priorities, i, 0);
    t.slo = cycled(spec.admission.slos, i, core::SloClass::kStandard);
    t.quota = cycled(spec.admission.quotas, i, core::TenantQuota{});
    tenants.push_back(std::move(t));
  }

  core::CampaignOptions options;
  options.planner = planner;
  options.sharing = spec.mode == CampaignMode::kPrivatePilots
                        ? core::CampaignSharing::kPrivatePilots
                        : core::CampaignSharing::kSharedPool;
  options.pool_idle_grace = spec.pool_idle_grace;
  options.walltime_headroom = spec.walltime_headroom;
  options.units.unit_failure_probability = tweaks.unit_failure_probability;
  options.admission = spec.admission.policy;
  options.breaker = spec.admission.breaker;
  options.recovery = spec.recovery;

  auto run = aimes.run_campaign(std::move(tenants), options);
  if (aimes.recorder() != nullptr) result.obs = aimes.recorder()->snapshot(tweaks.obs_artifacts);
  if (!run.ok()) {
    common::Log::warn("exp", "campaign trial failed: " + run.error());
    return result;
  }
  result.report = std::move(run->report);
  result.success = result.report.success;
  if (!result.success && spec.admission.policy.enabled) {
    // Shedding per policy is the policy working, not a failure; only an
    // *admitted* tenant that did not complete fails the trial.
    result.success = true;
    for (const auto& t : result.report.tenants) {
      if (t.admission != core::AdmissionOutcome::kShed && !t.success) {
        result.success = false;
        break;
      }
    }
  }
  result.makespan = result.report.makespan;
  for (const auto& t : result.report.tenants) result.tenant_ttc.push_back(t.ttc.ttc);
  return result;
}

std::uint64_t fold_campaign_trial(std::uint64_t state, const CampaignTrialResult& r) {
  Fnv fnv(state);
  fnv.mix(r.success ? 1 : 0);
  fnv.mix(r.makespan.count_ms());
  for (const auto& ttc : r.tenant_ttc) fnv.mix(ttc.count_ms());
  for (const auto& t : r.report.tenants) {
    fnv.mix(static_cast<std::int64_t>(t.admission));
    fnv.mix(static_cast<std::int64_t>(t.shed_reason));
    fnv.mix(t.admission_wait.count_ms());
    fnv.mix(t.granted_pilots);
  }
  return fnv.value();
}

CampaignCellResult run_campaign_cell(const CampaignSpec& spec, int n_trials,
                                     std::uint64_t base_seed, const WorldTweaks& tweaks,
                                     int jobs, const CampaignProgress& progress,
                                     const StopToken& stop) {
  CampaignCellResult cell;
  cell.spec = spec;
  if (n_trials <= 0) return cell;
  sim::ReplicaPool pool(jobs < 0 ? 1u : static_cast<unsigned>(jobs));
  const std::vector<CampaignTrialResult> results = pool.map<CampaignTrialResult>(
      static_cast<std::size_t>(n_trials), [&](std::size_t t) {
        if (stop && stop()) {
          CampaignTrialResult skipped;
          skipped.skipped = true;
          return skipped;
        }
        CampaignTrialResult r =
            run_campaign_trial(spec, base_seed + static_cast<std::uint64_t>(t) + 1, tweaks);
        if (progress) progress(static_cast<int>(t), r);
        return r;
      });
  std::uint64_t checksum = kChecksumSeed;
  for (const CampaignTrialResult& r : results) {
    if (r.skipped) {
      ++cell.trials_skipped;
      continue;
    }
    checksum = fold_campaign_trial(checksum, r);
    for (const auto& t : r.report.tenants) {
      if (t.admission == core::AdmissionOutcome::kShed) {
        ++cell.tenants_shed;
      } else if (t.planned) {
        ++cell.tenants_admitted;
      }
      if (t.admission_wait > common::SimDuration::zero()) {
        cell.admission_wait_s.add(t.admission_wait.to_seconds());
      }
    }
    // Sequential-mode trials leave `report` default-constructed; only trials
    // that actually multiplexed tenants carry a meaningful fairness sample.
    if (!r.report.tenants.empty()) cell.fairness.add(r.report.fairness_index);
    if (r.makespan > common::SimDuration::zero()) {
      cell.goodput_uph.add(static_cast<double>(r.report.units_done()) /
                           r.makespan.to_hours());
      // SLO-attaining goodput: only tenants that finished whole and inside
      // their effective deadline contribute; late or partial work is badput.
      std::size_t slo_units = 0;
      for (const auto& t : r.report.tenants) {
        if (t.admission == core::AdmissionOutcome::kShed || !t.planned) continue;
        if (t.success && t.ttc.ttc <= core::slo_deadline(t.slo)) {
          slo_units += t.units_done;
        } else {
          ++cell.slo_violations;
        }
      }
      cell.slo_goodput_uph.add(static_cast<double>(slo_units) / r.makespan.to_hours());
    }
    if (r.success) {
      cell.makespan_s.add(r.makespan.to_seconds());
      for (const auto& ttc : r.tenant_ttc) cell.tenant_ttc_s.add(ttc.to_seconds());
    } else {
      ++cell.failures;
    }
  }
  cell.checksum = checksum;
  return cell;
}

}  // namespace aimes::exp
