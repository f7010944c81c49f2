// Parameterized conservation invariants of the batch-queue substrate under a
// randomized submit/cancel storm: whatever the policy or machine shape, no
// node is leaked, no job is lost, and every job ends in exactly one final
// state.
#include <gtest/gtest.h>

#include "cluster/site.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace aimes::cluster {
namespace {

using common::SimDuration;
using common::SimTime;

struct StormCase {
  const char* name;
  const char* policy;
  int nodes;
  int cores_per_node;
  double preemption_mean_h;  // 0 = off
};

// Nodes x cores per node. Without a printer GoogleTest dumps the raw bytes,
// pointers included, into every test name, so the names changed per run.
std::ostream& operator<<(std::ostream& out, const StormCase& c) {
  return out << c.nodes << 'x' << c.cores_per_node;
}

class SiteStorm : public ::testing::TestWithParam<StormCase> {};

TEST_P(SiteStorm, ConservationUnderRandomStorm) {
  const auto& param = GetParam();
  sim::Engine engine;
  SiteConfig cfg;
  cfg.name = param.name;
  cfg.nodes = param.nodes;
  cfg.cores_per_node = param.cores_per_node;
  cfg.scheduler = param.policy;
  cfg.scheduler_cycle = SimDuration::seconds(15);
  cfg.min_queue_age = SimDuration::seconds(15);
  if (param.preemption_mean_h > 0) {
    cfg.preemption_mean_time = SimDuration::hours(param.preemption_mean_h);
  }
  ClusterSite site(engine, common::SiteId(1), cfg, common::Rng(404));

  common::Rng rng(1234);
  std::vector<common::JobId> submitted;
  int peak_busy = 0;

  // Storm: random submissions with random shapes, sporadic cancellations,
  // interleaved with time advancing.
  for (int round = 0; round < 60; ++round) {
    const int n_submit = static_cast<int>(rng.uniform_int(0, 5));
    for (int i = 0; i < n_submit; ++i) {
      JobRequest req;
      req.name = "storm";
      req.nodes = static_cast<int>(rng.uniform_int(1, param.nodes));
      req.runtime = SimDuration::seconds(rng.uniform(30, 4 * 3600));
      req.walltime = req.runtime * rng.uniform(1.0, 3.0);
      auto id = site.submit(req);
      ASSERT_TRUE(id.ok());
      submitted.push_back(*id);
    }
    if (!submitted.empty() && rng.bernoulli(0.3)) {
      // Cancel a random job; may already be final (error is acceptable).
      (void)site.cancel(submitted[rng.index(submitted.size())]);
    }
    engine.run_until(engine.now() + SimDuration::minutes(rng.uniform(1, 30)));
    ASSERT_GE(site.free_nodes(), 0);
    ASSERT_LE(site.free_nodes(), param.nodes);
    peak_busy = std::max(peak_busy, site.busy_nodes());
  }
  engine.run();  // drain

  // 1. All nodes returned.
  EXPECT_EQ(site.free_nodes(), param.nodes);
  EXPECT_EQ(site.queue_length(), 0u);
  EXPECT_EQ(site.running_count(), 0u);
  // 2. The machine actually did work during the storm.
  EXPECT_GT(peak_busy, 0);
  // 3. Every submitted job reached exactly one final state.
  std::size_t final_count = 0;
  for (auto id : submitted) {
    const Job* job = site.find(id);
    ASSERT_NE(job, nullptr);
    EXPECT_TRUE(is_final(job->state)) << job->id.str();
    ++final_count;
  }
  const std::size_t accounted =
      site.finished_count(JobState::kCompleted) + site.finished_count(JobState::kTimeout) +
      site.finished_count(JobState::kCancelled) + site.finished_count(JobState::kPreempted);
  EXPECT_EQ(accounted, final_count);
  // 4. Wait history only holds jobs that actually started.
  for (const auto& rec : site.wait_history()) {
    EXPECT_GE(rec.started_at, rec.submitted_at);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndShapes, SiteStorm,
    ::testing::Values(StormCase{"fcfs_small", "fcfs", 16, 8, 0.0},
                      StormCase{"fcfs_large", "fcfs", 256, 16, 0.0},
                      StormCase{"easy_small", "easy-backfill", 16, 8, 0.0},
                      StormCase{"easy_large", "easy-backfill", 256, 16, 0.0},
                      StormCase{"easy_wide_nodes", "easy-backfill", 64, 64, 0.0},
                      StormCase{"easy_preempting", "easy-backfill", 64, 8, 1.0},
                      StormCase{"fcfs_preempting", "fcfs", 64, 8, 0.5}),
    [](const ::testing::TestParamInfo<StormCase>& info) { return info.param.name; });

}  // namespace
}  // namespace aimes::cluster
