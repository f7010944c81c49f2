// Parameterized sweep over every built-in skeleton profile: materialization,
// translation, emission and execution invariants that must hold regardless
// of application shape.
#include <gtest/gtest.h>

#include "core/aimes.hpp"
#include "core/execution_manager.hpp"
#include "skeleton/emitters.hpp"
#include "skeleton/profiles.hpp"

namespace aimes::skeleton {
namespace {

struct ProfileCase {
  const char* name;
  SkeletonSpec (*make)(int);
  int size;
};

// Without a printer GoogleTest dumps the raw bytes, pointers included, into
// every test name, so the names changed with each build and each run.
std::ostream& operator<<(std::ostream& out, const ProfileCase& c) {
  return out << "size=" << c.size;
}

SkeletonSpec make_mapreduce(int n) {
  return profiles::map_reduce(n, std::max(1, n / 4), common::DistributionSpec::constant(120),
                              common::DistributionSpec::constant(60));
}

SkeletonSpec make_pipeline(int n) {
  return profiles::iterative_pipeline(n, 2, 2, common::DistributionSpec::constant(90));
}

class ProfileSweep : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(ProfileSweep, MaterializationInvariants) {
  const auto& param = GetParam();
  const auto spec = param.make(param.size);
  ASSERT_TRUE(spec.validate().ok());
  const auto app = materialize(spec, 99);

  ASSERT_GT(app.task_count(), 0u);
  // Every file id is dense and consistent; producers precede consumers.
  for (const auto& task : app.tasks()) {
    for (auto fid : task.inputs) {
      const auto& file = app.file(fid);
      if (!file.external()) {
        EXPECT_LT(file.producer.value(), task.id.value())
            << "producer must come earlier in stage order";
      }
    }
    EXPECT_GT(task.duration, common::SimDuration::zero());
    EXPECT_GE(task.cores, 1);
  }
  // Stage ranges tile the task vector exactly.
  std::size_t covered = 0;
  for (const auto& stage : app.stages()) {
    EXPECT_EQ(stage.first_task, covered);
    covered += stage.task_count;
  }
  EXPECT_EQ(covered, app.task_count());
}

TEST_P(ProfileSweep, TranslationProducesValidDependencies) {
  const auto& param = GetParam();
  const auto app = materialize(param.make(param.size), 99);
  const auto batch = core::ExecutionManager::units_from_skeleton(app);
  ASSERT_EQ(batch.size(), app.task_count());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (std::size_t dep : batch[i].depends_on) {
      EXPECT_LT(dep, i) << "dependencies must reference earlier units";
    }
  }
}

TEST_P(ProfileSweep, AllEmittersProduceOutput) {
  const auto& param = GetParam();
  const auto app = materialize(param.make(param.size), 99);
  EXPECT_GT(to_shell_script(app).size(), 100u);
  EXPECT_GT(to_json(app).size(), 100u);
  EXPECT_GT(to_pegasus_dax(app).size(), 100u);
  EXPECT_GT(to_swift_script(app).size(), 100u);
}

TEST_P(ProfileSweep, ExecutesToCompletion) {
  const auto& param = GetParam();
  core::AimesConfig config;
  config.seed = 17;
  config.warmup = common::SimDuration::hours(1);
  core::Aimes aimes(config);
  aimes.start();
  const auto app = materialize(param.make(param.size), 17);
  core::PlannerConfig planner;
  planner.binding = core::Binding::kLate;
  planner.n_pilots = 2;
  auto result = aimes.run(app, planner);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_TRUE(result->report.success) << param.name;
  EXPECT_EQ(result->report.units_done, app.task_count());
  // Trace completeness: one DONE per unit.
  EXPECT_EQ(result->trace.count_entered(pilot::Entity::kUnit, "DONE"), app.task_count());
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, ProfileSweep,
    ::testing::Values(ProfileCase{"bag_uniform", profiles::bag_uniform, 24},
                      ProfileCase{"bag_gaussian", profiles::bag_gaussian, 24},
                      ProfileCase{"montage", profiles::montage_like, 16},
                      ProfileCase{"blast", profiles::blast_like, 12},
                      ProfileCase{"cybershake", profiles::cybershake_like, 32},
                      ProfileCase{"mapreduce", make_mapreduce, 16},
                      ProfileCase{"pipeline", make_pipeline, 6}),
    [](const ::testing::TestParamInfo<ProfileCase>& info) { return info.param.name; });

}  // namespace
}  // namespace aimes::skeleton
