// Micro-benchmarks of the middleware overhead (Trp).
//
// The paper attributes the steeper Tx gradient above 256 tasks to "the
// overheads introduced by the AIMES middleware". These google-benchmark
// cases measure the two mechanisms our model charges for that overhead —
// serialized agent launches and unit-manager dispatch — plus the wall-clock
// cost of the simulator machinery that hosts them, so regressions in either
// the model or the implementation show up here.

#include <benchmark/benchmark.h>

#include "pilot/agent.hpp"
#include "pilot/profiler.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aimes;

/// Virtual Trp of launching N units through one agent (model metric): total
/// virtual time from first enqueue to last completion minus the pure
/// compute time. Reported as the "trp_virtual_s" counter.
void BM_AgentLaunchSerialization(benchmark::State& state) {
  const int n_units = static_cast<int>(state.range(0));
  double trp_s = 0.0;
  for (auto _ : state) {
    sim::Engine engine;
    int done = 0;
    pilot::Agent agent(
        engine, common::PilotId(1), n_units, pilot::AgentOptions{},
        [&](common::UnitId) { ++done; }, nullptr);
    const auto duration = common::SimDuration::minutes(15);
    for (int i = 0; i < n_units; ++i) {
      agent.enqueue(common::UnitId(static_cast<std::uint64_t>(i) + 1), 1, duration);
    }
    engine.run();
    benchmark::DoNotOptimize(done);
    trp_s = (engine.now() - common::SimTime::epoch()).to_seconds() - duration.to_seconds();
  }
  state.counters["trp_virtual_s"] = trp_s;
  state.SetItemsProcessed(state.iterations() * n_units);
}
BENCHMARK(BM_AgentLaunchSerialization)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)->Arg(2048);

/// Wall-clock throughput of the profiler (every state transition goes
/// through it; it must stay cheap).
void BM_ProfilerRecord(benchmark::State& state) {
  pilot::Profiler profiler;
  std::uint64_t uid = 0;
  for (auto _ : state) {
    ++uid;
    profiler.record(common::SimTime(static_cast<std::int64_t>(uid)), pilot::Entity::kUnit, uid,
                    "EXECUTING", "bench");
    if (profiler.size() > 1u << 20) profiler.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerRecord);

/// Trace analysis cost over a large synthetic trace.
void BM_TraceIntervalQuery(benchmark::State& state) {
  pilot::Profiler profiler;
  const std::uint64_t n = 4096;
  for (std::uint64_t i = 0; i < n; ++i) {
    profiler.record(common::SimTime(static_cast<std::int64_t>(i * 10)), pilot::Entity::kUnit,
                    i, "EXECUTING", "");
    profiler.record(common::SimTime(static_cast<std::int64_t>(i * 10 + 900)),
                    pilot::Entity::kUnit, i, "PENDING_OUTPUT_STAGING", "");
  }
  for (auto _ : state) {
    auto set = profiler.intervals(pilot::Entity::kUnit, "EXECUTING", "PENDING_OUTPUT_STAGING");
    benchmark::DoNotOptimize(set.union_length());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TraceIntervalQuery);

}  // namespace

BENCHMARK_MAIN();
