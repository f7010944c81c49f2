// Micro-benchmarks of the simulation substrate.
//
// The virtual laboratory's value depends on running "a year of machine-room
// dynamics" in seconds; these cases keep the discrete-event engine, the
// batch schedulers and the transfer manager honest about their wall-clock
// costs.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "cluster/batch_scheduler.hpp"
#include "cluster/site.hpp"
#include "cluster/testbed.hpp"
#include "cluster/workload.hpp"
#include "bench/bench_util.hpp"
#include "net/staging.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aimes;

/// Raw event throughput of the engine.
void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    for (int i = 0; i < 10000; ++i) {
      engine.schedule(common::SimDuration::millis(i), [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineEventThroughput);

/// Cancellation-heavy pattern: schedule two events, cancel one, fire one —
/// the timeout-guard idiom the middleware uses everywhere (every transfer,
/// job and pilot arms a timeout it almost always cancels). The slab engine
/// removes in place in O(log n); the tombstone design this replaced paid a
/// hash-map erase per cancel and dragged dead entries through the heap.
void BM_EngineCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    // Keep a rolling window of pending timeouts, cancelling the oldest as
    // each new pair arrives, so the heap constantly churns mid-structure.
    std::vector<common::EventId> guards;
    guards.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      guards.push_back(engine.schedule(common::SimDuration::seconds(60 + i),
                                       [&fired] { fired += 100; }));
      engine.schedule(common::SimDuration::millis(i), [&fired] { ++fired; });
      if (i >= 64) {
        engine.cancel(guards[static_cast<std::size_t>(i - 64)]);
        guards[static_cast<std::size_t>(i - 64)] = common::EventId(0);
      }
    }
    for (const auto id : guards) engine.cancel(id);
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  // 10k fires + 10k cancels per iteration.
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_EngineCancelHeavy);

/// Same-timestamp burst: thousands of events land on one tick, as happens
/// when a pilot activates and releases a whole bag of compute units at once.
/// Exercises the (when, seq) tie-break path, where ordering falls entirely
/// to the side-array sequence numbers.
void BM_EngineSameTimestampBurst(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    for (int burst = 0; burst < 10; ++burst) {
      const auto at = common::SimDuration::seconds(burst + 1);
      for (int i = 0; i < 1000; ++i) {
        engine.schedule(at, [&fired] { ++fired; });
      }
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineSameTimestampBurst);

/// One EASY-backfill pass over a queue of the given depth.
void BM_EasyBackfillPass(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  cluster::EasyBackfillScheduler scheduler;
  cluster::SchedulerView view;
  view.now = common::SimTime(1000);
  view.total_nodes = 1024;
  view.free_nodes = 16;
  for (int i = 0; i < depth; ++i) {
    view.pending.push_back({common::JobId(static_cast<std::uint64_t>(i) + 1), (i % 5 == 0) ? 256 : 2,
                            common::SimDuration::hours(2), common::SimTime(0)});
  }
  for (int i = 0; i < 64; ++i) {
    view.running.push_back({common::JobId(10000 + static_cast<std::uint64_t>(i)), 16,
                            common::SimTime(1000) + common::SimDuration::minutes(i)});
  }
  for (auto _ : state) {
    auto picks = scheduler.select(view);
    benchmark::DoNotOptimize(picks);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EasyBackfillPass)->Arg(32)->Arg(256)->Arg(1024);

/// A full simulated day of one busy site (workload + batch queue).
void BM_SiteDayUnderLoad(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    cluster::SiteConfig cfg;
    cfg.name = "bench-site";
    cfg.nodes = 512;
    cfg.cores_per_node = 16;
    cluster::ClusterSite site(engine, common::SiteId(1), cfg);
    cluster::WorkloadConfig load;
    load.horizon = common::SimDuration::hours(24);
    cluster::WorkloadGenerator generator(engine, site, load, common::Rng(99));
    generator.prime();
    generator.start();
    engine.run_until(common::SimTime::epoch() + common::SimDuration::hours(24));
    benchmark::DoNotOptimize(site.wait_history().size());
  }
}
BENCHMARK(BM_SiteDayUnderLoad);

/// 512 concurrent 1 MiB staging flows through one fair-shared channel.
void BM_ConcurrentStaging(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    net::Topology topology;
    topology.add_site(common::SiteId(1), net::LinkSpec{});
    net::TransferManager transfers(engine, topology);
    net::StagingService staging(engine, transfers);
    int done = 0;
    for (int i = 0; i < 512; ++i) {
      auto status = staging.stage("f" + std::to_string(i), common::SiteId(1),
                                  net::Direction::kIn, common::DataSize::mib(1),
                                  [&done](const net::StagingDone&) { ++done; });
      benchmark::DoNotOptimize(status);
    }
    engine.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ConcurrentStaging);

}  // namespace

// Custom main (instead of BENCHMARK_MAIN): stamps the *aimes* build flavor
// into the JSON context — the system benchmark library's own
// `library_build_type` says nothing about our flags — and refuses to record
// a --benchmark_out file from a debug build (BENCH_substrate.json is perf
// evidence; see bench_util.hpp).
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) {
      aimes::bench::require_release_artifacts("micro_substrate");
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("aimes_build_type", aimes::bench::kBuildType);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
