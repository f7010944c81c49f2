// aimes-perfbench: the program behind the repository benchmark.
//
//   aimes-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --repo DIR --aimesd PATH --work-dir DIR [--trace-out FILE]
//
// Runs one workload (paper_small, paper_large, campaign, daemon), checks
// every op's outputs against the workload witness, and prints one JSON
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 a separate traced run
// times the calls into each layer and reports the per-layer ones. The
// sim workloads call the library in-process through exp::execute; the
// daemon workload drives a real aimesd over loopback. perfbench/run.py
// builds this binary and runs it; see perfbench/NOTES.md for the design.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.hpp"
#include "common/log.hpp"

namespace {

using perfbench::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric tables of BENCHMARK.json, in print order. Every workload
// prints every entry; a layer a workload does not reach from the
// benchmark's side reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"throughput_per_s", "1/s"}, {"request_ms_p50", "ms"},
    {"request_ms_p90", "ms"}, {"peak_rss_mb", "MiB"},      {"success_rate", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"exp.resolve_ms", "ms"},
    {"core.world_build_ms", "ms"},
    {"cluster.warmup_ms", "ms"},
    {"cluster.warmup_allocs", "count"},
    {"skeleton.materialize_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"core.execute_ms", "ms"},
    {"core.campaign_ms", "ms"},
    {"core.run_allocs", "count"},
    {"obs.snapshot_ms", "ms"},
    {"exp.self_ms", "ms"},
    {"bench.op_ms", "ms"},
    {"sim.events_warmup", "count"},
    {"sim.events_run", "count"},
    {"sim.peak_queued", "count"},
    {"sim.ns_per_event_warmup", "ns"},
    {"sim.ns_per_event_run", "ns"},
    {"pilot.trace_records", "count"},
    {"core.tenants_queued", "count"},
    {"core.tenants_shed", "count"},
    {"pilot.pool_reuse_ratio", "ratio"},
    {"net.submit_ms", "ms"},
    {"net.follow_ms", "ms"},
    {"net.view_ms", "ms"},
    {"ctl.queue_wait_ms", "ms"},
    {"ctl.run_ms", "ms"},
    {"ctl.notify_ms", "ms"},
    {"ctl.replay_ms", "ms"},
    {"ctl.journal_bytes_per_run", "B"},
    {"ctl.backlog_max", "count"},
    {"ctl.rejected", "count"},
    {"net.retries", "count"},
    {"net.read_ms_p50", "ms"},
    {"net.reader_lag_ms", "ms"},
    {"ctl.plane_share_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "aimes-perfbench: %s\n"
               "usage: aimes-perfbench --workload paper_small|paper_large|campaign|daemon\n"
               "         --seed N --seconds S --trace 0|1 --repo DIR --aimesd PATH\n"
               "         --work-dir DIR [--trace-out FILE] [--perturb-op K]\n",
               why);
  std::exit(2);
}

perfbench::Options parse_args(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--repo") {
      opt.repo = value;
    } else if (flag == "--aimesd") {
      opt.aimesd = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--perturb-op") {
      opt.perturb_op = std::strtol(value.c_str(), &end, 10);
      if (*end != '\0' || opt.perturb_op < 0) usage("--perturb-op takes an op index");
    } else {
      usage(("unknown option " + flag).c_str());
    }
  }
  if (!perfbench::is_sim_workload(opt.workload) && opt.workload != "daemon") {
    usage("unknown or missing --workload");
  }
  if (opt.work_dir.empty()) usage("--work-dir is required");
  if (opt.workload == "daemon" && opt.aimesd.empty()) usage("--aimesd is required");
  if (opt.workload == "daemon" && opt.perturb_op >= 0) {
    usage("--perturb-op applies to the sim workloads");
  }
  return opt;
}

/// The Release guard: numbers from an unoptimized or assert-enabled build of
/// the library under test are not evidence. The flags are the ones the
/// benchmark's own CMake build compiled the library and aimesd with.
bool release_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_LIB_FLAGS;
  bool ok = type == "Release" && flags.find("-DNDEBUG") != std::string::npos;
#ifndef NDEBUG
  ok = false;
#endif
  if (!ok) {
    std::fprintf(stderr,
                 "aimes-perfbench: refusing to measure a '%s' build (library flags '%s'); "
                 "configure perfbench with -DCMAKE_BUILD_TYPE=Release\n",
                 type.c_str(), flags.c_str());
  }
  return ok;
}

void print_result(const perfbench::Options& opt, const perfbench::Outcome& out) {
  std::map<std::string, double> values;
  for (const Metric& m : out.metrics) values[m.name] = m.value;
  const bool correct = out.failed == 0 && out.witness_ok && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", out.attempted, out.failed);
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = values.find(spec.name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
    first = false;
  };
  if (opt.trace) {
    for (const auto& spec : kPerLayer) emit(spec);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse_args(argc, argv);
  if (!release_build()) return 3;
  // The daemon's and the library's warnings go to stderr; keep the result
  // stream quiet.
  aimes::common::Log::set_level(aimes::common::LogLevel::kError);
  if (opt.trace) perfbench::enable_allocation_counting();

  perfbench::Outcome out = perfbench::is_sim_workload(opt.workload)
                               ? perfbench::run_sim_workload(opt)
                               : perfbench::run_daemon_workload(opt);
  if (out.attempted == 0) {
    std::fprintf(stderr, "aimes-perfbench: %s ran no ops\n", opt.workload.c_str());
    return 1;
  }
  out.witness_ok = perfbench::settle_witness(opt, out) && out.witness_ok;
  print_result(opt, out);
  return out.failed == 0 && out.witness_ok ? 0 : 1;
}
