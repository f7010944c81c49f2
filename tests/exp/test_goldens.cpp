// Output goldens: a fixed list of RunRequests run through exp::execute, each
// folded over its simulated outputs and compared with a checked-in value.
//
// Every other determinism test compares two runs of the same build (across
// `jobs`, CLI against daemon), so a change that moves every output alike
// passes them. These values pin the outputs themselves. A change that alters
// behaviour on purpose re-records them from the mismatch messages (each one
// prints the request JSON, the expected value and the value it got) and says
// why in CHANGES.md.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/request.hpp"

namespace {

using namespace aimes;

struct Fnv {
  std::uint64_t h = exp::kChecksumSeed;
  Fnv& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
    return *this;
  }
  Fnv& mix(double v) { return mix(std::bit_cast<std::uint64_t>(v)); }
};

/// Single-app: success, units done and failed, the TTC/Tw/Tx/Ts means, the
/// engine events executed and the cell checksum (a fold of spans, so constant
/// unless observability is on). Campaign: its checksum, which already folds
/// every tenant's outputs.
std::uint64_t fold_outputs(const exp::RunResult& r) {
  Fnv f;
  f.mix(static_cast<std::uint64_t>(r.ok)).mix(static_cast<std::uint64_t>(r.success));
  if (r.is_campaign) return f.mix(r.checksum).h;
  return f.mix(r.progress.units_done)
      .mix(r.progress.units_failed)
      .mix(r.cell.ttc_s.mean())
      .mix(r.cell.tw_s.mean())
      .mix(r.cell.tx_s.mean())
      .mix(r.cell.ts_s.mean())
      .mix(static_cast<std::uint64_t>(r.cell.events_executed))
      .mix(r.checksum)
      .h;
}

struct Golden {
  std::string label;
  exp::RunRequest request;
  std::uint64_t expected;
};

exp::RunRequest table_one(int experiment, int tasks) {
  exp::RunRequest req;
  req.strategy.experiment = experiment;
  req.tasks = tasks;
  req.seed = 1;
  req.jobs = 1;
  return req;
}

std::vector<Golden> goldens() {
  std::vector<Golden> out;
  const std::uint64_t table[4][2] = {
      {0xa9e2ddcb3abb3fdfULL, 0x1d60f2a13362f723ULL},
      {0xf84f3f1e5d3e5163ULL, 0xc3b034bdde2503f3ULL},
      {0x512ab8f2af538fa1ULL, 0xab14fa7394b72402ULL},
      {0x018aa32c439eb5b6ULL, 0xd93373decd81a63bULL},
  };
  for (int e = 1; e <= 4; ++e) {
    out.push_back({"exp" + std::to_string(e) + "_n8", table_one(e, 8), table[e - 1][0]});
    out.push_back(
        {"exp" + std::to_string(e) + "_n1024", table_one(e, 1024), table[e - 1][1]});
  }

  exp::RunRequest faults;
  faults.tasks = 64;
  faults.seed = 1;
  faults.jobs = 1;
  faults.faults.pilot_failure_rate = 0.3;  // arms Execution-Manager recovery
  out.push_back({"pilot_failures_recovered", faults, 0x98199c180f7b977aULL});

  exp::RunRequest campaign;
  campaign.profile = "bag-uniform";
  campaign.tasks = 16;
  campaign.seed = 1;
  campaign.jobs = 1;
  campaign.campaign.tenants = 8;
  campaign.admission.enabled = true;
  campaign.admission.quota.max_cores = 64;
  out.push_back({"admission_campaign", campaign, 0x677d9a0bde866411ULL});

  exp::RunRequest obs;
  obs.tasks = 64;
  obs.seed = 1;
  obs.jobs = 1;
  obs.observability.enabled = true;
  out.push_back({"observability_on", obs, 0xbcd78f1d2edf6943ULL});
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

TEST(OutputGoldens, SimulatedOutputsMatchRecordedValues) {
  for (const Golden& g : goldens()) {
    const exp::RunResult result = exp::execute(g.request);
    ASSERT_TRUE(result.ok) << g.label << ": " << result.error;
    const std::uint64_t got = fold_outputs(result);
    EXPECT_EQ(got, g.expected) << g.label << ": expected " << hex(g.expected) << ", got "
                               << hex(got) << "\nrequest:\n"
                               << exp::run_request_to_json(g.request);
    // Each special case must exercise the path it is named for.
    if (g.request.faults.any()) {
      EXPECT_GT(result.progress.faults_injected, 0u) << g.label;
      EXPECT_GT(result.progress.pilots_resubmitted, 0u) << g.label;
    }
    if (g.request.is_campaign()) EXPECT_GT(result.progress.tenants_admitted, 0u) << g.label;
    if (g.request.observability.enabled) {
      EXPECT_NE(result.checksum, exp::fold_trial_span(exp::kChecksumSeed, 0)) << g.label;
    }
  }
}

}  // namespace
