#include "exp/request.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "cluster/testbed_config.hpp"
#include "common/cli.hpp"
#include "common/config.hpp"
#include "core/json_scan.hpp"
#include "sim/faults.hpp"
#include "skeleton/profiles.hpp"
#include "skeleton/spec.hpp"

namespace aimes::exp {

namespace {

common::Status field_error(const std::string& path, const std::string& what) {
  return common::Status::error("request: field '" + path + "': " + what);
}

/// The strategy-string vocabularies, checked by validate() and mapped by
/// resolve(). One table each, so the spellings cannot drift apart.
bool known_binding(const std::string& s) { return s == "early" || s == "late"; }
bool known_scheduler(const std::string& s) {
  return s.empty() || s == "direct" || s == "round-robin" || s == "backfill";
}
bool known_selection(const std::string& s) { return s == "random" || s == "predicted"; }
bool known_profile(const std::string& s) {
  return s == "bag-uniform" || s == "bag-gaussian" || s == "montage" || s == "blast" ||
         s == "cybershake" || s == "mapreduce";
}

std::string hex16(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string RunRequest::display_name() const {
  if (!name.empty()) return name;
  std::string base = skeleton_file.empty() ? profile : skeleton_file;
  if (is_campaign()) {
    return "campaign-" + std::to_string(campaign.tenants) + "x" + base + "-" +
           std::to_string(tasks);
  }
  if (strategy.experiment > 0) base = "exp" + std::to_string(strategy.experiment);
  return base + "-" + std::to_string(tasks);
}

common::Status parse_arrival_spec(const std::string& text, ArrivalSpec& out) {
  const auto colon = text.find(':');
  const std::string kind = text.substr(0, colon);
  const std::string rest = colon == std::string::npos ? "" : text.substr(colon + 1);
  if (kind == "poisson") {
    auto rate = common::cli::parse_double(rest, 1e-6, 1e6);
    if (!rate) return common::Status::error(rate.error());
    out.poisson_per_hour = *rate;
    return {};
  }
  if (kind == "fixed") {
    auto seconds = common::cli::parse_double(rest, 0.0, 1e9);
    if (!seconds) return common::Status::error(seconds.error());
    out.poisson_per_hour = 0.0;
    out.fixed_spacing = common::SimDuration::seconds(*seconds);
    return {};
  }
  return common::Status::error("expected poisson:RATE or fixed:SECONDS");
}

std::string arrival_to_string(const ArrivalSpec& arrival) {
  if (arrival.poisson_per_hour > 0.0) return "poisson:" + fmt(arrival.poisson_per_hour);
  return "fixed:" + fmt(arrival.fixed_spacing.to_seconds());
}

common::Status parse_quota(const std::string& text, core::TenantQuota& out) {
  std::string rest = text;
  double parts[3] = {0.0, 0.0, 0.0};
  for (int i = 0; i < 3 && !rest.empty(); ++i) {
    const auto colon = rest.find(':');
    auto field = common::cli::parse_double(rest.substr(0, colon), 0.0, 1e12);
    if (!field) return common::Status::error(field.error());
    parts[i] = *field;
    if (colon == std::string::npos) break;
    rest = rest.substr(colon + 1);
  }
  out.max_cores = static_cast<int>(parts[0]);
  out.max_concurrent_units = static_cast<int>(parts[1]);
  out.max_core_hours = parts[2];
  return {};
}

std::string quota_to_string(const core::TenantQuota& quota) {
  return std::to_string(quota.max_cores) + ":" + std::to_string(quota.max_concurrent_units) +
         ":" + fmt(quota.max_core_hours);
}

common::Status parse_slo_class(const std::string& text, core::SloClass& out) {
  if (text == "interactive") {
    out = core::SloClass::kInteractive;
  } else if (text == "standard") {
    out = core::SloClass::kStandard;
  } else if (text == "batch") {
    out = core::SloClass::kBatch;
  } else {
    return common::Status::error("expected interactive, standard, or batch");
  }
  return {};
}

common::Status validate(const RunRequest& req) {
  // NaN passes every range comparison below, and the seconds/hours fields
  // later become integer milliseconds; refuse non-finite values up front.
  const std::pair<const char*, double> reals[] = {
      {"warmup_hours", req.warmup_hours},
      {"deadline_s", req.deadline_s},
      {"campaign.arrival", req.campaign.arrival.poisson_per_hour},
      {"faults.pilot_failure_rate", req.faults.pilot_failure_rate},
      {"admission.quota", req.admission.quota.max_core_hours},
      {"admission.max_queue_wait_s", req.admission.max_queue_wait_s},
      {"admission.breaker_threshold", req.admission.breaker_threshold},
      {"admission.breaker_cooldown_s", req.admission.breaker_cooldown_s},
      {"observability.sample_interval_s", req.observability.sample_interval_s},
  };
  for (const auto& [path, value] : reals) {
    if (!std::isfinite(value)) return field_error(path, "must be a finite number");
  }
  if (req.tasks < 1 || req.tasks > 10000000) {
    return field_error("tasks", "must be in [1, 10000000]");
  }
  if (req.trials < 1 || req.trials > 1000000) {
    return field_error("trials", "must be in [1, 1000000]");
  }
  if (req.jobs < 0 || req.jobs > 4096) return field_error("jobs", "must be in [0, 4096]");
  if (req.deadline_s < 0.0 || req.deadline_s > 24.0 * 3600.0 * 365.0) {
    return field_error("deadline_s", "must be in [0, 31536000] (0 = no deadline)");
  }
  if (req.warmup_hours < 0.0 || req.warmup_hours > 24.0 * 365.0) {
    return field_error("warmup_hours", "must be in [0, 8760]");
  }
  if (req.skeleton_file.empty() && !known_profile(req.profile)) {
    return field_error("profile", "unknown profile '" + req.profile + "'");
  }

  const auto& s = req.strategy;
  if (s.experiment < 0 || s.experiment > 4) {
    return field_error("strategy.experiment", "must be 0 (custom) or a Table I row 1-4");
  }
  if (s.experiment > 0 && !req.skeleton_file.empty()) {
    return field_error("strategy.experiment",
                       "a Table I experiment fixes the workload; it cannot combine with "
                       "skeleton_file");
  }
  if (!known_binding(s.binding)) {
    return field_error("strategy.binding", "expected early or late");
  }
  if (!known_scheduler(s.scheduler)) {
    return field_error("strategy.scheduler",
                       "expected direct, round-robin, backfill, or empty to derive");
  }
  if (s.pilots < 1 || s.pilots > 4096) {
    return field_error("strategy.pilots", "must be in [1, 4096]");
  }
  if (!known_selection(s.selection)) {
    return field_error("strategy.selection", "expected random or predicted");
  }

  const auto& c = req.campaign;
  if (c.tenants != 0 && (c.tenants < 2 || c.tenants > 256)) {
    return field_error("campaign.tenants", "must be 0 (single application) or in [2, 256]");
  }
  if (c.tenants > 0) {
    if (!req.skeleton_file.empty()) {
      return field_error("campaign.tenants",
                         "a campaign builds size-cycled bags; it cannot combine with "
                         "skeleton_file");
    }
    if (req.profile != "bag-uniform" && req.profile != "bag-gaussian") {
      return field_error("profile",
                         "a campaign supports the bag-uniform and bag-gaussian profiles");
    }
    if (s.experiment > 0) {
      return field_error("strategy.experiment",
                         "Table I experiments are single-application; campaigns take the "
                         "custom strategy fields");
    }
  }

  const auto& a = req.admission;
  if ((a.enabled || a.breaker) && c.tenants == 0) {
    return field_error("admission.enabled",
                       "admission and breakers guard campaigns; set campaign.tenants");
  }
  if ((a.enabled || a.breaker) && c.mode == CampaignMode::kSequential) {
    return field_error("campaign.mode",
                       "sequential campaigns run tenants one at a time through the "
                       "single-app path, which has no admission controller or site "
                       "breakers; use shared or private");
  }
  core::SloClass slo_class = core::SloClass::kStandard;
  if (auto st = parse_slo_class(a.slo, slo_class); !st.ok()) {
    return field_error("admission.slo", st.error());
  }
  if (a.max_queue_wait_s < 0.0 || a.max_queue_wait_s > 1e9) {
    return field_error("admission.max_queue_wait_s",
                       "must be in [0, 1e9] (0 keeps the default)");
  }
  if (a.breaker_threshold != 0.0 &&
      (a.breaker_threshold < 0.01 || a.breaker_threshold > 1.0)) {
    return field_error("admission.breaker_threshold",
                       "must be in [0.01, 1] (0 keeps the default)");
  }
  if (a.breaker_min_events < 0) {
    return field_error("admission.breaker_min_events", "must be >= 0");
  }
  if (a.breaker_cooldown_s < 0.0 || a.breaker_cooldown_s > 1e9) {
    return field_error("admission.breaker_cooldown_s", "must be in [0, 1e9]");
  }

  if (req.faults.pilot_failure_rate < 0.0 || req.faults.pilot_failure_rate > 1.0) {
    return field_error("faults.pilot_failure_rate", "must be in [0, 1]");
  }
  if (req.observability.sample_interval_s <= 0.0 || req.observability.sample_interval_s > 1e6) {
    return field_error("observability.sample_interval_s", "must be in (0, 1e6]");
  }
  return {};
}

std::string run_request_to_json(const RunRequest& req) {
  std::ostringstream out;
  const auto& s = req.strategy;
  const auto& c = req.campaign;
  const auto& a = req.admission;
  const auto& o = req.observability;
  out << "{\n";
  out << "  \"name\": \"" << core::json::escape(req.name) << "\",\n";
  out << "  \"user\": \"" << core::json::escape(req.user) << "\",\n";
  out << "  \"profile\": \"" << core::json::escape(req.profile) << "\",\n";
  out << "  \"skeleton_file\": \"" << core::json::escape(req.skeleton_file) << "\",\n";
  out << "  \"testbed_file\": \"" << core::json::escape(req.testbed_file) << "\",\n";
  out << "  \"tasks\": " << req.tasks << ",\n";
  out << "  \"warmup_hours\": " << fmt(req.warmup_hours) << ",\n";
  out << "  \"seed\": " << req.seed << ",\n";
  out << "  \"trials\": " << req.trials << ",\n";
  out << "  \"jobs\": " << req.jobs << ",\n";
  out << "  \"deadline_s\": " << fmt(req.deadline_s) << ",\n";
  out << "  \"strategy\": {\n";
  out << "    \"experiment\": " << s.experiment << ",\n";
  out << "    \"binding\": \"" << core::json::escape(s.binding) << "\",\n";
  out << "    \"scheduler\": \"" << core::json::escape(s.scheduler) << "\",\n";
  out << "    \"pilots\": " << s.pilots << ",\n";
  out << "    \"selection\": \"" << core::json::escape(s.selection) << "\"\n";
  out << "  },\n";
  out << "  \"campaign\": {\n";
  out << "    \"tenants\": " << c.tenants << ",\n";
  out << "    \"arrival\": \"" << arrival_to_string(c.arrival) << "\",\n";
  out << "    \"mode\": \"" << to_string(c.mode) << "\"\n";
  out << "  },\n";
  out << "  \"faults\": {\n";
  out << "    \"plan_file\": \"" << core::json::escape(req.faults.plan_file) << "\",\n";
  out << "    \"pilot_failure_rate\": " << fmt(req.faults.pilot_failure_rate) << "\n";
  out << "  },\n";
  out << "  \"admission\": {\n";
  out << "    \"enabled\": " << (a.enabled ? "true" : "false") << ",\n";
  out << "    \"quota\": \"" << quota_to_string(a.quota) << "\",\n";
  out << "    \"slo\": \"" << core::json::escape(a.slo) << "\",\n";
  out << "    \"max_queue_wait_s\": " << fmt(a.max_queue_wait_s) << ",\n";
  out << "    \"breaker\": " << (a.breaker ? "true" : "false") << ",\n";
  out << "    \"breaker_threshold\": " << fmt(a.breaker_threshold) << ",\n";
  out << "    \"breaker_min_events\": " << a.breaker_min_events << ",\n";
  out << "    \"breaker_cooldown_s\": " << fmt(a.breaker_cooldown_s) << "\n";
  out << "  },\n";
  out << "  \"observability\": {\n";
  out << "    \"enabled\": " << (o.enabled ? "true" : "false") << ",\n";
  out << "    \"sample_interval_s\": " << fmt(o.sample_interval_s) << ",\n";
  out << "    \"artifacts\": " << (o.artifacts ? "true" : "false") << "\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

namespace {

/// Copies `key` out of `scan` into `dst` when present (absent keeps the
/// default). The helpers keep parse_run_request to one line per field while
/// every error still carries the scanner's origin/path/offset coordinates.
common::Status take_text(const core::json::FieldScanner& scan, const std::string& key,
                         std::string& dst) {
  if (!scan.has(key)) return {};
  auto v = scan.text(key);
  if (!v) return common::Status::error(v.error());
  dst = std::move(*v);
  return {};
}

common::Status take_int(const core::json::FieldScanner& scan, const std::string& key,
                        int& dst) {
  if (!scan.has(key)) return {};
  auto v = scan.number(key);
  if (!v) return common::Status::error(v.error());
  // Range-check before the cast: an out-of-range (or NaN) conversion is UB.
  if (!(*v >= std::numeric_limits<int>::min() && *v <= std::numeric_limits<int>::max())) {
    return common::Status::error(scan.describe(key) + ": expected an int");
  }
  dst = static_cast<int>(*v);
  return {};
}

common::Status take_double(const core::json::FieldScanner& scan, const std::string& key,
                           double& dst) {
  if (!scan.has(key)) return {};
  auto v = scan.number(key);
  if (!v) return common::Status::error(v.error());
  dst = *v;
  return {};
}

common::Status take_bool(const core::json::FieldScanner& scan, const std::string& key,
                         bool& dst) {
  if (!scan.has(key)) return {};
  auto v = scan.boolean(key);
  if (!v) return common::Status::error(v.error());
  dst = *v;
  return {};
}

common::Status take_u64(const core::json::FieldScanner& scan, const std::string& key,
                        std::uint64_t& dst) {
  if (!scan.has(key)) return {};
  auto v = scan.number(key);
  if (!v) return common::Status::error(v.error());
  // 2^64 itself is out of range; the negated form also refuses NaN.
  if (!(*v >= 0 && *v < 18446744073709551616.0)) {
    return common::Status::error(scan.describe(key) + ": expected an integer in [0, 2^64)");
  }
  dst = static_cast<std::uint64_t>(*v);
  return {};
}

/// Checksums travel as hex16 strings (JSON numbers lose uint64 precision
/// past 2^53); this reads one back.
common::Status take_hex64(const core::json::FieldScanner& scan, const std::string& key,
                          std::uint64_t& dst) {
  if (!scan.has(key)) return {};
  auto v = scan.text(key);
  if (!v) return common::Status::error(v.error());
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(v->c_str(), &end, 16);
  if (end == v->c_str() || *end != '\0') {
    return common::Status::error(scan.describe(key) + ": expected a hex checksum string");
  }
  dst = value;
  return {};
}

}  // namespace

common::Expected<RunRequest> parse_run_request(const std::string& origin,
                                               const std::string& text) {
  using E = common::Expected<RunRequest>;
  RunRequest req;
  // Every field is optional, so a scanner over a non-object document would
  // "succeed" with all defaults. Require an actual JSON object up front so a
  // garbage body is a typed 400, not a silently-defaulted run.
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) {
    return E::error(origin + ": empty document, expected a JSON object");
  }
  if (text[first] != '{') {
    return E::error(origin + ": expected a JSON object (byte " + std::to_string(first) +
                    ")");
  }
  const core::json::FieldScanner top(origin, text);

#define AIMES_TAKE(expr)                                  \
  do {                                                    \
    if (auto st = (expr); !st.ok()) return E::error(st.error()); \
  } while (0)

  AIMES_TAKE(take_text(top, "name", req.name));
  AIMES_TAKE(take_text(top, "user", req.user));
  AIMES_TAKE(take_text(top, "profile", req.profile));
  AIMES_TAKE(take_text(top, "skeleton_file", req.skeleton_file));
  AIMES_TAKE(take_text(top, "testbed_file", req.testbed_file));
  AIMES_TAKE(take_int(top, "tasks", req.tasks));
  AIMES_TAKE(take_double(top, "warmup_hours", req.warmup_hours));
  AIMES_TAKE(take_u64(top, "seed", req.seed));
  AIMES_TAKE(take_int(top, "trials", req.trials));
  AIMES_TAKE(take_int(top, "jobs", req.jobs));
  AIMES_TAKE(take_double(top, "deadline_s", req.deadline_s));

  if (top.has("strategy")) {
    auto scan = top.object("strategy");
    if (!scan) return E::error(scan.error());
    AIMES_TAKE(take_int(*scan, "experiment", req.strategy.experiment));
    AIMES_TAKE(take_text(*scan, "binding", req.strategy.binding));
    AIMES_TAKE(take_text(*scan, "scheduler", req.strategy.scheduler));
    AIMES_TAKE(take_int(*scan, "pilots", req.strategy.pilots));
    AIMES_TAKE(take_text(*scan, "selection", req.strategy.selection));
  }
  if (top.has("campaign")) {
    auto scan = top.object("campaign");
    if (!scan) return E::error(scan.error());
    AIMES_TAKE(take_int(*scan, "tenants", req.campaign.tenants));
    if (scan->has("arrival")) {
      auto text_value = scan->text("arrival");
      if (!text_value) return E::error(text_value.error());
      if (auto st = parse_arrival_spec(*text_value, req.campaign.arrival); !st.ok()) {
        return E::error(scan->describe("arrival") + ": " + st.error());
      }
    }
    if (scan->has("mode")) {
      auto text_value = scan->text("mode");
      if (!text_value) return E::error(text_value.error());
      if (!parse_campaign_mode(*text_value, req.campaign.mode)) {
        return E::error(scan->describe("mode") + ": expected shared, private, or sequential");
      }
    }
  }
  // Intra-trial sharding is gone, but journals written while it existed
  // carry an all-zero "sharding" object on every submit line. Zeros are
  // accepted and ignored; any other value is refused by name.
  if (top.has("sharding")) {
    auto scan = top.object("sharding");
    if (!scan) return E::error(scan.error());
    for (const char* key : {"shards", "grid_sites", "shard_workers"}) {
      int value = 0;
      AIMES_TAKE(take_int(*scan, key, value));
      if (value != 0) {
        return E::error(scan->describe(key) +
                        ": intra-trial sharding was removed; only 0 is accepted");
      }
    }
  }
  if (top.has("faults")) {
    auto scan = top.object("faults");
    if (!scan) return E::error(scan.error());
    AIMES_TAKE(take_text(*scan, "plan_file", req.faults.plan_file));
    AIMES_TAKE(take_double(*scan, "pilot_failure_rate", req.faults.pilot_failure_rate));
  }
  if (top.has("admission")) {
    auto scan = top.object("admission");
    if (!scan) return E::error(scan.error());
    AIMES_TAKE(take_bool(*scan, "enabled", req.admission.enabled));
    if (scan->has("quota")) {
      auto text_value = scan->text("quota");
      if (!text_value) return E::error(text_value.error());
      if (auto st = parse_quota(*text_value, req.admission.quota); !st.ok()) {
        return E::error(scan->describe("quota") + ": " + st.error());
      }
    }
    AIMES_TAKE(take_text(*scan, "slo", req.admission.slo));
    AIMES_TAKE(take_double(*scan, "max_queue_wait_s", req.admission.max_queue_wait_s));
    AIMES_TAKE(take_bool(*scan, "breaker", req.admission.breaker));
    AIMES_TAKE(take_double(*scan, "breaker_threshold", req.admission.breaker_threshold));
    AIMES_TAKE(take_int(*scan, "breaker_min_events", req.admission.breaker_min_events));
    AIMES_TAKE(take_double(*scan, "breaker_cooldown_s", req.admission.breaker_cooldown_s));
  }
  if (top.has("observability")) {
    auto scan = top.object("observability");
    if (!scan) return E::error(scan.error());
    AIMES_TAKE(take_bool(*scan, "enabled", req.observability.enabled));
    AIMES_TAKE(take_double(*scan, "sample_interval_s", req.observability.sample_interval_s));
    AIMES_TAKE(take_bool(*scan, "artifacts", req.observability.artifacts));
  }
#undef AIMES_TAKE

  if (auto st = validate(req); !st.ok()) return E::error(st.error());
  return req;
}

std::string run_progress_to_json(const RunProgress& p) {
  std::ostringstream out;
  out << "{\"trials_done\": " << p.trials_done << ", \"trials_total\": " << p.trials_total
      << ", \"units_done\": " << p.units_done << ", \"units_failed\": " << p.units_failed
      << ", \"vt_s\": " << fmt(p.vt_seconds) << ", \"checksum\": \"" << hex16(p.checksum)
      << "\", \"tenants_admitted\": " << p.tenants_admitted
      << ", \"tenants_shed\": " << p.tenants_shed
      << ", \"pilots_resubmitted\": " << p.pilots_resubmitted
      << ", \"faults_injected\": " << p.faults_injected << "}";
  return out.str();
}

common::Expected<RunProgress> parse_run_progress(const std::string& origin,
                                                 const std::string& text) {
  using E = common::Expected<RunProgress>;
  RunProgress p;
  const core::json::FieldScanner scan(origin, text);
#define AIMES_TAKE(expr)                                        \
  do {                                                          \
    if (auto st = (expr); !st.ok()) return E::error(st.error()); \
  } while (0)
  AIMES_TAKE(take_int(scan, "trials_done", p.trials_done));
  AIMES_TAKE(take_int(scan, "trials_total", p.trials_total));
  AIMES_TAKE(take_u64(scan, "units_done", p.units_done));
  AIMES_TAKE(take_u64(scan, "units_failed", p.units_failed));
  AIMES_TAKE(take_double(scan, "vt_s", p.vt_seconds));
  AIMES_TAKE(take_hex64(scan, "checksum", p.checksum));
  AIMES_TAKE(take_u64(scan, "tenants_admitted", p.tenants_admitted));
  AIMES_TAKE(take_u64(scan, "tenants_shed", p.tenants_shed));
  AIMES_TAKE(take_u64(scan, "pilots_resubmitted", p.pilots_resubmitted));
  AIMES_TAKE(take_u64(scan, "faults_injected", p.faults_injected));
#undef AIMES_TAKE
  return p;
}

common::Expected<ResolvedRun> resolve(const RunRequest& req) {
  using E = common::Expected<ResolvedRun>;
  if (auto st = validate(req); !st.ok()) return E::error(st.error());

  ResolvedRun run;
  run.is_campaign = req.is_campaign();

  run.tweaks.warmup = common::SimDuration::hours(req.warmup_hours);
  run.tweaks.observability.enabled = req.observability.enabled;
  run.tweaks.observability.sample_interval =
      common::SimDuration::seconds(req.observability.sample_interval_s);
  run.tweaks.obs_artifacts = req.observability.artifacts;
  if (!req.testbed_file.empty()) {
    auto file = common::Config::load(req.testbed_file);
    if (!file) return E::error("testbed: " + file.error());
    auto pool = cluster::parse_testbed(*file);
    if (!pool) return E::error("testbed: " + pool.error());
    run.tweaks.testbed = std::move(*pool);
  }
  if (!req.faults.plan_file.empty()) {
    auto file = common::Config::load(req.faults.plan_file);
    if (!file) return E::error("fault plan: " + file.error());
    auto plan = sim::FaultPlan::parse(*file);
    if (!plan) return E::error("fault plan: " + plan.error());
    run.tweaks.faults.plan = std::move(*plan);
  }
  if (req.faults.pilot_failure_rate > 0.0) {
    auto rates = run.tweaks.faults.plan.rates();
    rates.pilot_launch_failure = req.faults.pilot_failure_rate;
    run.tweaks.faults.plan.with_rates(rates);
  }
  // Any requested fault makes Execution-Manager recovery part of the
  // experiment (the historical aimes-run behavior); campaigns arm their own
  // recovery through spec.recovery below.
  run.tweaks.recovery.enabled = !run.tweaks.faults.empty();

  if (run.is_campaign) {
    CampaignSpec& spec = run.campaign;
    spec.n_tenants = req.campaign.tenants;
    spec.base_tasks = req.tasks;
    spec.gaussian_durations = req.profile == "bag-gaussian";
    spec.n_pilots = req.strategy.pilots;
    spec.arrival = req.campaign.arrival;
    spec.mode = req.campaign.mode;
    spec.admission.policy.enabled = req.admission.enabled;
    if (req.admission.max_queue_wait_s > 0.0) {
      spec.admission.policy.max_queue_wait =
          common::SimDuration::seconds(req.admission.max_queue_wait_s);
    }
    if (req.admission.enabled) {
      core::SloClass slo = core::SloClass::kStandard;
      (void)parse_slo_class(req.admission.slo, slo);  // validated above
      spec.admission.slos = {slo};
      spec.admission.quotas = {req.admission.quota};
    }
    spec.admission.breaker.enabled = req.admission.breaker;
    if (req.admission.breaker_threshold > 0.0) {
      spec.admission.breaker.trip_threshold = req.admission.breaker_threshold;
    }
    if (req.admission.breaker_min_events > 0) {
      spec.admission.breaker.min_events = req.admission.breaker_min_events;
    }
    if (req.admission.breaker_cooldown_s > 0.0) {
      spec.admission.breaker.cooldown =
          common::SimDuration::seconds(req.admission.breaker_cooldown_s);
    }
    // As in single-app mode, any requested fault arms pilot recovery.
    spec.recovery.enabled = !run.tweaks.faults.empty();
    return run;
  }

  if (req.strategy.experiment > 0) {
    run.app = make_app_spec(table1_experiment(req.strategy.experiment), req.tasks);
    if (!req.name.empty()) run.app.label = req.name;
    return run;
  }

  if (!req.skeleton_file.empty()) {
    auto config = common::Config::load(req.skeleton_file);
    if (!config) return E::error("skeleton: " + config.error());
    auto spec = skeleton::parse_spec(*config);
    if (!spec) return E::error("skeleton: " + spec.error());
    run.app.skeleton = std::move(*spec);
  } else if (req.profile == "bag-uniform") {
    run.app.skeleton = skeleton::profiles::bag_uniform(req.tasks);
  } else if (req.profile == "bag-gaussian") {
    run.app.skeleton = skeleton::profiles::bag_gaussian(req.tasks);
  } else if (req.profile == "montage") {
    run.app.skeleton = skeleton::profiles::montage_like(req.tasks);
  } else if (req.profile == "blast") {
    run.app.skeleton = skeleton::profiles::blast_like(req.tasks);
  } else if (req.profile == "cybershake") {
    run.app.skeleton = skeleton::profiles::cybershake_like(req.tasks);
  } else {  // "mapreduce"; validate() rejected everything else
    run.app.skeleton = skeleton::profiles::map_reduce(
        req.tasks, std::max(1, req.tasks / 8), common::DistributionSpec::constant(300),
        common::DistributionSpec::constant(120));
  }
  run.app.planner.binding =
      req.strategy.binding == "early" ? core::Binding::kEarly : core::Binding::kLate;
  if (req.strategy.scheduler == "direct") {
    run.app.planner.scheduler = pilot::UnitSchedulerKind::kDirect;
  } else if (req.strategy.scheduler == "round-robin") {
    run.app.planner.scheduler = pilot::UnitSchedulerKind::kRoundRobin;
  } else if (req.strategy.scheduler == "backfill") {
    run.app.planner.scheduler = pilot::UnitSchedulerKind::kBackfill;
  }  // empty: leave unset, the planner derives it from the binding
  run.app.planner.n_pilots = req.strategy.pilots;
  run.app.planner.selection = req.strategy.selection == "random"
                                  ? core::SiteSelection::kRandom
                                  : core::SiteSelection::kPredictedWait;
  run.app.label = req.display_name();
  return run;
}

RunResult execute(const RunRequest& req, const RunHooks& hooks) {
  RunResult result;
  result.trials_requested = req.trials;
  result.is_campaign = req.is_campaign();

  auto resolved = resolve(req);
  if (!resolved) {
    result.error = resolved.error();
    return result;
  }

  const auto started = std::chrono::steady_clock::now();
  std::mutex first_mutex;

  // Live telemetry: one RunProgress per trial boundary, maintained under
  // first_mutex because trials finish on pool workers. The checksum is a
  // prefix fold — out-of-order finishers park in `pending_*` keyed by trial
  // index until the seed-order predecessor lands — so the final snapshot's
  // checksum equals the cell checksum for a run that completed every trial.
  RunProgress live;
  live.trials_total = req.trials;
  live.checksum = kChecksumSeed;
  int next_fold = 0;
  std::map<int, std::uint64_t> pending_spans;
  std::map<int, CampaignTrialResult> pending_campaign;
  const auto emit = [&] {
    ++result.progress_events;
    result.progress = live;
    if (hooks.progress) hooks.progress(live);
  };
  {
    // Initial snapshot: watchers learn trials_total before any trial lands.
    const std::lock_guard<std::mutex> lock(first_mutex);
    emit();
  }

  if (resolved->is_campaign) {
    const CampaignProgress progress = [&](int t, const CampaignTrialResult& r) {
      {
        const std::lock_guard<std::mutex> lock(first_mutex);
        if (t == 0) {
          result.first_campaign = r;
          result.has_first_campaign = true;
        }
        ++live.trials_done;
        live.units_done += static_cast<std::uint64_t>(r.report.units_done());
        live.vt_seconds = std::max(live.vt_seconds, r.makespan.to_seconds());
        live.pilots_resubmitted +=
            static_cast<std::uint64_t>(r.report.recovery.pilots_resubmitted);
        for (const auto& ten : r.report.tenants) {
          live.units_failed += static_cast<std::uint64_t>(ten.units_failed);
          if (ten.admission == core::AdmissionOutcome::kShed) {
            ++live.tenants_shed;
          } else if (ten.planned) {
            ++live.tenants_admitted;
          }
        }
        CampaignTrialResult trimmed = r;
        trimmed.obs = {};  // the fold never reads obs; don't park artifact buffers
        pending_campaign.emplace(t, std::move(trimmed));
        while (!pending_campaign.empty() && pending_campaign.begin()->first == next_fold) {
          live.checksum = fold_campaign_trial(live.checksum, pending_campaign.begin()->second);
          pending_campaign.erase(pending_campaign.begin());
          ++next_fold;
        }
        emit();
      }
      if (hooks.log) {
        hooks.log("trial " + std::to_string(t + 1) + "/" + std::to_string(req.trials) +
                  ": makespan " + r.makespan.str() +
                  (r.success ? "" : " (INCOMPLETE)"));
      }
    };
    result.campaign = run_campaign_cell(resolved->campaign, req.trials, req.seed,
                                        resolved->tweaks, req.jobs, progress,
                                        hooks.cancelled);
    result.cancelled = result.campaign.cancelled();
    result.trials_completed =
        req.trials - static_cast<int>(result.campaign.trials_skipped);
    result.success = result.trials_completed > 0 &&
                     result.campaign.failures <
                         static_cast<std::size_t>(result.trials_completed);
    result.checksum = result.campaign.checksum;
  } else {
    const TrialProgress progress = [&](int t, const TrialResult& r) {
      {
        const std::lock_guard<std::mutex> lock(first_mutex);
        if (t == 0) {
          result.first_trial = r;
          result.has_first_trial = true;
        }
        ++live.trials_done;
        live.units_done += static_cast<std::uint64_t>(r.report.units_done);
        live.units_failed += static_cast<std::uint64_t>(r.report.units_failed);
        live.vt_seconds = std::max(live.vt_seconds, r.report.ttc.ttc.to_seconds());
        live.pilots_resubmitted +=
            static_cast<std::uint64_t>(r.report.recovery.pilots_resubmitted);
        live.faults_injected += static_cast<std::uint64_t>(r.report.faults.total());
        pending_spans.emplace(t, r.obs.span_checksum);
        while (!pending_spans.empty() && pending_spans.begin()->first == next_fold) {
          live.checksum = fold_trial_span(live.checksum, pending_spans.begin()->second);
          pending_spans.erase(pending_spans.begin());
          ++next_fold;
        }
        emit();
      }
      if (hooks.log) {
        hooks.log("trial " + std::to_string(t + 1) + "/" + std::to_string(req.trials) +
                  ": ttc " + r.report.ttc.ttc.str() +
                  (r.report.success ? "" : " (INCOMPLETE)"));
      }
    };
    result.cell = run_cell(resolved->app, req.trials, req.seed, resolved->tweaks, progress,
                           req.jobs, hooks.cancelled);
    result.cancelled = result.cell.cancelled();
    result.trials_completed = req.trials - static_cast<int>(result.cell.trials_skipped);
    result.success =
        result.trials_completed > 0 &&
        result.cell.failures < static_cast<std::size_t>(result.trials_completed);
    result.checksum = result.cell.span_checksum;
  }

  result.ok = true;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return result;
}

std::string run_result_to_json(const RunResult& result) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"ok\": " << (result.ok ? "true" : "false") << ",\n";
  out << "  \"success\": " << (result.success ? "true" : "false") << ",\n";
  out << "  \"cancelled\": " << (result.cancelled ? "true" : "false") << ",\n";
  out << "  \"error\": \"" << core::json::escape(result.error) << "\",\n";
  out << "  \"kind\": \"" << (result.is_campaign ? "campaign" : "single") << "\",\n";
  out << "  \"trials_requested\": " << result.trials_requested << ",\n";
  out << "  \"trials_completed\": " << result.trials_completed << ",\n";
  // Hex string: JSON numbers lose uint64 precision past 2^53.
  out << "  \"checksum\": \"" << hex16(result.checksum) << "\",\n";
  out << "  \"wall_seconds\": " << fmt(result.wall_seconds) << ",\n";
  out << "  \"progress_events\": " << result.progress_events << ",\n";
  out << "  \"progress\": " << run_progress_to_json(result.progress) << ",\n";
  if (result.is_campaign) {
    const auto& c = result.campaign;
    out << "  \"failures\": " << c.failures << ",\n";
    out << "  \"makespan_mean_s\": " << fmt(c.makespan_s.mean()) << ",\n";
    out << "  \"makespan_stddev_s\": " << fmt(c.makespan_s.stddev()) << ",\n";
    out << "  \"tenant_ttc_mean_s\": " << fmt(c.tenant_ttc_s.mean()) << ",\n";
    out << "  \"tenants_admitted\": " << c.tenants_admitted << ",\n";
    out << "  \"tenants_shed\": " << c.tenants_shed << ",\n";
    out << "  \"slo_violations\": " << c.slo_violations << "\n";
  } else {
    const auto& c = result.cell;
    out << "  \"failures\": " << c.failures << ",\n";
    out << "  \"tasks\": " << c.tasks << ",\n";
    out << "  \"ttc_mean_s\": " << fmt(c.ttc_s.mean()) << ",\n";
    out << "  \"ttc_stddev_s\": " << fmt(c.ttc_s.stddev()) << ",\n";
    out << "  \"tw_mean_s\": " << fmt(c.tw_s.mean()) << ",\n";
    out << "  \"tx_mean_s\": " << fmt(c.tx_s.mean()) << ",\n";
    out << "  \"ts_mean_s\": " << fmt(c.ts_s.mean()) << ",\n";
    out << "  \"events_executed\": " << c.events_executed << "\n";
  }
  out << "}\n";
  return out.str();
}

common::Expected<RunResult> parse_run_result(const std::string& origin,
                                             const std::string& text) {
  using E = common::Expected<RunResult>;
  RunResult result;
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos || text[first] != '{') {
    return E::error(origin + ": expected a JSON object");
  }
  const core::json::FieldScanner top(origin, text);
#define AIMES_TAKE(expr)                                        \
  do {                                                          \
    if (auto st = (expr); !st.ok()) return E::error(st.error()); \
  } while (0)
  AIMES_TAKE(take_bool(top, "ok", result.ok));
  AIMES_TAKE(take_bool(top, "success", result.success));
  AIMES_TAKE(take_bool(top, "cancelled", result.cancelled));
  AIMES_TAKE(take_text(top, "error", result.error));
  std::string kind = "single";
  AIMES_TAKE(take_text(top, "kind", kind));
  result.is_campaign = kind == "campaign";
  AIMES_TAKE(take_int(top, "trials_requested", result.trials_requested));
  AIMES_TAKE(take_int(top, "trials_completed", result.trials_completed));
  AIMES_TAKE(take_hex64(top, "checksum", result.checksum));
  AIMES_TAKE(take_double(top, "wall_seconds", result.wall_seconds));
  AIMES_TAKE(take_int(top, "progress_events", result.progress_events));
#undef AIMES_TAKE
  if (top.has("progress")) {
    auto raw = top.raw_object("progress");
    if (!raw) return E::error(raw.error());
    auto progress = parse_run_progress(origin, *raw);
    if (!progress) return E::error(progress.error());
    result.progress = *progress;
  }
  return result;
}

}  // namespace aimes::exp
