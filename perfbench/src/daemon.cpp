// The daemon workload: a real aimesd over TCP loopback, driven by two
// callers beside `aimesd --workers 2`.
//
//  - Caller A is the `aimesc submit --wait` user, a closed loop: POST a
//    quick run, follow its /events stream until the run ends, GET the view.
//    Its cycles are the ops; throughput and request latency come from it,
//    because an open loop's completion rate only repeats its offered rate.
//  - Caller B is the `aimesc list`/`top` user, an open loop at a fixed rate:
//    GET /api/v1/runs over the growing history, each read timed from when
//    it was due so a stall counts against the reads queued behind it.
//
// Each segment of a run (bench.hpp) starts a fresh daemon on a copy of a
// journal holding a seeded history, built in-process before any clock
// starts, so set-up includes a real journal replay as on every restart.
// Every view is checked against an in-process exp::execute of the same
// request.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/json_scan.hpp"
#include "ctl/registry.hpp"
#include "exp/request.hpp"
#include "net/http.hpp"

namespace perfbench {
namespace {

namespace exp = aimes::exp;
namespace net = aimes::net;

/// Runs in the seeded history the daemon replays at start.
constexpr int kHistoryRuns = 2000;
/// Distinct caller-A requests; one pass submits each once.
constexpr std::size_t kRequests = 64;
constexpr std::size_t kWarmupCycles = 4;
/// Caller A's rate on the reference host (4-core x86-64 VM). A run makes
/// --seconds times this many cycles, whatever the clock says: the history
/// caller B lists grows with every cycle, so runs must add the same amount.
constexpr double kCyclesPerSecond = 150.0;
/// Caller B's offered rate (reads per second).
constexpr double kReadsPerSecond = 2.0;
constexpr int kMaxRetries = 20;

/// The digest of a finished single-app run as the view reports it: success,
/// TTC/Tw/Tx/Ts means and the engine event count.
std::uint64_t view_digest(const std::string& origin, const std::string& result_json) {
  const aimes::core::json::FieldScanner result(origin, result_json);
  Fnv fnv;
  const auto flag = result.boolean("success");
  fnv.mix(flag && *flag);
  for (const char* key :
       {"ttc_mean_s", "tw_mean_s", "tx_mean_s", "ts_mean_s", "events_executed"}) {
    const auto v = result.number(key);
    if (!v) return 0;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &*v, sizeof bits);
    fnv.mix(bits);
  }
  return fnv.value();
}

/// aimesd as a child process. The destructor kills and reaps it, so no exit
/// path of aimes-perfbench leaves a daemon behind; PR_SET_PDEATHSIG covers
/// aimes-perfbench itself dying.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() { kill_now(); }

  bool spawn(const std::string& binary, const std::string& journal,
             const std::string& port_file, const std::string& log_file) {
    std::filesystem::remove(port_file);
    // One malloc arena. aimesd starts a thread per connection, and each new
    // thread takes an arena; which one the short-lived connection threads
    // reuse set the high-water mark, which moved 24% between runs with the
    // default arenas. On the one CPU the workload runs on, more arenas buy
    // no parallelism.
    std::vector<std::string> env_text{"MALLOC_ARENA_MAX=1"};
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "MALLOC_ARENA_MAX=", 17) != 0) env_text.emplace_back(*e);
    }
    std::vector<char*> env;
    for (auto& text : env_text) env.push_back(text.data());
    env.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      const char* argv[] = {binary.c_str(), "--port",    "0",
                            "--port-file",  port_file.c_str(), "--workers",
                            "2",            "--journal", journal.c_str(),
                            nullptr};
      ::execve(binary.c_str(), const_cast<char* const*>(argv), env.data());
      ::_exit(127);
    }
    return true;
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Waits for the child to exit on its own (after POST /shutdown), then
  /// kills it if it has not.
  void stop(std::chrono::milliseconds grace) {
    if (pid_ <= 0) return;
    const auto until = Clock::now() + grace;
    while (Clock::now() < until) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    kill_now();
  }

  void kill_now() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Sum and count of one Prometheus histogram in a /metrics body.
struct Histogram {
  double sum = 0.0;
  double count = 0.0;
};

Histogram scrape_histogram(const std::string& body, const std::string& family) {
  Histogram h;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(family + "_sum ", 0) == 0) {
      h.sum = std::strtod(line.c_str() + family.size() + 5, nullptr);
    }
    if (line.rfind(family + "_count ", 0) == 0) {
      h.count = std::strtod(line.c_str() + family.size() + 7, nullptr);
    }
  }
  return h;
}

/// Adds what `family` gained between two /metrics scrapes of one daemon.
void add_delta(Histogram& total, const std::string& before, const std::string& after,
               const std::string& family) {
  const Histogram b = scrape_histogram(before, family);
  const Histogram a = scrape_histogram(after, family);
  total.sum += a.sum - b.sum;
  total.count += a.count - b.count;
}

double mean_ms(const Histogram& h) { return h.count > 0.0 ? 1000.0 * h.sum / h.count : 0.0; }

/// Thread-safe tallies shared by both callers.
struct Tally {
  std::atomic<std::uint64_t> rejected{0};  ///< 429/503 replies
  std::atomic<std::uint64_t> retries{0};
};

/// One HTTP exchange with bounded retries on refusals and transport errors.
aimes::common::Expected<net::HttpResponse> call(const net::Endpoint& endpoint,
                                                const net::HttpRequest& request,
                                                Tally& tally) {
  std::string last_error;
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    if (attempt > 0) {
      tally.retries.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(std::min(2 << attempt, 200)));
    }
    auto response = net::http_call(endpoint, request, 2000);
    if (!response) {
      last_error = response.error();
      continue;
    }
    if (response->status == 429 || response->status == 503) {
      tally.rejected.fetch_add(1);
      last_error = "status " + std::to_string(response->status);
      continue;
    }
    return response;
  }
  return aimes::common::Expected<net::HttpResponse>::error(last_error);
}

/// Caller A's record of one cycle.
struct Cycle {
  Clock::time_point start;
  Clock::time_point submitted;
  Clock::time_point followed;
  Clock::time_point end;
  double resolve_ms = 0.0;  ///< traced cycles: in-process validate + resolve
};

class Harness {
 public:
  Harness(const Options& opt, std::vector<exp::RunRequest> requests,
          std::vector<std::uint64_t> expected)
      : opt_(opt), requests_(std::move(requests)), expected_(std::move(expected)) {}

  /// One caller-A cycle for request `index`. Fills `cycle`; returns false
  /// with a reason on any failure.
  bool cycle(std::size_t index, std::uint64_t key, bool traced, Cycle& c, std::string& why) {
    c.start = Clock::now();
    const exp::RunRequest& req = requests_[index];
    if (traced) {
      const auto r0 = Clock::now();
      const bool resolved = exp::resolve(req).ok();
      c.resolve_ms = ms_between(r0, Clock::now());
      if (!resolved) {
        why = "request does not resolve";
        return false;
      }
    }
    net::HttpRequest submit;
    submit.method = "POST";
    submit.target = "/api/v1/runs";
    submit.body = exp::run_request_to_json(req);
    // Retried submits must land once: the daemon dedups on this key.
    submit.headers["Idempotency-Key"] = hex16(opt_.seed) + hex16(key);
    auto accepted = call(endpoint_, submit, tally_);
    if (!accepted || accepted->status != 202) {
      why = accepted ? "submit status " + std::to_string(accepted->status) : accepted.error();
      return false;
    }
    const aimes::core::json::FieldScanner reply("submit reply", accepted->body);
    const auto id = reply.number("id");
    if (!id) {
      why = id.error();
      return false;
    }
    const std::string run = "/api/v1/runs/" + std::to_string(static_cast<std::uint64_t>(*id));
    c.submitted = Clock::now();

    net::HttpRequest follow;
    follow.method = "GET";
    follow.target = run + "/events";
    // The stream ends once the run is terminal; the view below says how.
    auto streamed = net::http_stream(
        endpoint_, follow, [](std::string_view) { return true; }, 30000, 2000);
    if (!streamed || streamed->status != 200) {
      why = streamed ? "events status " + std::to_string(streamed->status) : streamed.error();
      return false;
    }
    c.followed = Clock::now();

    net::HttpRequest view;
    view.method = "GET";
    view.target = run;
    auto viewed = call(endpoint_, view, tally_);
    c.end = Clock::now();
    if (!viewed || viewed->status != 200) {
      why = viewed ? "view status " + std::to_string(viewed->status) : viewed.error();
      return false;
    }
    const aimes::core::json::FieldScanner record("view", viewed->body);
    const auto state = record.text("state");
    if (!state || *state != "done") {
      why = "terminal state " + (state ? *state : state.error());
      return false;
    }
    const auto result = record.raw_object("result");
    if (!result || view_digest("view", *result) != expected_[index]) {
      why = "view differs from in-process exp::execute";
      return false;
    }
    return true;
  }

  /// One caller-B read; returns false on an HTTP failure.
  bool read_runs() {
    net::HttpRequest list;
    list.method = "GET";
    list.target = "/api/v1/runs";
    auto listed = call(endpoint_, list, tally_);
    return listed && listed->status == 200 && listed->body.rfind("{\"runs\": [", 0) == 0;
  }

  /// Queue depth from /api/v1/health; -1 on failure.
  double backlog() {
    net::HttpRequest health;
    health.method = "GET";
    health.target = "/api/v1/health";
    auto reply = call(endpoint_, health, tally_);
    if (!reply || reply->status != 200) return -1.0;
    const auto queued = aimes::core::json::FieldScanner("health", reply->body).number("queued");
    return queued ? *queued : -1.0;
  }

  bool healthy() {
    net::HttpRequest health;
    health.method = "GET";
    health.target = "/api/v1/health";
    auto reply = net::http_call(endpoint_, health, 200);
    return reply && reply->status == 200;
  }

  std::string metrics() {
    net::HttpRequest scrape;
    scrape.method = "GET";
    scrape.target = "/metrics";
    auto reply = call(endpoint_, scrape, tally_);
    return reply && reply->status == 200 ? reply->body : std::string();
  }

  void shutdown() {
    net::HttpRequest stop;
    stop.method = "POST";
    stop.target = "/api/v1/shutdown";
    (void)net::http_call(endpoint_, stop, 500);
  }

  void set_port(std::uint16_t port) { endpoint_ = net::Endpoint::tcp(port); }
  [[nodiscard]] std::size_t requests() const { return requests_.size(); }
  Tally& tally() { return tally_; }

 private:
  const Options& opt_;
  std::vector<exp::RunRequest> requests_;
  std::vector<std::uint64_t> expected_;
  net::Endpoint endpoint_;
  Tally tally_;
};

/// Caller A's request: the quick single-app run of `aimesc submit --quick`.
exp::RunRequest quick_request(std::uint64_t seed, int tasks, double warmup_h, int pilots) {
  exp::RunRequest req;
  req.profile = "bag-gaussian";
  req.tasks = tasks;
  req.warmup_hours = warmup_h;
  req.strategy.pilots = pilots;
  req.trials = 1;
  req.jobs = 1;
  req.seed = seed;
  return req;
}

/// Writes the seeded history: kHistoryRuns small runs through an in-process
/// registry (the daemon's own journaling code). Returns false on failure.
bool build_history(const std::string& path, std::uint64_t seed) {
  std::filesystem::remove(path);
  aimes::ctl::Registry::Options options;
  options.workers = 4;
  options.journal_file = path;
  aimes::ctl::Registry registry(options);
  if (!registry.journal_status().ok()) return false;
  std::uint64_t state = seed ^ 0x6869737479ULL;
  for (int i = 0; i < kHistoryRuns; ++i) {
    auto req = quick_request(splitmix64(state) % 1000000000ULL, 4 + i % 5, 0.25, 1);
    if (!registry.submit(std::move(req), "history").accepted) return false;
  }
  const auto until = Clock::now() + std::chrono::seconds(120);
  while (Clock::now() < until) {
    const auto c = registry.counters();
    if (c.completed + c.failed + c.cancelled >= static_cast<std::uint64_t>(kHistoryRuns)) {
      return c.completed == static_cast<std::uint64_t>(kHistoryRuns);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

std::uint16_t read_port(const std::string& port_file) {
  std::ifstream in(port_file);
  long port = 0;
  if (!(in >> port) || port <= 0 || port > 65535) return 0;
  return static_cast<std::uint16_t>(port);
}

}  // namespace

Outcome run_daemon_workload(const Options& opt) {
  Outcome out;
  std::filesystem::create_directories(opt.work_dir);
  const std::string history = opt.work_dir + "/history.jsonl";
  const std::string journal = opt.work_dir + "/journal.jsonl";
  const std::string port_file = opt.work_dir + "/aimesd.port";

  // Inputs and references, before any clock starts: caller A's requests,
  // the in-process witness of each, and the seeded history journal.
  std::uint64_t state = opt.seed ^ Fnv().mix(std::string("daemon")).value();
  std::vector<exp::RunRequest> requests;
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests.push_back(quick_request(splitmix64(state) % 1000000000ULL, 16, 1.0, 2));
    const exp::RunResult r = exp::execute(requests.back());
    expected.push_back(r.ok ? view_digest("exp::execute", exp::run_result_to_json(r)) : 0);
    if (expected.back() == 0) {
      std::printf("reference run %zu failed in-process\n", i);
      return out;
    }
  }
  if (!build_history(history, opt.seed)) {
    std::fprintf(stderr, "aimes-perfbench: could not build the history journal\n");
    return out;
  }
  const double history_bytes = static_cast<double>(std::filesystem::file_size(history));

  // Everything from here on, aimesd included, shares one CPU, so the figures
  // are single-CPU figures: they cannot show a change in how the workers run
  // in parallel. On three CPUs, cross-vCPU wake-ups on the reference VM set
  // the pace instead of the control plane's own work (perfbench/NOTES.md).
  pin_to_one_cpu();
  Harness harness(opt, requests, expected);
  std::vector<double> setups;
  std::vector<double> replays;
  std::uint64_t key = 0;
  std::mutex mu;  // guards caller B's tallies below
  PassFigures figures;  // caller A's untraced passes
  std::vector<double> reads;
  std::vector<double> lags;
  std::vector<Cycle> traced;
  double backlog_max = 0.0;
  std::uint64_t read_failures = 0;
  std::vector<double> traced_tputs;
  Histogram queue_wait;  // /metrics gains over every segment's passes
  Histogram run_time;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Caller A makes a fixed number of whole passes over the request list,
  // split over the segments; the traced run alternates untraced and traced
  // passes.
  const int passes = std::max(
      2, static_cast<int>(std::lround(opt.seconds * kCyclesPerSecond / kRequests)));
  Clock::time_point started;
  bool stopped = false;

  for (int k = 0; k < kSetups; ++k) {
    // Set-up: a fresh aimesd on a copy of the seeded history, from spawn
    // through journal replay to the first health 200, then warm-up cycles.
    DaemonProcess daemon;
    std::filesystem::copy_file(history, journal,
                               std::filesystem::copy_options::overwrite_existing);
    const auto t0 = Clock::now();
    if (!daemon.spawn(opt.aimesd, journal, port_file,
                      opt.work_dir + "/aimesd-" + std::to_string(k) + ".log")) {
      return out;
    }
    const auto give_up = t0 + std::chrono::seconds(30);
    std::uint16_t port = 0;
    while (Clock::now() < give_up && (port = read_port(port_file)) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    harness.set_port(port);
    bool up = false;
    while (port != 0 && Clock::now() < give_up && !(up = harness.healthy())) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (!up) {
      std::fprintf(stderr, "aimesd did not become healthy; see %s/aimesd-%d.log\n",
                   opt.work_dir.c_str(), k);
      return out;
    }
    replays.push_back(ms_between(t0, Clock::now()));
    for (std::size_t i = 0; i < kWarmupCycles; ++i) {
      Cycle c;
      std::string why;
      if (!harness.cycle(i, key++, false, c, why) || !harness.read_runs()) {
        std::printf("warm-up cycle %zu failed: %s\n", i, why.c_str());
        out.witness_ok = false;
      }
    }
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (k == 0) started = Clock::now();
    const std::string metrics_before = harness.metrics();

    // Caller B: an open loop at kReadsPerSecond until caller A finishes.
    std::atomic<bool> a_done{false};
    std::jthread reader([&] {
      const auto period = std::chrono::duration<double>(1.0 / kReadsPerSecond);
      const auto begin = Clock::now();
      for (std::uint64_t n = 0; !a_done.load(); ++n) {
        const auto due = begin + std::chrono::duration_cast<Clock::duration>(period * n);
        std::this_thread::sleep_until(due);
        if (a_done.load()) break;
        const double lag = ms_between(due, Clock::now());
        const bool ok = harness.read_runs();
        const double ms = ms_between(due, Clock::now());
        const double queued = opt.trace ? harness.backlog() : 0.0;
        const std::lock_guard<std::mutex> lock(mu);
        lags.push_back(lag);
        reads.push_back(ms);
        if (!ok) ++read_failures;
        backlog_max = std::max(backlog_max, queued);
      }
    });

    for (int p = segment_start(passes, k); p < segment_start(passes, k + 1) && !stopped; ++p) {
      stopped = past_slow_host_cap(started, opt.seconds, p);
      if (stopped) break;
      const bool traced_pass = opt.trace && p % 2 == 1;
      std::vector<double> latencies;
      const auto t1 = Clock::now();
      for (std::size_t i = 0; i < harness.requests(); ++i) {
        Cycle c;
        std::string why;
        ++attempted;
        if (!harness.cycle(i, key++, traced_pass, c, why)) {
          ++failed;
          std::printf("cycle %zu failed: %s\n", i, why.c_str());
          continue;
        }
        latencies.push_back(ms_between(c.start, c.end));
        if (traced_pass) traced.push_back(c);
      }
      const double tput = static_cast<double>(harness.requests()) /
                          std::chrono::duration<double>(Clock::now() - t1).count();
      if (traced_pass) {
        traced_tputs.push_back(tput);
        continue;
      }
      figures.throughput.push_back(tput);
      figures.p50_ms.push_back(quantile(latencies, 0.5));
      figures.p90_ms.push_back(quantile(latencies, 0.9));
    }
    a_done.store(true);
    reader.join();

    const std::string metrics_after = harness.metrics();
    add_delta(queue_wait, metrics_before, metrics_after, "aimes_ctl_run_queue_wait_seconds");
    add_delta(run_time, metrics_before, metrics_after, "aimes_ctl_run_duration_seconds");
    // This daemon's high-water mark over its set-up and passes.
    figures.rss_mb.push_back(peak_rss_mb(daemon.pid()));
    harness.shutdown();
    daemon.stop(std::chrono::seconds(10));
  }

  out.attempted = attempted + reads.size();
  out.failed = failed + read_failures;
  Fnv witness;
  for (const std::uint64_t d : expected) witness.mix(d);
  out.witness = witness.value();
  const double untraced_tput = median(figures.throughput);
  if (!opt.trace) {
    out.metrics = end_to_end_metrics(figures, setups, out);
    return out;
  }

  SpanRecorder rec;
  std::vector<double> submit_ms;
  std::vector<double> follow_ms;
  std::vector<double> view_ms;
  std::vector<double> resolve_ms;
  std::vector<double> cycle_ms;
  std::uint64_t op = 0;
  for (const Cycle& c : traced) {
    const int root = rec.add("net.cycle", c.start, c.end, -1, op);
    rec.add("net.submit", c.start, c.submitted, root, op);
    rec.add("net.follow", c.submitted, c.followed, root, op);
    rec.add("net.view", c.followed, c.end, root, op);
    ++op;
    submit_ms.push_back(ms_between(c.start, c.submitted));
    follow_ms.push_back(ms_between(c.submitted, c.followed));
    view_ms.push_back(ms_between(c.followed, c.end));
    resolve_ms.push_back(c.resolve_ms);
    cycle_ms.push_back(ms_between(c.start, c.end));
  }
  const double wait_ms = mean_ms(queue_wait);
  const double run = mean_ms(run_time);
  double follow_mean = 0.0;
  double cycle_mean = 0.0;
  for (std::size_t i = 0; i < follow_ms.size(); ++i) {
    follow_mean += follow_ms[i] / static_cast<double>(follow_ms.size());
    cycle_mean += cycle_ms[i] / static_cast<double>(cycle_ms.size());
  }
  const double traced_tput = median(traced_tputs);
  out.metrics = {
      {"exp.resolve_ms", median(resolve_ms)},
      {"bench.op_ms", median(cycle_ms)},
      {"net.submit_ms", median(submit_ms)},
      {"net.follow_ms", median(follow_ms)},
      {"net.view_ms", median(view_ms)},
      {"ctl.queue_wait_ms", wait_ms},
      {"ctl.run_ms", run},
      {"ctl.notify_ms", follow_mean - wait_ms - run},
      {"ctl.replay_ms", median(replays)},
      {"ctl.journal_bytes_per_run", history_bytes / kHistoryRuns},
      {"ctl.backlog_max", backlog_max},
      {"ctl.rejected", static_cast<double>(harness.tally().rejected.load())},
      {"net.retries", static_cast<double>(harness.tally().retries.load())},
      {"net.read_ms_p50", median(reads)},
      {"net.reader_lag_ms", quantile(lags, 0.9)},
      {"ctl.plane_share_pct", cycle_mean > 0.0 ? 100.0 * (1.0 - run / cycle_mean) : 0.0},
      {"bench.trace_overhead_pct", 100.0 * (untraced_tput - traced_tput) / untraced_tput},
  };
  std::printf("layer net.submit %.1f%%, net.follow %.1f%% (ctl.queue_wait %.1f%%, ctl.run "
              "%.1f%%), net.view %.1f%% of a caller-A cycle\n",
              100.0 * median(submit_ms) / median(cycle_ms),
              100.0 * median(follow_ms) / median(cycle_ms), 100.0 * wait_ms / cycle_mean,
              100.0 * run / cycle_mean, 100.0 * median(view_ms) / median(cycle_ms));
  if (!opt.trace_out.empty() && rec.write_chrome_trace(opt.trace_out)) {
    std::printf("trace %s (%zu spans)\n", opt.trace_out.c_str(), rec.spans().size());
  }
  return out;
}

}  // namespace perfbench
