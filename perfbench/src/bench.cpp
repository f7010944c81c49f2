#include "bench.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

bool WitnessBook::check(std::size_t index, std::uint64_t digest) {
  if (!seen_[index]) {
    seen_[index] = true;
    digests_[index] = digest;
    return true;
  }
  return digests_[index] == digest;
}

bool WitnessBook::complete() const {
  return std::all_of(seen_.begin(), seen_.end(), [](bool s) { return s; });
}

std::uint64_t WitnessBook::fold() const {
  Fnv fnv;
  for (const std::uint64_t d : digests_) fnv.mix(d);
  return fnv.value();
}

bool past_slow_host_cap(Clock::time_point started, double seconds, int pass) {
  if (pass == 0 || Clock::now() < started + std::chrono::duration<double>(4.0 * seconds)) {
    return false;
  }
  std::printf("stopped after %d passes: this host runs under a quarter of the reference rate\n",
              pass);
  return true;
}

namespace {
std::string golden_witness(const std::string& repo, const std::string& workload) {
  std::ifstream in(repo + "/perfbench/goldens.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string value;
    if (fields >> name >> value && name == workload) return value;
  }
  return {};
}
}  // namespace

bool settle_witness(const Options& opt, const Outcome& out) {
  const std::string witness = hex16(out.witness);
  std::printf("witness %s seed %" PRIu64 " %s\n", opt.workload.c_str(), opt.seed,
              witness.c_str());
  if (opt.seed != kDefaultSeed) return true;
  const std::string golden = golden_witness(opt.repo, opt.workload);
  if (golden == witness) return true;
  std::printf("witness mismatch: golden %s, measured %s\n",
              golden.empty() ? "(missing)" : golden.c_str(), witness.c_str());
  return false;
}

// Not in an anonymous namespace: the global operator new below reads them.
bool g_count_allocations = false;
thread_local std::uint64_t t_allocations = 0;

std::uint64_t thread_allocations() { return t_allocations; }

// Called once from main() before any thread starts.
void enable_allocation_counting() { g_count_allocations = true; }

int SpanRecorder::begin(std::string name, int parent, std::uint64_t op) {
  Span span;
  span.name = std::move(name);
  span.start_us = std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  span.parent = parent;
  span.op = op;
  span.allocs = thread_allocations();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.dur_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count() - span.start_us;
  span.allocs = thread_allocations() - span.allocs;
}

int SpanRecorder::add(std::string name, Clock::time_point start, Clock::time_point end,
                      int parent, std::uint64_t op) {
  Span span;
  span.name = std::move(name);
  span.start_us = std::chrono::duration<double, std::micro>(start - epoch_).count();
  span.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  span.parent = parent;
  span.op = op;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %" PRIu64
                  ", \"span\": %zu, \"parent\": %d, \"allocs\": %" PRIu64 "}}%s\n",
                  s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
                  s.start_us, s.dur_us, s.op, i, s.parent, s.allocs,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

namespace {
std::string proc_path(int pid, const char* file) {
  return "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) + "/" + file;
}
}  // namespace

double peak_rss_mb(int pid) {
  std::ifstream status(proc_path(pid, "status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

void reset_peak_rss(int pid) {
  std::ofstream clear(proc_path(pid, "clear_refs"));
  clear << "5";
}

std::vector<Metric> end_to_end_metrics(const PassFigures& passes,
                                       const std::vector<double>& setups_s,
                                       const Outcome& out) {
  const double ok = static_cast<double>(out.attempted - out.failed);
  return {
      {"setup_s", median(setups_s)},
      {"throughput_per_s", median(passes.throughput)},
      {"request_ms_p50", median(passes.p50_ms)},
      {"request_ms_p90", median(passes.p90_ms)},
      {"peak_rss_mb", median(passes.rss_mb)},
      {"success_rate", ok / static_cast<double>(out.attempted)},
  };
}

bool is_sim_workload(const std::string& name) {
  return name == "paper_small" || name == "paper_large" || name == "campaign";
}

}  // namespace perfbench

// The benchmark's replacement of the global allocation functions: the same
// malloc/free the default ones use, plus a per-thread count while the
// traced run has counting on. Array, nothrow, and sized forms of the
// standard library forward to these two.
void* operator new(std::size_t size) {
  if (perfbench::g_count_allocations) ++perfbench::t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
