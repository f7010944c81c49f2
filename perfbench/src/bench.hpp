// Shared pieces of aimes-perfbench: command-line options, the result
// document, order statistics, the output witness, and the in-memory span
// recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The seed the goldens in perfbench/goldens.txt were recorded for.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 9;

/// A run is kSetups segments. Each one sets up afresh, which gives one
/// setup_s sample, then runs passes [segment_start(passes, k),
/// segment_start(passes, k + 1)) of the run's `passes`. So the set-up
/// samples fall at different points of the run, as the passes do, and a
/// stretch of load from outside the benchmark moves one sample, not the
/// median. Back to back, five set-ups took under a second and shared one
/// host state: paper_small's setup_s then spread 20-25% between runs.
[[nodiscard]] inline int segment_start(int passes, int segment) {
  return passes * segment / kSetups;
}

/// The next value of a splitmix64 stream: request seeds from --seed.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A run's pass count is fixed by --seconds; this guard only stops a run
/// from starting pass `pass` on a host four times slower than the
/// reference, where it would not end in reasonable time (and says so).
[[nodiscard]] bool past_slow_host_cap(Clock::time_point started, double seconds, int pass);

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  std::string repo = ".";        ///< checkout root (request files, goldens)
  std::string aimesd;            ///< daemon binary from the same build tree
  std::string work_dir;          ///< scratch space inside the checkout
  std::string trace_out;         ///< Chrome trace-event JSON of the traced run
  long perturb_op = -1;          ///< test hook: corrupt this op's output once
};

/// A metric's value; main.cpp's tables give its unit and print order.
struct Metric {
  std::string name;
  double value = 0.0;
};

/// What one workload run reports: the result line's fields plus the
/// witness of its outputs.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a witness disagreed (golden or repeated op) even if every
  /// op succeeded on its own terms.
  bool witness_ok = true;
  std::uint64_t witness = 0;
  std::vector<Metric> metrics;
};

// --- order statistics ---------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// --- witness --------------------------------------------------------------

/// FNV-1a over 64-bit words: the per-op digest and the per-workload fold.
class Fnv {
 public:
  Fnv& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ULL;
    }
    return *this;
  }
  Fnv& mix(const std::string& s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
    return mix(s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

[[nodiscard]] std::string hex16(std::uint64_t v);

/// Per-op output digests of one workload. The first pass records each op's
/// digest; every later execution of the same op must reproduce it. The
/// workload witness folds the recorded digests in op order.
class WitnessBook {
 public:
  explicit WitnessBook(std::size_t ops) : digests_(ops, 0), seen_(ops, false) {}
  /// Returns false when op `index` was seen before with another digest.
  bool check(std::size_t index, std::uint64_t digest);
  [[nodiscard]] bool complete() const;
  [[nodiscard]] std::uint64_t fold() const;

 private:
  std::vector<std::uint64_t> digests_;
  std::vector<bool> seen_;
};

/// Prints the witness and, for the default seed, compares it with the
/// golden in `<repo>/perfbench/goldens.txt` ("workload hex16" lines).
/// Returns false on a mismatch or a missing golden.
bool settle_witness(const Options& opt, const Outcome& out);

// --- traced run -----------------------------------------------------------

/// Heap allocations made by the calling thread since it started, counted
/// by the replacement operator new in bench.cpp once counting is enabled.
[[nodiscard]] std::uint64_t thread_allocations();
void enable_allocation_counting();

/// One timed call into a layer's public function.
struct Span {
  std::string name;
  double start_us = 0.0;  ///< since the recorder's epoch
  double dur_us = 0.0;
  int parent = -1;        ///< index of the enclosing span, -1 for an op root
  std::uint64_t op = 0;   ///< op id shared by every span of one op
  std::uint64_t allocs = 0;
};

/// Spans kept in memory for the whole run and written once at exit.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}
  /// Opens a span; close it with end(). Parents are explicit.
  int begin(std::string name, int parent, std::uint64_t op);
  void end(int index);
  /// Records an already-measured interval (the daemon's caller-A cycles).
  int add(std::string name, Clock::time_point start, Clock::time_point end, int parent,
          std::uint64_t op);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON ("X" complete events), the format Perfetto and
  /// `aimes-run --trace-out` use.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Restricts the calling thread, and the threads and processes it starts
/// afterwards, to the last CPU it may run on. On the reference VM, work
/// handed between threads on different vCPUs waited on the host's scheduling
/// of idle vCPUs, and that set the daemon's pace, unpinned or on three
/// pinned CPUs (perfbench/NOTES.md).
void pin_to_one_cpu();

/// Peak resident set size (VmHWM) of `pid` in MiB since its last reset;
/// 0 when unreadable. pid 0 is this process.
[[nodiscard]] double peak_rss_mb(int pid = 0);
/// Resets the VmHWM mark of `pid` to its current RSS (Linux clear_refs).
void reset_peak_rss(int pid = 0);

/// End-to-end figures of each timed pass. A run reports the median pass,
/// so a burst of load from outside the benchmark moves one pass, not the
/// figure.
struct PassFigures {
  std::vector<double> throughput;  ///< ops / pass wall (1/s)
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
  std::vector<double> rss_mb;  ///< peak RSS samples; the median is reported
};

/// The end-to-end metrics of a run from its passes and set-ups.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const PassFigures& passes,
                                                     const std::vector<double>& setups_s,
                                                     const Outcome& out);

// --- workloads --------------------------------------------------------------

[[nodiscard]] bool is_sim_workload(const std::string& name);
[[nodiscard]] Outcome run_sim_workload(const Options& opt);
[[nodiscard]] Outcome run_daemon_workload(const Options& opt);

}  // namespace perfbench
