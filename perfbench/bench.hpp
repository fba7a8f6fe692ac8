// Shared declarations of the repository benchmark (perfbench/README.md).
//
// The binary runs one workload per invocation:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and prints, as its last stdout line, one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer ledger with --trace 1. The line before it is the
// run's identity record (machine, workers, seed, sample counts).
#pragma once

#include <pthread.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "service/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using shufflebound::JsonValue;

/// Engine workers and closed-loop concurrency shared by every workload.
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kOutstanding = 2;
/// Set-up is measured this many times per run; the median is reported.
inline constexpr int kSetupReps = 101;
/// The latency samples of the request-serving workloads are cut, in the
/// order taken, into this many equal segments; the report gives the median
/// over segments of each one's p50 and tail, so a stretch of host
/// contention covering up to two fifths of a run does not set them.
inline constexpr std::size_t kLatencySegments = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds of every thread of this process so far, exited ones too.
double process_cpu_seconds();
/// CPU seconds of `thread` so far.
double thread_cpu_seconds(pthread_t thread);
/// Resets the process's peak resident set to its current one (after the
/// benchmark built its inputs), so peak_rss_mb() sees the program's memory,
/// not the corpus generator's high-water mark.
void reset_peak_rss();
/// Peak resident set of this process since the last reset_peak_rss(), MiB.
double peak_rss_mb();

double median(std::vector<double> values);

/// The tail the benchmark reports: the highest percentile that still has at
/// least ten samples beyond it (the maximum of the remaining ones).
struct Tail {
  double value = 0;
  double percentile = 0;
};
Tail tail_of(std::vector<double> values);

/// One named metric of the final line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // wrong, missing, failed or overloaded answers
  std::vector<Metric> metrics;
  JsonValue identity = JsonValue::object();  // merged into the report line
  std::vector<std::string> problems;         // first few mismatches, for stderr
};

JsonValue json_array(const std::vector<double>& values);

/// Records a wrong answer: counts it and keeps the first few descriptions.
void note_problem(Outcome& out, std::string what);

// ---------------------------------------------------------- workloads --

Outcome run_prove_wide(const Args& args);
Outcome run_certify_enum(const Args& args);
Outcome run_search_optimal(const Args& args);
Outcome run_serve_mix(const Args& args);

/// The machine block of the report (selected kernel ISA, lane width,
/// available ISAs, hardware concurrency).
JsonValue cpu_identity();

/// The end-to-end block every workload reports (--trace 0).
struct EndToEnd {
  std::uint64_t completed = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> latency_ms;  // in completion order
  /// Consecutive equal slices of latency_ms summarized on their own (1 =
  /// the whole run, for search-optimal, whose searches differ by design).
  std::size_t latency_segments = 1;
  std::vector<double> setup_s;
  /// Peak RSS once a fixed number of operations is done: equal work is
  /// compared at any throughput (the result cache grows with every miss).
  double rss_mb = 0;
  /// Per-window throughput and CPU per operation (WindowMeter); when
  /// present the report gives their medians instead of whole-run ratios.
  std::vector<double> window_ops_per_s;
  std::vector<double> window_cpu_ms_per_op;
};

/// Splits a measured run into windows of a fixed number of operations - a
/// whole number of the workload's request cycles, so every window carries
/// the same mix - and keeps each window's throughput and CPU per
/// operation. The report takes their medians, which a transient stall on
/// a shared host moves far less than a whole-run mean.
class WindowMeter {
 public:
  WindowMeter(std::uint64_t window_ops, Clock::time_point start, double cpu_start)
      : window_ops_(window_ops), start_(start), cpu_start_(cpu_start) {}

  /// Call with the running totals (operations done, CPU seconds spent by
  /// the system; negative when not measured here) whenever an operation
  /// completes.
  void observe(Clock::time_point now, std::uint64_t ops, double cpu_s) {
    if (ops < ops_start_ + window_ops_) return;
    const auto n = static_cast<double>(ops - ops_start_);
    ops_per_s_.push_back(n / seconds_between(start_, now));
    if (cpu_s >= 0) cpu_ms_per_op_.push_back((cpu_s - cpu_start_) * 1e3 / n);
    start_ = now;
    ops_start_ = ops;
    cpu_start_ = cpu_s;
  }

  void finish(EndToEnd& e2e) const {
    e2e.window_ops_per_s = ops_per_s_;
    e2e.window_cpu_ms_per_op = cpu_ms_per_op_;
  }

 private:
  std::uint64_t window_ops_;
  Clock::time_point start_;
  double cpu_start_;
  std::uint64_t ops_start_ = 0;
  std::vector<double> ops_per_s_;
  std::vector<double> cpu_ms_per_op_;
};
void add_end_to_end(Outcome& out, const EndToEnd& e2e);

}  // namespace perfbench
