// The four workloads: set-up timing, the measured closed loop, the answer
// check, and (--trace 1) the per-layer ledger. See perfbench/README.md for
// why each workload exists and which layer each metric should move.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "harness.hpp"
#include "ledger.hpp"
#include "sim/isa.hpp"

namespace perfbench {

using namespace shufflebound;

namespace {

double cpu_clock_seconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_seconds() { return cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds(pthread_t thread) {
  clockid_t clock{};
  if (::pthread_getcpuclockid(thread, &clock) != 0)
    throw std::runtime_error("cannot read a thread's CPU clock");
  return cpu_clock_seconds(clock);
}

void reset_peak_rss() {
  ::malloc_trim(0);  // hand freed corpus-building memory back first
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets the VmHWM high-water mark to the current RSS
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS through /proc/self/clear_refs");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

Tail tail_of(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // With fewer than eleven samples no percentile has ten beyond it; the
  // maximum is reported and the percentile says so.
  const std::size_t index = n > 10 ? n - 11 : n - 1;
  return {values[index], 100.0 * static_cast<double>(index + 1) / static_cast<double>(n)};
}

JsonValue json_array(const std::vector<double>& values) {
  JsonValue::Array items(values.begin(), values.end());
  return JsonValue(std::move(items));
}

void note_problem(Outcome& out, std::string what) {
  ++out.failed;
  if (out.problems.size() < 8) out.problems.push_back(std::move(what));
}

namespace {

/// The p50 and tail of each of `segments` consecutive equal slices of the
/// samples (the last one takes the remainder), and the median of each.
struct SegmentedLatency {
  double p50 = 0;
  Tail tail;
  std::size_t per_segment = 0;
};

SegmentedLatency segmented_latency(const std::vector<double>& samples, std::size_t segments) {
  SegmentedLatency out;
  if (samples.empty()) return out;
  segments = std::clamp<std::size_t>(segments, 1, samples.size());
  out.per_segment = samples.size() / segments;
  std::vector<double> p50s;
  std::vector<double> tails;
  std::vector<double> percentiles;
  for (std::size_t s = 0; s < segments; ++s) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(s * out.per_segment);
    const auto last = s + 1 == segments ? samples.end()
                                        : first + static_cast<std::ptrdiff_t>(out.per_segment);
    std::vector<double> slice(first, last);
    p50s.push_back(median(slice));
    const Tail tail = tail_of(std::move(slice));
    tails.push_back(tail.value);
    percentiles.push_back(tail.percentile);
  }
  out.p50 = median(std::move(p50s));
  out.tail = {median(std::move(tails)), median(std::move(percentiles))};
  return out;
}

}  // namespace

void add_end_to_end(Outcome& out, const EndToEnd& e2e) {
  const double ops = static_cast<double>(e2e.completed);
  const SegmentedLatency latency = segmented_latency(e2e.latency_ms, e2e.latency_segments);
  const double ops_per_s = !e2e.window_ops_per_s.empty() ? median(e2e.window_ops_per_s)
                           : e2e.wall_s > 0                ? ops / e2e.wall_s
                                                           : 0;
  const double cpu_ms_per_op = !e2e.window_cpu_ms_per_op.empty()
                                   ? median(e2e.window_cpu_ms_per_op)
                               : ops > 0 ? e2e.cpu_s * 1e3 / ops
                                         : 0;
  out.metrics.push_back({"ops_per_s", ops_per_s, "1/s"});
  out.metrics.push_back({"latency_p50_ms", latency.p50, "ms"});
  out.metrics.push_back({"latency_tail_ms", latency.tail.value, "ms"});
  out.metrics.push_back({"cpu_ms_per_op", cpu_ms_per_op, "ms"});
  out.metrics.push_back({"peak_rss_mb", e2e.rss_mb, "MiB"});
  out.metrics.push_back({"setup_s", median(e2e.setup_s), "s"});

  JsonValue samples = JsonValue::object();
  samples.set("latency_samples", static_cast<std::uint64_t>(e2e.latency_ms.size()));
  samples.set("latency_segments", static_cast<std::uint64_t>(e2e.latency_segments));
  samples.set("samples_per_segment", static_cast<std::uint64_t>(latency.per_segment));
  samples.set("tail_percentile", latency.tail.percentile);
  if (!e2e.latency_ms.empty()) {
    std::vector<double> sorted = e2e.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0;
    for (const double v : sorted) sum += v;
    samples.set("latency_mean_ms", sum / static_cast<double>(sorted.size()));
    samples.set("latency_p90_ms", sorted[sorted.size() * 9 / 10]);
    samples.set("latency_p99_ms", sorted[sorted.size() * 99 / 100]);
  }
  samples.set("setup_samples", static_cast<std::uint64_t>(e2e.setup_s.size()));
  samples.set("wall_s", e2e.wall_s);
  samples.set("window_ops_per_s", json_array(e2e.window_ops_per_s));
  out.identity.set("samples", std::move(samples));
}

namespace {

void set_workers(Outcome& out, const char* what) {
  JsonValue workers = JsonValue::object();
  workers.set(what, static_cast<std::uint64_t>(kWorkers));
  workers.set("outstanding", static_cast<std::uint64_t>(kOutstanding));
  out.identity.set("workers", std::move(workers));
}

Outcome run_engine_workload(const Args& args,
                            std::unique_ptr<Stream> (*make)(std::uint64_t, double),
                            std::uint64_t rss_after_ops) {
  Outcome out;
  set_workers(out, "engine");
  const auto make_stream = [&](double seconds) { return make(args.seed, seconds); };
  if (args.trace) {
    trace_engine_workload(args, make_stream, out);
    return out;
  }
  auto stream = make_stream(args.seconds);
  // Set-up is measured before the loop, on a heap the run has not churned.
  const std::vector<double> setup = engine_setup_times();
  EngineRun run = run_engine_loop(*stream, args.seconds, rss_after_ops);
  run.e2e.setup_s = setup;
  check_engine_run(run, out);
  add_end_to_end(out, run.e2e);
  return out;
}

}  // namespace

Outcome run_prove_wide(const Args& args) {
  return run_engine_workload(args, &prove_wide_stream, 300);
}

Outcome run_certify_enum(const Args& args) {
  return run_engine_workload(args, &certify_enum_stream, 200);
}

Outcome run_search_optimal(const Args& args) {
  Outcome out;
  set_workers(out, "search_pool");
  if (args.trace) {
    trace_search_optimal(args, out);
    return out;
  }
  const std::vector<double> setup = pool_setup_times();
  SearchRun run = run_search_loop(args.seed, args.seconds);
  run.e2e.setup_s = setup;
  check_search_run(run, out);
  add_end_to_end(out, run.e2e);
  return out;
}

Outcome run_serve_mix(const Args& args) {
  Outcome out;
  set_workers(out, "server_engine");
  const std::string scratch = make_scratch_dir("serve-mix");
  try {
    if (args.trace) {
      trace_serve_mix(args, scratch, out);
    } else {
      const std::vector<double> setup = server_setup_times(scratch);
      ServeRun run = run_serve_loop(args.seed, args.seconds, scratch + "/run");
      run.e2e.setup_s = setup;
      out.attempted += run.attempted;
      for (std::uint64_t i = 0; i < run.failed; ++i)
        note_problem(out, i < run.problems.size() ? run.problems[i] : "serve-mix answer");
      add_end_to_end(out, run.e2e);
    }
  } catch (...) {
    remove_tree(scratch);
    throw;
  }
  remove_tree(scratch);
  return out;
}

/// The machine block of the report: the same fields bench/bench_util.hpp
/// writes into every BENCH_*.json ("cpu").
JsonValue cpu_identity() {
  JsonValue cpu = JsonValue::object();
  const simd::KernelDispatch& kernel = simd::active_kernel();
  cpu.set("isa", kernel.name);
  cpu.set("lane_bits", static_cast<std::uint64_t>(kernel.lane_bits));
  JsonValue available = JsonValue::array();
  for (const simd::Isa isa : simd::available_isas()) available.push_back(simd::isa_name(isa));
  cpu.set("available", available);
  cpu.set("hardware_concurrency", std::thread::hardware_concurrency());
  return cpu;
}

}  // namespace perfbench
