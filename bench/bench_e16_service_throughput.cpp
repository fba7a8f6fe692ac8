// E16 - analysis job engine throughput (infrastructure experiment).
//
// The batch service (src/service/) exists so that the paper's experiment
// sweeps - thousands of refute/certify/count-sorted jobs over families of
// random shuffle networks - run as one job stream instead of one process
// per network. This experiment measures what the engine adds: jobs/sec on
// a 1000-job mixed stream over ~40 distinct n = 16 networks (duplicates
// common, as in a sweep), cold cache vs warm cache, at 1..4 workers. The
// result lines are identical in every configuration (the engine's
// determinism contract); only the throughput moves.
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/io.hpp"
#include "networks/shuffle.hpp"
#include "obs/obs.hpp"
#include "service/engine.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

constexpr std::size_t kNetworks = 40;
constexpr std::size_t kJobs = 1000;

std::vector<std::string> make_network_texts() {
  Prng rng(1616);
  std::vector<std::string> texts;
  texts.reserve(kNetworks);
  for (std::size_t i = 0; i < kNetworks; ++i) {
    const std::size_t depth = 4 + i % 5;
    texts.push_back(to_text(random_shuffle_network(16, depth, rng)));
  }
  return texts;
}

std::vector<JobSpec> make_job_stream(const std::vector<std::string>& texts,
                                     std::size_t count = kJobs) {
  Prng rng(1617);
  std::vector<JobSpec> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    JobSpec spec;
    spec.id = "job-" + std::to_string(i);
    spec.network_text = texts[rng.below(texts.size())];
    // Sweep-shaped mix: mostly Monte-Carlo estimation, some certification
    // and refutation, occasional info. The compute-heavy majority is what
    // the cache amortizes; refutes stay a minority because their cached
    // payloads are re-validated (replayed) on every hit by design.
    switch (rng.below(8)) {
      case 0: spec.kind = JobKind::Info; break;
      case 1: spec.kind = JobKind::Certify; break;
      case 2: spec.kind = JobKind::Refute; break;
      default:
        spec.kind = JobKind::CountSorted;
        spec.trials = 16384;
        spec.seed = 16;
        break;
    }
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

struct StreamStats {
  double seconds = 0;
  std::uint64_t cache_hits = 0;
  std::size_t results = 0;
};

StreamStats run_stream(const std::vector<JobSpec>& jobs, std::size_t workers,
                       std::shared_ptr<ResultCache> cache) {
  EngineConfig config;
  config.workers = workers;
  config.queue_capacity = 64;
  config.cache = std::move(cache);
  StreamStats stats;
  const auto start = std::chrono::steady_clock::now();
  {
    AnalysisEngine engine(config,
                          [&](const JobResult&) { ++stats.results; });
    for (const JobSpec& spec : jobs) engine.submit(spec);
    engine.finish();
    for (std::size_t k = 0; k < kJobKindCount; ++k)
      stats.cache_hits +=
          engine.job_counters(static_cast<JobKind>(k)).cache_hits.value();
  }
  stats.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return stats;
}

void print_table() {
  benchutil::header(
      "E16: analysis job engine throughput",
      "batch service turns sweep workloads into one job stream; the "
      "fingerprint cache removes repeated work entirely");
  const auto texts = make_network_texts();
  const auto jobs =
      make_job_stream(texts, benchutil::quick() ? kJobs / 5 : kJobs);
  std::printf("%zu jobs over %zu distinct n=16 networks (info / certify / "
              "refute / count-sorted mix)\n\n",
              jobs.size(), texts.size());
  std::printf("%8s | %12s %12s | %12s %10s\n", "workers", "cold jobs/s",
              "warm jobs/s", "warm speedup", "warm hits");
  benchutil::rule();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    auto cache = std::make_shared<ResultCache>();
    const StreamStats cold = run_stream(jobs, workers, cache);
    const StreamStats warm = run_stream(jobs, workers, cache);
    const double cold_rate = static_cast<double>(jobs.size()) / cold.seconds;
    const double warm_rate = static_cast<double>(jobs.size()) / warm.seconds;
    if (workers == 1) {
      benchutil::metric("cold_jobs_per_s_w1", cold_rate);
      benchutil::metric("warm_jobs_per_s_w1", warm_rate);
      benchutil::metric("warm_speedup_w1", cold.seconds / warm.seconds);
    }
    std::printf("%8zu | %12.0f %12.0f | %11.1fx %10llu\n", workers,
                cold_rate, warm_rate, cold.seconds / warm.seconds,
                static_cast<unsigned long long>(warm.cache_hits));
  }
  benchutil::rule();

  // --------------------------------------------- tracing overhead --
  // The whole engine path is instrumented (queue waits, per-job spans,
  // cache probes - src/obs/). With tracing disabled (the default) every
  // call site is one relaxed atomic load; the gated floor on
  // obs_off_jobs_per_s_w1 holds that near-zero claim. The enabled rate
  // is informational.
  {
    auto cache = std::make_shared<ResultCache>();
    run_stream(jobs, 1, cache);  // prime

    obs::set_enabled(false);
    const StreamStats off = run_stream(jobs, 1, cache);
    obs::set_enabled(true);
    const StreamStats on = run_stream(jobs, 1, cache);
    obs::set_enabled(false);
    obs::reset();

    const double off_rate = static_cast<double>(jobs.size()) / off.seconds;
    const double on_rate = static_cast<double>(jobs.size()) / on.seconds;
    std::printf("\ntracing overhead, warm single-worker stream:\n");
    std::printf("  tracing disabled  : %10.0f jobs/s\n", off_rate);
    std::printf("  tracing enabled   : %10.0f jobs/s (%+.1f%%)\n", on_rate,
                (on.seconds / off.seconds - 1.0) * 100.0);
    benchutil::metric("obs_off_jobs_per_s_w1", off_rate);
    benchutil::metric("obs_on_jobs_per_s_w1", on_rate);
  }
  benchutil::rule();
  std::printf(
      "shape check: the warm pass serves every well-formed job from the\n"
      "fingerprint cache (hits ~ %zu) and should run >= 10x faster than\n"
      "the cold pass; extra workers help the cold pass (compute-bound)\n"
      "far more than the warm one (lookup-bound). Output lines are\n"
      "byte-identical in every cell - only telemetry differs.\n",
      jobs.size());
}

void BM_ServiceBatchCold(benchmark::State& state) {
  const auto texts = make_network_texts();
  const auto jobs = make_job_stream(texts);
  for (auto _ : state) {
    auto stats = run_stream(jobs, static_cast<std::size_t>(state.range(0)),
                            std::make_shared<ResultCache>());
    benchmark::DoNotOptimize(stats.results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobs));
}
BENCHMARK(BM_ServiceBatchCold)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_ServiceBatchWarm(benchmark::State& state) {
  const auto texts = make_network_texts();
  const auto jobs = make_job_stream(texts);
  auto cache = std::make_shared<ResultCache>();
  run_stream(jobs, 1, cache);  // prime once
  for (auto _ : state) {
    auto stats = run_stream(jobs, static_cast<std::size_t>(state.range(0)),
                            cache);
    benchmark::DoNotOptimize(stats.results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobs));
}
BENCHMARK(BM_ServiceBatchWarm)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace shufflebound

SHUFFLEBOUND_BENCH_MAIN(shufflebound::print_table)
