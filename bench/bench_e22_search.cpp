// E22 - depth-optimal search throughput and pruning power.
//
// Two claims ride on this binary:
//
//   reproduction   the search (src/search) reproduces the published
//                  optimal sorting-network depths - exhaustively for
//                  n <= 8 and by witness construction at the published
//                  depth for n = 9, 10 - in seconds, not hours. Every
//                  depth is re-checked here; a wrong depth aborts the
//                  bench rather than recording a bogus throughput.
//   pruning        the filter ladder (useless-comparator, stall skip,
//                  exact dedup, output-set subsumption, countdown) kills
//                  the overwhelming share of generated children: the
//                  pruning ratio stays above ~0.85, which is what keeps
//                  level frontiers (and the search itself) tractable.
//
//   scaling        exhaustive searches per second at n = 7 on 1-, 2- and
//                  4-worker pools, and at n = 8 on the default pool:
//                  the whole search end to end, expansion, dedup and
//                  subsumption included.
//
// Metrics: nodes/s and pruning ratio per width, searches/s per pool
// size, gated against bench/baseline.json floors in the perf-smoke CI
// job.
#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "search/search.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void search_section() {
  ThreadPool pool;
  std::printf(
      "depth-optimal search (%zu workers; published optima in "
      "parentheses):\n",
      pool.worker_count());
  std::printf("%4s | %10s | %5s | %10s | %10s | %9s | %7s\n", "n", "mode",
              "depth", "nodes", "children", "nodes/s", "pruning");
  benchutil::rule();

  const wire_t max_n = benchutil::quick() ? 9 : 10;
  for (wire_t n = 6; n <= max_n; ++n) {
    SearchOptions options;
    options.pool = &pool;
    const auto t0 = Clock::now();
    const SearchResult result = find_min_depth_network(n, options);
    const double elapsed = seconds_since(t0);
    if (result.status != SearchStatus::Optimal ||
        result.optimal_depth != *published_optimal_depth(n))
      throw std::logic_error("bench_e22: wrong depth at n=" +
                             std::to_string(n));
    const double nodes_per_s =
        static_cast<double>(result.stats.nodes_expanded) /
        (elapsed > 0 ? elapsed : 1e-9);
    const double pruning = result.stats.pruning_ratio();
    std::printf("%4u | %10s | %2zu(%zu) | %10llu | %10llu | %9.0f | %7.3f\n",
                n, search_mode_name(result.mode), result.optimal_depth,
                *published_optimal_depth(n),
                static_cast<unsigned long long>(result.stats.nodes_expanded),
                static_cast<unsigned long long>(
                    result.stats.children_generated),
                nodes_per_s, pruning);
    if (n == 7 || n == 8) {
      benchutil::metric("search_nodes_per_s_n" + std::to_string(n),
                        nodes_per_s);
      benchutil::metric("search_pruning_ratio_n" + std::to_string(n),
                        pruning);
    }
    if (n == 8)
      benchutil::metric("search_exhaustive_per_s_n8",
                        1.0 / (elapsed > 0 ? elapsed : 1e-9));
    if (n == 9)
      benchutil::metric("search_existence_per_s_n9",
                        1.0 / (elapsed > 0 ? elapsed : 1e-9));
  }
}

/// Median wall seconds of `reps` exhaustive n = 7 searches on `pool`,
/// after one untimed warm-up search.
double median_n7_seconds(ThreadPool& pool, int reps) {
  SearchOptions options;
  options.pool = &pool;
  find_min_depth_network(7, options);
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    const SearchResult result = find_min_depth_network(7, options);
    times.push_back(seconds_since(t0));
    if (result.status != SearchStatus::Optimal || result.optimal_depth != 6)
      throw std::logic_error("bench_e22: wrong depth at n=7");
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

void scaling_section() {
  std::printf("\nexhaustive n = 7 by pool size (median of 9 searches):\n");
  std::printf("%7s | %9s | %10s | %11s\n", "workers", "ms/search",
              "searches/s", "vs 1 worker");
  benchutil::rule();
  double base_per_s = 0;
  for (const std::size_t workers : std::array<std::size_t, 3>{1, 2, 4}) {
    ThreadPool pool(workers);
    const double seconds = median_n7_seconds(pool, 9);
    const double per_s = 1.0 / (seconds > 0 ? seconds : 1e-9);
    if (workers == 1) base_per_s = per_s;
    std::printf("%7zu | %9.1f | %10.1f | %11.2f\n", workers, seconds * 1e3,
                per_s, per_s / base_per_s);
    benchutil::metric("search_exhaustive_per_s_n7_w" + std::to_string(workers),
                      per_s);
  }
}

void print_table() {
  benchutil::header(
      "E22: depth-optimal search (nodes/s, pruning power)",
      "the prefix-canonicalized BFS with subsumption pruning reproduces "
      "the published optimal depths (exhaustive n <= 8, existence-beam "
      "n = 9, 10) in seconds; the filter ladder prunes >= ~85% of "
      "generated children, which is what keeps the frontier tractable");
  search_section();
  scaling_section();
}

// --------------------------------------------- google-benchmark rows --

void BM_ExhaustiveSearch(benchmark::State& state) {
  const auto n = static_cast<wire_t>(state.range(0));
  ThreadPool pool;
  SearchOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_min_depth_network(n, options).optimal_depth);
  }
}
BENCHMARK(BM_ExhaustiveSearch)->Arg(6)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_ExistenceSearch(benchmark::State& state) {
  const auto n = static_cast<wire_t>(state.range(0));
  ThreadPool pool;
  SearchOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_min_depth_network(n, options).optimal_depth);
  }
}
BENCHMARK(BM_ExistenceSearch)->Arg(9)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace shufflebound

SHUFFLEBOUND_BENCH_MAIN(shufflebound::print_table)
