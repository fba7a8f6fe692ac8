// E18 - frontier-based 0-1 certification (infrastructure experiment).
//
// Not a paper claim: this bench quantifies what the reachable-set
// frontier engine (src/sim/frontier.hpp) buys over the exhaustive
// wide-lane sweep on the certification path. The sweep always pays
// 2^n; the frontier propagates the set of reachable 0-1 vectors
// level-synchronously and dedups after every level, so structured
// sorters (bitonic, odd-even mergesort, shuffle-based register
// programs) certify in time polynomial in the frontier peak - far
// below 2^n - while adversarial low-structure networks (the brick
// sorter) make it abort cheaply and fall back to the sweep.
//
// Four sections:
//
//   head-to-head   widths the sweep can still reach: both engines run
//                  the full certification, speedup = sweep / frontier
//   past the wall  widths where 2^n is out of reach (n = 32, 48): the
//                  frontier certifies alone; we report certs/s and the
//                  frontier peak (the sweep column would be years)
//   large set      brick sorter at n = 22 through the frontier alone:
//                  one component of ~177k states before dedup, the
//                  per-level dedup and apply passes at their largest
//   adversarial    brick sorter at n = 24: the auto dispatcher's
//                  clamped frontier attempt aborts pre-allocation and
//                  falls back, so auto must stay within ~2x of sweep
//
// Widths 24 and 48 are not powers of two: the workload is Batcher's
// odd-even mergesort on the next power of two with gates touching
// wires >= n dropped (every OEM comparator is ascending, so this is
// exactly +infinity padding - see tests/test_frontier.cpp).
#include <bit>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "networks/batcher.hpp"
#include "networks/classic.hpp"
#include "networks/shuffle.hpp"
#include "sim/bitparallel.hpp"
#include "sim/compiled_net.hpp"
#include "sim/frontier.hpp"

namespace shufflebound {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sorting network on an arbitrary width from Batcher's odd-even
/// mergesort on the next power of two (see file comment).
ComparatorNetwork truncated_oem(wire_t n) {
  const ComparatorNetwork full = odd_even_mergesort_network(std::bit_ceil(n));
  ComparatorNetwork out(n);
  for (const Level& level : full.levels()) {
    Level kept;
    for (const Gate& gate : level.gates)
      if (gate.lo < n && gate.hi < n) kept.gates.push_back(gate);
    out.add_level(std::move(kept));
  }
  return out;
}

CertifyOptions engine_opts(CertifyEngine engine) {
  CertifyOptions opts;
  opts.engine = engine;
  // This bench characterizes the enumerative engines; without this the
  // static analyze pass would certify every sorter here before Auto
  // attempts the frontier-vs-sweep ladder under measurement.
  opts.analyze_first = false;
  return opts;
}

/// Times `reps` full certifications (compile included - the e2e path
/// zero_one_check actually runs) and returns seconds per certification.
template <typename Net>
double time_certify(const Net& net, CertifyEngine engine, std::uint64_t reps) {
  const CertifyOptions opts = engine_opts(engine);
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < reps; ++r)
    if (!zero_one_check(net, opts).sorts_all)
      throw std::logic_error("bench_e18: sorter failed certification");
  return seconds_since(t0) / static_cast<double>(reps);
}

/// One frontier run for the table's peak/expanded columns.
template <typename Net>
FrontierReport frontier_stats(const Net& net) {
  const FrontierReport report = frontier_zero_one_check(compile(net));
  if (!report.completed || !report.sorts_all)
    throw std::logic_error("bench_e18: frontier run did not certify");
  return report;
}

void print_table() {
  benchutil::header(
      "E18: frontier 0-1 certification",
      "reachable-set propagation certifies structured sorters in time "
      "polynomial in the frontier peak, breaking the 2^n sweep wall, "
      "while auto dispatch keeps adversarial networks near sweep speed");

  // ------------------------------------------------- head-to-head --
  // Widths the sweep can still reach. Frontier runs are microseconds,
  // so both engines are repeated; reps keep each cell around the same
  // wall-clock budget.
  const std::uint64_t sweep_reps = benchutil::quick() ? 4 : 16;
  const std::uint64_t frontier_reps = benchutil::quick() ? 256 : 2048;
  std::printf("head-to-head, full certification incl. compile (per cert):\n");
  std::printf("%-18s | %10s %10s | %9s | %9s\n", "network", "sweep",
              "frontier", "speedup", "peak");
  benchutil::rule();

  const auto head_to_head = [&](const std::string& label, const auto& net,
                                const std::string& metric_tag) {
    const double sweep_s = time_certify(net, CertifyEngine::Sweep, sweep_reps);
    const double frontier_s =
        time_certify(net, CertifyEngine::Frontier, frontier_reps);
    const FrontierReport stats = frontier_stats(net);
    const double speedup = sweep_s / frontier_s;
    std::printf("%-18s | %8.2fms %8.3fms | %8.1fx | %9llu\n", label.c_str(),
                sweep_s * 1e3, frontier_s * 1e3, speedup,
                static_cast<unsigned long long>(stats.peak_states));
    if (!metric_tag.empty())
      benchutil::metric("frontier_speedup_" + metric_tag, speedup);
  };

  head_to_head("bitonic-16", bitonic_sorting_network(16), "bitonic_n16");
  head_to_head("oem-16", odd_even_mergesort_network(16), "");
  head_to_head("oem-trunc-24", truncated_oem(24), "oemt_n24");
  head_to_head("bitonic-shuffle-16", bitonic_on_shuffle(16), "shuffle_n16");

  // ----------------------------------------------- past the wall --
  // The sweep is out of reach (2^32 vectors ~ minutes, 2^48 ~ years at
  // E17's measured rates); the frontier certifies these alone.
  std::printf("\npast the 2^n wall (sweep infeasible; frontier only):\n");
  std::printf("%-18s | %10s | %9s | %12s | %9s\n", "network", "per cert",
              "certs/s", "states", "peak");
  benchutil::rule();

  const auto past_wall = [&](const std::string& label, const auto& net,
                             const std::string& metric_tag) {
    const double per_cert =
        time_certify(net, CertifyEngine::Frontier, frontier_reps);
    const FrontierReport stats = frontier_stats(net);
    const double certs_per_s = 1.0 / per_cert;
    std::printf("%-18s | %8.3fms | %9.0f | %12llu | %9llu\n", label.c_str(),
                per_cert * 1e3, certs_per_s,
                static_cast<unsigned long long>(stats.states_expanded),
                static_cast<unsigned long long>(stats.peak_states));
    if (!metric_tag.empty())
      benchutil::metric("frontier_certs_per_s_" + metric_tag, certs_per_s);
  };

  past_wall("bitonic-32", bitonic_sorting_network(32), "bitonic_n32");
  past_wall("oem-32", odd_even_mergesort_network(32), "");
  past_wall("bitonic-shuffle-32", bitonic_on_shuffle(32), "");
  past_wall("oem-trunc-48", truncated_oem(48), "oemt_n48");

  // ------------------------------------------------- large set --
  // Brick sorters chain every wire into one component by level two, so
  // each level applies and dedups one set of up to ~177k states at
  // n = 22. Timed on the engine alone (compiled once, default budget).
  {
    const CompiledNetwork brick = compile(brick_sorter(22));
    const std::uint64_t reps = benchutil::quick() ? 8 : 32;
    FrontierReport stats;
    const auto t0 = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
      stats = frontier_zero_one_check(brick);
      if (!stats.sorts_all)
        throw std::logic_error("bench_e18: brick-22 failed certification");
    }
    const double per_cert = seconds_since(t0) / static_cast<double>(reps);
    std::printf("\nlarge state set, brick sorter n=22 (frontier only):\n");
    std::printf("  per cert          : %8.2fms\n", per_cert * 1e3);
    std::printf("  states expanded   : %8llu\n",
                static_cast<unsigned long long>(stats.states_expanded));
    benchutil::metric("frontier_certs_per_s_brick_n22", 1.0 / per_cert);
  }

  // ------------------------------------------------- adversarial --
  // The brick sorter chains every wire into one giant component within
  // two levels: the auto dispatcher's clamped attempt (budget
  // 2^(n-8)) aborts before allocating the cross product and falls back
  // to the sweep. The gated ratio enforces the "adversarial inputs
  // never regress past ~2x" contract end to end.
  {
    const ComparatorNetwork brick = brick_sorter(24);
    const std::uint64_t reps = benchutil::quick() ? 1 : 4;
    const double sweep_s = time_certify(brick, CertifyEngine::Sweep, reps);
    const double auto_s = time_certify(brick, CertifyEngine::Auto, reps);
    const double ratio = sweep_s / auto_s;
    std::printf("\nadversarial fallback, brick sorter n=24 (full 2^24):\n");
    std::printf("  sweep engine      : %8.1fms\n", sweep_s * 1e3);
    std::printf("  auto (attempt+fb) : %8.1fms\n", auto_s * 1e3);
    std::printf("  sweep/auto ratio  : %8.2fx (1.0 = free fallback)\n", ratio);
    benchutil::metric("auto_vs_sweep_brick_n24", ratio);
  }
}

void BM_FrontierCertify(benchmark::State& state) {
  const wire_t n = static_cast<wire_t>(state.range(0));
  const CompiledNetwork net = compile(bitonic_sorting_network(n));
  for (auto _ : state) {
    const FrontierReport report = frontier_zero_one_check(net);
    if (!report.sorts_all)
      throw std::logic_error("bench_e18: bitonic failed certification");
    benchmark::DoNotOptimize(report.peak_states);
  }
}
BENCHMARK(BM_FrontierCertify)->Arg(16)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_SweepCertify(benchmark::State& state) {
  const wire_t n = static_cast<wire_t>(state.range(0));
  const CompiledNetwork net = compile(bitonic_sorting_network(n));
  const CertifyOptions opts = engine_opts(CertifyEngine::Sweep);
  for (auto _ : state) {
    if (!zero_one_check(net, opts).sorts_all)
      throw std::logic_error("bench_e18: bitonic failed certification");
  }
}
BENCHMARK(BM_SweepCertify)->Arg(16)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace shufflebound

SHUFFLEBOUND_BENCH_MAIN(shufflebound::print_table)
