// E20 - semantic analyzer throughput (infrastructure experiment).
//
// Not a paper claim: this bench quantifies the three payoffs of the
// order-relation abstract interpreter (src/analyze/):
//
//   analyzer cost    raw analyze() wall time vs width and depth - the
//                    pass is O(depth * n^2 / 64) word operations, so
//                    certification stays microseconds even at widths
//                    where 2^n enumeration is physically impossible
//   certify speedup  zero_one_check through the static pass vs the
//                    enumerative engines on the same sorter: the Auto
//                    dispatcher's analyze-first short circuit turns an
//                    exponential sweep into a constant-ish proof
//   elimination      kernel sweep throughput on a redundancy-laden
//                    network before and after eliminate_redundant() -
//                    provably trivial comparators are pure overhead to
//                    the evaluation kernel, so dropping them speeds up
//                    every downstream enumeration
//
// The duplicated-bitonic workload doubles every level of a bitonic
// sorter; the second copy of each level is provably redundant, so
// elimination removes exactly half of all comparators and the reduced
// network is pointwise output-equivalent (tests/test_analyze.cpp pins
// that differentially).
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "analyze/analyzer.hpp"
#include "bench_util.hpp"
#include "networks/batcher.hpp"
#include "networks/classic.hpp"
#include "sim/bitparallel.hpp"
#include "sim/compiled_net.hpp"

namespace shufflebound {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every level of `net` twice in a row: the repeat is provably
/// redundant, making exactly half the comparators dead weight.
ComparatorNetwork duplicate_levels(const ComparatorNetwork& net) {
  ComparatorNetwork out(net.width());
  for (const Level& level : net.levels()) {
    out.add_level(Level{level});
    out.add_level(Level{level});
  }
  return out;
}

double time_analyze(const ComparatorNetwork& net, std::uint64_t reps,
                    bool expect_certified) {
  const LevelProgram prog = level_program(net);
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < reps; ++r) {
    const AnalyzeReport report = analyze(prog);
    if (expect_certified && report.verdict != AnalyzeVerdict::Certified)
      throw std::logic_error("bench_e20: expected a certified sorter");
  }
  return seconds_since(t0) / static_cast<double>(reps);
}

double time_certify(const ComparatorNetwork& net, CertifyEngine engine,
                    bool analyze_first, std::uint64_t reps) {
  CertifyOptions opts;
  opts.engine = engine;
  opts.analyze_first = analyze_first;
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < reps; ++r)
    if (!zero_one_check(net, opts).sorts_all)
      throw std::logic_error("bench_e20: sorter failed certification");
  return seconds_since(t0) / static_cast<double>(reps);
}

/// Raw kernel sweep over an explicitly compiled network - no analyze
/// pass, no elimination, so the two columns differ only in op count.
double time_kernel_sweep(const CompiledNetwork& net, std::uint64_t reps) {
  CertifyOptions opts;
  opts.engine = CertifyEngine::Sweep;
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < reps; ++r)
    if (!zero_one_check(net, opts).sorts_all)
      throw std::logic_error("bench_e20: sorter failed certification");
  return seconds_since(t0) / static_cast<double>(reps);
}

void print_table() {
  benchutil::header(
      "E20: semantic analyzer throughput",
      "static order-relation certification costs microseconds at any "
      "width, turns certify into a proof instead of a 2^n enumeration, "
      "and redundancy elimination speeds up the evaluation kernel by "
      "exactly the removed-op fraction");

  // ------------------------------------------------ analyzer cost --
  const std::uint64_t reps = benchutil::quick() ? 64 : 512;
  std::printf("analyze() wall time (certified sorters):\n");
  std::printf("%-14s | %8s | %8s | %12s | %10s\n", "network", "width",
              "depth", "per analyze", "analyses/s");
  benchutil::rule();
  // Rows past one 64-bit word per relation row run an eighth of the
  // repetitions: each analysis there takes milliseconds.
  const auto analyze_row = [&](const std::string& family,
                               const ComparatorNetwork& net) {
    const wire_t n = net.width();
    const double per = time_analyze(net, n > 64 ? reps / 8 : reps, true);
    std::printf("%-14s | %8u | %8zu | %10.3fms | %10.0f\n",
                (family + "-" + std::to_string(n)).c_str(), n, net.depth(),
                per * 1e3, 1.0 / per);
    benchutil::metric(
        "analyze_per_s_" + family + "_n" + std::to_string(n), 1.0 / per);
  };
  analyze_row("bitonic", bitonic_sorting_network(16));
  analyze_row("bitonic", bitonic_sorting_network(64));
  analyze_row("bitonic", bitonic_sorting_network(128));
  if (!benchutil::quick()) {
    analyze_row("bitonic", bitonic_sorting_network(256));
    analyze_row("brick", brick_sorter(192));
  }

  // --------------------------------------------- certify speedup --
  // Same zero_one_check call, same verdict; the only change is which
  // engine produces it. At n = 16 the sweep is the baseline; at n = 32
  // the sweep is infeasible and the frontier engine is the fair
  // comparison; at n = 64 nothing enumerative can follow - the analyze
  // column stands alone (certs/s floored below).
  std::printf("\ncertify end-to-end incl. compile (per certification):\n");
  std::printf("%-14s | %12s | %12s | %9s\n", "network", "enumerative",
              "analyze", "speedup");
  benchutil::rule();
  const auto speedup_row = [&](const std::string& label,
                               const ComparatorNetwork& net,
                               CertifyEngine baseline, std::uint64_t base_reps,
                               const std::string& metric_tag) {
    const double base_s = time_certify(net, baseline, false, base_reps);
    const double analyze_s = time_certify(net, CertifyEngine::Analyze, true,
                                          reps);
    const double speedup = base_s / analyze_s;
    std::printf("%-14s | %10.3fms | %10.3fms | %8.1fx\n", label.c_str(),
                base_s * 1e3, analyze_s * 1e3, speedup);
    if (!metric_tag.empty()) benchutil::metric(metric_tag, speedup);
  };
  const std::uint64_t sweep_reps = benchutil::quick() ? 4 : 16;
  speedup_row("bitonic-16", bitonic_sorting_network(16), CertifyEngine::Sweep,
              sweep_reps, "analyze_speedup_vs_sweep_bitonic_n16");
  speedup_row("oem-16", odd_even_mergesort_network(16), CertifyEngine::Sweep,
              sweep_reps, "");
  speedup_row("bitonic-32", bitonic_sorting_network(32),
              CertifyEngine::Frontier, reps,
              "analyze_speedup_vs_frontier_bitonic_n32");
  {
    const double per =
        time_certify(bitonic_sorting_network(64), CertifyEngine::Analyze,
                     true, reps);
    std::printf("%-14s | %12s | %10.3fms | %9s\n", "bitonic-64",
                "(infeasible)", per * 1e3, "-");
    benchutil::metric("analyze_certs_per_s_bitonic_n64", 1.0 / per);
  }

  // -------------------------------------- redundancy elimination --
  // Kernel-only comparison: both networks compiled up front, both swept
  // with the same forced engine. Half the duplicated network's ops are
  // provably redundant, so the reduced sweep should approach 2x.
  {
    const wire_t n = 20;
    const ComparatorNetwork fat = duplicate_levels(brick_sorter(n));
    const EliminationResult reduced = eliminate_redundant(fat);
    if (reduced.removed * 2 != fat.comparator_count())
      throw std::logic_error("bench_e20: expected half the ops redundant");
    const std::uint64_t kernel_reps = benchutil::quick() ? 2 : 8;
    const double fat_s = time_kernel_sweep(compile(fat), kernel_reps);
    const double slim_s = time_kernel_sweep(compile(reduced.net), kernel_reps);
    const double speedup = fat_s / slim_s;
    std::printf("\nkernel sweep, duplicated brick n=%u (2^%u vectors):\n", n,
                n);
    std::printf("  original (%3zu ops) : %8.1fms\n", fat.comparator_count(), fat_s * 1e3);
    std::printf("  reduced  (%3zu ops) : %8.1fms\n", fat.comparator_count() - reduced.removed,
                slim_s * 1e3);
    std::printf("  sweep speedup      : %8.2fx (ideal 2.0)\n", speedup);
    benchutil::metric("elimination_sweep_speedup_n20", speedup);
  }
}

void BM_Analyze(benchmark::State& state) {
  const wire_t n = static_cast<wire_t>(state.range(0));
  const LevelProgram prog = level_program(bitonic_sorting_network(n));
  for (auto _ : state) {
    const AnalyzeReport report = analyze(prog);
    if (report.verdict != AnalyzeVerdict::Certified)
      throw std::logic_error("bench_e20: bitonic must certify");
    benchmark::DoNotOptimize(report.relation_pairs);
  }
}
BENCHMARK(BM_Analyze)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_EliminateRedundant(benchmark::State& state) {
  const wire_t n = static_cast<wire_t>(state.range(0));
  const ComparatorNetwork fat = duplicate_levels(bitonic_sorting_network(n));
  for (auto _ : state) {
    const EliminationResult result = eliminate_redundant(fat);
    benchmark::DoNotOptimize(result.removed);
  }
}
BENCHMARK(BM_EliminateRedundant)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace shufflebound

SHUFFLEBOUND_BENCH_MAIN(shufflebound::print_table)
