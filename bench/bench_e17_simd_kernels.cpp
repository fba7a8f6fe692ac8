// E17 - wide-lane SIMD kernel throughput (infrastructure experiment).
//
// Not a paper claim: this bench quantifies what the compiled kernel
// engine (src/sim/compiled_net.hpp + src/sim/isa.hpp) buys over the
// seed's scalar substrate, on the hot path every certification
// experiment runs: exhaustive 0-1 sweeps. Three paths are compared at
// each width:
//
//   scalar   seed-style sweep: per-bit input construction, 64 vectors
//            per word, the structure-walking reference evaluator
//            (core/bitparallel.hpp)
//   wide     compile the network, then sweep 256 vectors per step on
//            the shipped generic kernel (simd::kernel_for(Isa::Generic))
//            - compile time INCLUDED on every sweep
//   reuse    same kernel, one compile amortized across all sweeps (how
//            zero_one_check and the service engine actually run)
//
// Widths 24 and 28 are not powers of two, so the workload is the
// odd-even transposition sorter (depth n, sorts any width).
#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/bitparallel.hpp"
#include "networks/classic.hpp"
#include "obs/obs.hpp"
#include "sim/bitparallel.hpp"
#include "sim/compiled_net.hpp"
#include "sim/isa.hpp"

namespace shufflebound {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seed-style scalar sweep over vectors [0, len): per-bit construction
/// plus the reference evaluator. Throws if any output is unsorted (the
/// check also keeps the whole computation observable).
void scalar_sweep(const ComparatorNetwork& net, std::uint64_t len) {
  const wire_t n = net.width();
  std::vector<std::uint64_t> words(n);
  std::uint64_t bad_any = 0;
  for (std::uint64_t base = 0; base < len; base += 64) {
    for (wire_t w = 0; w < n; ++w) {
      std::uint64_t word = 0;
      for (std::uint64_t s = 0; s < 64; ++s)
        word |= ((base + s) >> w & 1ull) << s;
      words[w] = word;
    }
    evaluate_packed(net, words);
    for (wire_t w = 0; w + 1 < n; ++w) bad_any |= words[w] & ~words[w + 1];
  }
  if (bad_any != 0)
    throw std::logic_error("bench_e17: scalar sweep found unsorted output");
}

/// The shipped 256-bit kernel the wide/reuse columns time: the generic
/// dispatch path, available on every build.
const simd::KernelDispatch& generic_kernel() {
  return simd::kernel_for(simd::Isa::Generic);
}

/// Compiled sweep over vectors [0, len), block by block through the
/// generic path's sweep_block.
void compiled_sweep(const CompiledNetwork& net, std::uint64_t len) {
  const simd::KernelDispatch& kernel = generic_kernel();
  for (std::uint64_t base = 0; base < len; base += kernel.lane_bits)
    if (kernel.sweep_block(net, base, len) != UINT64_MAX)
      throw std::logic_error("bench_e17: compiled sweep found unsorted output");
}

double mvps(std::uint64_t vectors, double seconds) {
  return static_cast<double>(vectors) / seconds / 1e6;
}

void print_table() {
  benchutil::header(
      "E17: wide-lane SIMD kernels",
      "compiling networks into branch-free op tables and sweeping 256 "
      "test vectors per step multiplies 0-1 certification throughput");
  std::printf("wide/reuse kernel: %s dispatch path, %zu-bit lanes\n\n",
              generic_kernel().name, generic_kernel().lane_bits);

  // ------------------------------------------------- kernel throughput --
  // Budget vectors per cell; widths below lg(budget) repeat full sweeps,
  // which is exactly where compile-per-sweep vs compile-once separates.
  const std::uint64_t budget = benchutil::quick() ? std::uint64_t{1} << 18
                                                  : std::uint64_t{1} << 22;
  std::printf("sweep kernel throughput, %llu vectors per cell (Mvec/s):\n",
              static_cast<unsigned long long>(budget));
  std::printf("%6s | %10s %10s %10s | %8s\n", "n", "scalar", "wide", "reuse",
              "speedup");
  benchutil::rule();
  for (const wire_t n : {16u, 24u, 28u}) {
    const ComparatorNetwork net = brick_sorter(n);
    const std::uint64_t len =
        std::min(budget, std::uint64_t{1} << n);
    const std::uint64_t reps = budget / len;

    const auto t_scalar = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) scalar_sweep(net, len);
    const double scalar_s = seconds_since(t_scalar);

    const auto t_wide = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r)
      compiled_sweep(compile(net), len);
    const double wide_s = seconds_since(t_wide);

    const CompiledNetwork compiled = compile(net);
    const auto t_reuse = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) compiled_sweep(compiled, len);
    const double reuse_s = seconds_since(t_reuse);

    std::printf("%6u | %10.1f %10.1f %10.1f | %7.1fx\n", n,
                mvps(budget, scalar_s), mvps(budget, wide_s),
                mvps(budget, reuse_s), scalar_s / reuse_s);
    const std::string tag = "_n" + std::to_string(n);
    benchutil::metric("kernel_scalar_mvps" + tag, mvps(budget, scalar_s));
    benchutil::metric("kernel_wide_mvps" + tag, mvps(budget, wide_s));
    benchutil::metric("kernel_reuse_mvps" + tag, mvps(budget, reuse_s));
  }

  // ------------------------------------------- end-to-end certification --
  // The acceptance measurement: full strict 0-1 certification of an
  // n = 24 sorter, seed-style scalar loop vs the shipped zero_one_check
  // (compiled + wide lanes). Quick mode caps the scalar pass and
  // extrapolates its throughput; the engine pass is always the full
  // 2^24-vector sweep.
  {
    const wire_t n = 24;
    const ComparatorNetwork net = brick_sorter(n);
    const std::uint64_t total = std::uint64_t{1} << n;
    const std::uint64_t scalar_len =
        benchutil::quick() ? std::uint64_t{1} << 20 : total;

    const auto t_scalar = Clock::now();
    scalar_sweep(net, scalar_len);
    const double scalar_s = seconds_since(t_scalar);

    const auto t_engine = Clock::now();
    const ZeroOneReport report = zero_one_check(net);
    const double engine_s = seconds_since(t_engine);
    if (!report.sorts_all)
      throw std::logic_error("bench_e17: brick sorter failed certification");

    const double scalar_rate = mvps(scalar_len, scalar_s);
    const double engine_rate = mvps(total, engine_s);
    std::printf("\nend-to-end n=24 strict certification (2^24 vectors):\n");
    std::printf("  seed-style scalar : %10.1f Mvec/s\n", scalar_rate);
    std::printf("  zero_one_check    : %10.1f Mvec/s\n", engine_rate);
    std::printf("  speedup           : %10.1fx\n", engine_rate / scalar_rate);
    benchutil::metric("e2e_scalar_mvps_n24", scalar_rate);
    benchutil::metric("e2e_engine_mvps_n24", engine_rate);
    benchutil::metric("e2e_speedup_n24", engine_rate / scalar_rate);
  }

  // ---------------------------------------------- tracing overhead --
  // zero_one_check is instrumented (src/obs/): one span plus a few
  // counters per sweep. Disabled - the shipping default - the cost per
  // call site is a single relaxed atomic load, so obs_off_sweep_mvps_n16
  // carries a baseline floor; the enabled rate is informational (span
  // records are appended per sweep).
  {
    const wire_t n = 16;
    const CompiledNetwork compiled = compile(brick_sorter(n));
    const std::uint64_t total = std::uint64_t{1} << n;
    const std::uint64_t reps = benchutil::quick() ? 64 : 512;
    // Forced Sweep: this metric floors the kernel's per-sweep tracing
    // cost, so Auto's per-call analyze attempt must stay out of the loop.
    CertifyOptions sweep_only;
    sweep_only.engine = CertifyEngine::Sweep;

    obs::set_enabled(false);
    const auto t_off = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r)
      if (!zero_one_check(compiled, sweep_only).sorts_all)
        throw std::logic_error("bench_e17: obs-off sweep failed");
    const double off_s = seconds_since(t_off);

    obs::set_enabled(true);
    const auto t_on = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r)
      if (!zero_one_check(compiled, sweep_only).sorts_all)
        throw std::logic_error("bench_e17: obs-on sweep failed");
    const double on_s = seconds_since(t_on);
    obs::set_enabled(false);
    obs::reset();

    const double off_rate = mvps(total * reps, off_s);
    const double on_rate = mvps(total * reps, on_s);
    std::printf("\ntracing overhead, n=16 zero_one_check x%llu:\n",
                static_cast<unsigned long long>(reps));
    std::printf("  tracing disabled  : %10.1f Mvec/s\n", off_rate);
    std::printf("  tracing enabled   : %10.1f Mvec/s (%+.1f%%)\n", on_rate,
                (on_s / off_s - 1.0) * 100.0);
    benchutil::metric("obs_off_sweep_mvps_n16", off_rate);
    benchutil::metric("obs_on_sweep_mvps_n16", on_rate);
  }
}

void BM_ScalarKernel(benchmark::State& state) {
  const wire_t n = static_cast<wire_t>(state.range(0));
  const ComparatorNetwork net = brick_sorter(n);
  const std::uint64_t len = std::min(std::uint64_t{1} << n,
                                     std::uint64_t{1} << 16);
  for (auto _ : state) scalar_sweep(net, len);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_ScalarKernel)->Arg(16)->Arg(24)->Arg(28)
    ->Unit(benchmark::kMillisecond);

void BM_CompiledKernel(benchmark::State& state) {
  const wire_t n = static_cast<wire_t>(state.range(0));
  const CompiledNetwork net = compile(brick_sorter(n));
  const std::uint64_t len = std::min(std::uint64_t{1} << n,
                                     std::uint64_t{1} << 16);
  for (auto _ : state) compiled_sweep(net, len);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_CompiledKernel)->Arg(16)->Arg(24)->Arg(28)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace shufflebound

SHUFFLEBOUND_BENCH_MAIN(shufflebound::print_table)
