// E21 - empirical bound curve and the parallel witness batch.
//
// Three claims ride on this binary, plus one service-layer rate:
//
//   bound curve      for iterated-RDN families the adversary refutes far
//                    deeper than Theorem 4.1's n / lg^{4d} n floor
//                    promises: the theorem's bound goes vacuous (< 2)
//                    already at d = 1 for practical n, while the measured
//                    pipeline still certifies non-sortedness at depths
//                    17+ (n = 256) to 30+ (n = 65536). The curve - the
//                    deepest constructively refuted d per width - is the
//                    gap the paper leaves between its analysis and the
//                    adversary it builds.
//   streaming certs  the v2 chunked certificate keeps those refutations
//                    auditable at scale: one varint permutation instead
//                    of two decimal ones, CRC-framed chunks, ~0.5x the
//                    v1 bytes at n = 4096, round-tripped and re-verified
//                    here for every sweep point.
//   parallelism      the pool-backed witness batch (enumeration and
//                    batch replay) is bit-identical to the serial path
//                    and >= 3x faster at n = 1024 with 4 workers. The
//                    adversary itself is serial. The speedup is recorded
//                    only when the host has >= 2 workers, so single-core
//                    CI smoke skips it with a warning rather than a bogus
//                    1.0x. Beside it, a CPU-spin calibration (the same
//                    integer loop twice on one thread, then once on each
//                    of two threads) says how much parallelism the host
//                    gave this run; it is reported, not gated.
//   job lines        refute_job_lines_per_s_n4096: one refute request
//                    line parsed, executed and written back as its result
//                    line, serially, at n = 4096 (quick runs too).
//                    refute_hit_lines_per_s_n4096: the same line answered
//                    from a warm shared ResultCache - network parse, key,
//                    certificate read, replay through the arena's
//                    compiled view, and the result line.
//
// Nightly CI runs this in full mode, uploads BENCH_E21.json plus the
// bound-curve table, and jq-compares refuted depths exactly against the
// committed BENCH_E21.json (bench_regress floors are deliberately
// coarse; depth regressions gate exactly).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "adversary/certificate.hpp"
#include "adversary/refuter.hpp"
#include "adversary/sweep.hpp"
#include "adversary/witness.hpp"
#include "bench_util.hpp"
#include "core/io.hpp"
#include "networks/rdn.hpp"
#include "networks/shuffle.hpp"
#include "perm/permutation.hpp"
#include "service/engine.hpp"
#include "sim/compiled_net.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

IteratedRdn family_network(wire_t n, std::size_t d, std::uint64_t seed) {
  Prng rng(seed);
  return make_iterated_rdn(
      n, d, [&](std::size_t) { return butterfly_rdn(log2_exact(n)); },
      [&](std::size_t) { return random_permutation(n, rng); });
}

// ------------------------------------------------------- bound curve --

void bound_curve_section() {
  SweepConfig config;
  config.lg_min = 8;
  config.lg_max = benchutil::quick() ? 12 : 16;
  config.max_depth = 24;
  config.witnesses = 4;
  std::printf("bound curve (family=%s, seed=%llu, depth cap %zu):\n",
              sweep_family_name(config.family),
              static_cast<unsigned long long>(config.seed), config.max_depth);
  const auto points = run_sweep(config);
  std::printf("%s", sweep_to_table(points).c_str());
  for (const SweepPoint& p : points) {
    if (p.refuted_depth == 0 || !p.certificate_roundtrip_ok)
      throw std::logic_error("bench_e21: sweep point failed");
    if (p.n == 256 || p.n == 1024 || p.n == 4096)
      benchutil::metric("refuted_depth_n" + std::to_string(p.n),
                        static_cast<double>(p.refuted_depth));
    if (p.n == 4096)
      benchutil::metric("cert_compression_x_n4096", 1.0 / p.cert_v2_ratio);
  }
}

// ------------------------------------------------ refutation latency --

void throughput_section() {
  const std::uint64_t reps = benchutil::quick() ? 5 : 20;
  std::printf("\nfull refute() end-to-end (adversary + certificate + "
              "self-verify), serial:\n");
  std::printf("%8s | %5s | %12s | %12s\n", "n", "d", "per refute",
              "refutes/s");
  benchutil::rule();
  const auto row = [&](wire_t n, std::size_t d, const std::string& tag) {
    const IteratedRdn net = family_network(n, d, 42);
    const auto t0 = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
      if (refute(net).status != RefutationStatus::Refuted)
        throw std::logic_error("bench_e21: expected a refutation");
    }
    const double per = seconds_since(t0) / static_cast<double>(reps);
    std::printf("%8u | %5zu | %10.3fms | %12.1f\n", n, d, per * 1e3,
                1.0 / per);
    if (!tag.empty()) benchutil::metric("refutations_per_s_" + tag, 1.0 / per);
  };
  row(256, 2, "");
  row(1024, 2, "n1024");
  row(4096, 2, "n4096");
}

// ------------------------------------------------ refute job lines --

/// One refute request through the service layer, serial:
/// job_from_json_line -> AnalysisEngine::execute -> to_json_line on the
/// network of `make random-shuffle 4096 24 7`, the request-to-result path
/// of a batch or server refute job without the queue and cache.
void job_line_section() {
  const std::uint64_t reps = benchutil::quick() ? 5 : 20;
  Prng rng(7);
  JsonValue request = JsonValue::object();
  request.set("id", "r");
  request.set("op", "refute");
  request.set("network",
              to_text(random_shuffle_network(4096, 24, rng, {10, 5})));
  const std::string line = request.dump();
  double parse_s = 0, execute_s = 0, dump_s = 0;
  std::size_t result_bytes = 0;
  for (std::uint64_t r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    const JobSpec spec = job_from_json_line(line, 1);
    parse_s += seconds_since(t0);
    t0 = Clock::now();
    const JobResult result = AnalysisEngine::execute(spec);
    execute_s += seconds_since(t0);
    t0 = Clock::now();
    const std::string out = result.to_json_line();
    dump_s += seconds_since(t0);
    if (!result.ok || result.payload.find("status")->as_string() != "refuted")
      throw std::logic_error("bench_e21: expected a refuted job line");
    result_bytes = out.size();
  }
  const double per =
      (parse_s + execute_s + dump_s) / static_cast<double>(reps);
  std::printf("\nrefute job line (n = 4096, depth 24, %zu-byte request, "
              "%zu-byte result), serial:\n",
              line.size(), result_bytes);
  std::printf("%10s | %10s | %10s | %12s\n", "parse", "execute", "dump",
              "lines/s");
  benchutil::rule();
  const auto ms = [&](double total) {
    return total / static_cast<double>(reps) * 1e3;
  };
  std::printf("%8.3fms | %8.3fms | %8.3fms | %12.1f\n", ms(parse_s),
              ms(execute_s), ms(dump_s), 1.0 / per);
  benchutil::metric("refute_job_lines_per_s_n4096", 1.0 / per);

  // The same line again, answered from a warm shared cache by the probe
  // step: a refute hit is never trusted, so each one re-reads the cached
  // certificate and replays its witness before the line is written. The
  // first probe warms the arena's compiled view and is not timed.
  auto cache = std::make_shared<ResultCache>();
  {
    const JobSpec spec = job_from_json_line(line, 1);
    cache->insert(AnalysisEngine::cache_key(
                      spec, parse_any_network(spec.network_text)),
                  AnalysisEngine::execute(spec).payload);
  }
  EngineConfig config;
  config.workers = 1;
  config.cache = cache;
  AnalysisEngine engine(config, {});
  const std::uint64_t hit_reps = benchutil::quick() ? 20 : 100;
  double hit_parse_s = 0, probe_s = 0, hit_dump_s = 0;
  for (std::uint64_t r = 0; r <= hit_reps; ++r) {
    auto t0 = Clock::now();
    ProbedJob job(job_from_json_line(line, 1));
    const double parse = seconds_since(t0);
    t0 = Clock::now();
    const bool answered = engine.probe(job);
    const double probe = seconds_since(t0);
    t0 = Clock::now();
    const std::string out = job.result ? job.result->to_json_line() : "";
    const double dump = seconds_since(t0);
    benchmark::DoNotOptimize(out.data());
    if (!answered || !job.hit || !job.result->ok)
      throw std::logic_error("bench_e21: expected a revalidated cache hit");
    if (r == 0) continue;
    hit_parse_s += parse;
    probe_s += probe;
    hit_dump_s += dump;
  }
  engine.finish();
  const double hit_per =
      (hit_parse_s + probe_s + hit_dump_s) / static_cast<double>(hit_reps);
  std::printf("\nthe same line as a warm cache hit (probe = network parse, "
              "key, certificate read, replay), serial:\n");
  std::printf("%10s | %10s | %10s | %12s\n", "parse", "probe", "dump",
              "lines/s");
  benchutil::rule();
  const auto hit_ms = [&](double total) {
    return total / static_cast<double>(hit_reps) * 1e3;
  };
  std::printf("%8.3fms | %8.3fms | %8.3fms | %12.1f\n", hit_ms(hit_parse_s),
              hit_ms(probe_s), hit_ms(hit_dump_s), 1.0 / hit_per);
  benchutil::metric("refute_hit_lines_per_s_n4096", 1.0 / hit_per);
}

// ------------------------------------------------- parallel speedup --

/// Two units of a fixed integer loop on one thread, over one unit on each
/// of two threads: ~2 when the host runs two threads on two cores, ~1 when
/// it time-slices them. A speedup measured next to a reading below 1.6 is
/// not a property of the code.
double spin_calibration_2t() {
  constexpr std::uint64_t kSpins = 20'000'000;
  const auto spin = [] {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < kSpins; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      benchmark::DoNotOptimize(x);
    }
  };
  double one_thread = 1e30;
  double two_threads = 1e30;
  for (int r = 0; r < 3; ++r) {
    auto t0 = Clock::now();
    spin();
    spin();
    one_thread = std::min(one_thread, seconds_since(t0));
    t0 = Clock::now();
    std::thread other(spin);
    spin();
    other.join();
    two_threads = std::min(two_threads, seconds_since(t0));
  }
  return one_thread / two_threads;
}

void speedup_section() {
  ThreadPool pool;
  std::printf("\nwitness phase (enumerate + batch replay), %zu workers:\n",
              pool.worker_count());
  if (pool.worker_count() < 2) {
    std::printf("  single hardware thread - speedup not measurable, "
                "metric skipped\n");
    return;
  }
  const IteratedRdn net = family_network(1024, 2, 42);
  const AdversaryResult adversary = run_adversary(net);
  const CompiledNetwork compiled = compile(net);
  constexpr std::size_t kWitnessBudget = 512;
  const std::uint64_t reps = benchutil::quick() ? 3 : 10;

  const auto time_phase = [&](ThreadPool* phase_pool) {
    double best = 1e30;
    for (std::uint64_t r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      const auto witnesses =
          enumerate_witnesses(adversary, kWitnessBudget, phase_pool);
      const auto checks = check_witnesses(compiled, witnesses, phase_pool);
      for (const WitnessCheck& check : checks) {
        if (!check.refutes_sorting())
          throw std::logic_error("bench_e21: witness failed replay");
      }
      best = std::min(best, seconds_since(t0));
    }
    return best;
  };
  const double serial_s = time_phase(nullptr);
  const double parallel_s = time_phase(&pool);
  const double speedup = serial_s / parallel_s;
  const double calibration = spin_calibration_2t();
  std::printf("%10s | %10s | %8s | %16s\n", "serial", "parallel", "speedup",
              "spin 2t vs 1t");
  benchutil::rule();
  std::printf("%8.3fms | %8.3fms | %7.2fx | %15.2fx%s\n", serial_s * 1e3,
              parallel_s * 1e3, speedup, calibration,
              calibration < 1.6 ? "  (host below 1.6x: speedup not trusted)"
                                : "");
  benchutil::metric("parallel_speedup_n1024", speedup);
  benchutil::metric("spin_calibration_x_2t", calibration);
}

void print_table() {
  benchutil::header(
      "E21: empirical bound curve + parallel witness batch",
      "the adversary constructively refutes iterated-RDN depths far past "
      "the n / lg^{4d} n floor; chunked certificates keep the artifacts "
      "auditable to n = 2^16; the parallel witness batch (enumeration + "
      "replay) matches the serial one bit-for-bit and wins >= 3x at "
      "n = 1024");
  bound_curve_section();
  throughput_section();
  job_line_section();
  speedup_section();
}

// --------------------------------------------- google-benchmark rows --

void BM_Refute(benchmark::State& state) {
  const auto n = static_cast<wire_t>(state.range(0));
  const IteratedRdn net = family_network(n, 2, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(refute(net).status);
  }
}
BENCHMARK(BM_Refute)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_ChunkedRoundTrip(benchmark::State& state) {
  const auto n = static_cast<wire_t>(state.range(0));
  const RefutationResult result = refute(family_network(n, 1, 42));
  const Certificate& cert = *result.certificate;
  for (auto _ : state) {
    benchmark::DoNotOptimize(certificate_from_text(to_chunked_text(cert)).n);
  }
}
BENCHMARK(BM_ChunkedRoundTrip)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace shufflebound

SHUFFLEBOUND_BENCH_MAIN(shufflebound::print_table)
