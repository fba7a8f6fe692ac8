// Differential suite for the runtime ISA dispatch layer (sim/isa.hpp)
// and unit/concurrency coverage for the compile-once arena
// (sim/arena.hpp).
//
// The dispatch determinism contract: every kernel path the build/CPU
// offers - scalar, generic, and the explicit neon/avx2/avx512 paths -
// returns the same verdict, the same MINIMAL failing vector, and the
// same vectors_checked for every network. The suite forces each
// available path in turn and compares against the scalar reference;
// witness identity then extends to everything derived from it
// (certify payloads, certificates), which the service-level test pins.
//
// The arena's contract: one compile per key ever, even under concurrent
// misses; views outlive clear(); stats account hits/misses/bytes. The
// engine-sharing test runs a real AnalysisEngine over a job batch and
// checks the workers actually shared compiles. Labeled `concurrency` so
// the TSan CI leg covers the shard locking and the engine sharing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/io.hpp"
#include "networks/classic.hpp"
#include "networks/shuffle.hpp"
#include "service/engine.hpp"
#include "sim/arena.hpp"
#include "sim/bitparallel.hpp"
#include "sim/compiled_net.hpp"
#include "sim/frontier.hpp"
#include "sim/isa.hpp"

namespace shufflebound {
namespace {

/// Restores the default kernel selection even when an assertion throws.
struct ForceIsaGuard {
  explicit ForceIsaGuard(simd::Isa isa) { simd::force_isa(isa); }
  ~ForceIsaGuard() { simd::force_isa(std::nullopt); }
};

/// The sorter with its last level cut off: deterministic, not sorting.
ComparatorNetwork truncated_brick(wire_t n) {
  const ComparatorNetwork full = brick_sorter(n);
  ComparatorNetwork cut(n);
  for (std::size_t l = 0; l + 1 < full.depth(); ++l)
    cut.add_level(full.level(l));
  return cut;
}

TEST(IsaDispatch, NamesRoundTrip) {
  for (const simd::Isa isa :
       {simd::Isa::Scalar, simd::Isa::Generic, simd::Isa::Neon,
        simd::Isa::Avx2, simd::Isa::Avx512}) {
    const std::optional<simd::Isa> parsed = simd::parse_isa(simd::isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(simd::parse_isa("sse9").has_value());
  EXPECT_FALSE(simd::parse_isa("").has_value());
}

TEST(IsaDispatch, AvailablePathsAreWellFormed) {
  const std::vector<simd::Isa> isas = simd::available_isas();
  ASSERT_FALSE(isas.empty());
  // Scalar is unconditionally available and always listed first; paths
  // widen monotonically after it.
  EXPECT_EQ(isas.front(), simd::Isa::Scalar);
  std::size_t last_bits = 0;
  for (const simd::Isa isa : isas) {
    EXPECT_TRUE(simd::isa_available(isa));
    const simd::KernelDispatch& kernel = simd::kernel_for(isa);
    EXPECT_EQ(kernel.isa, isa);
    EXPECT_NE(kernel.sweep_block, nullptr);
    EXPECT_EQ(kernel.lane_bits % 64, 0u);
    EXPECT_GE(kernel.lane_bits, last_bits);
    last_bits = kernel.lane_bits;
  }
  EXPECT_EQ(simd::kernel_for(simd::Isa::Scalar).lane_bits, 64u);
}

TEST(IsaDispatch, UnavailablePathThrowsInsteadOfFallingBack) {
  for (const simd::Isa isa :
       {simd::Isa::Neon, simd::Isa::Avx2, simd::Isa::Avx512}) {
    if (simd::isa_available(isa)) continue;
    EXPECT_THROW(simd::kernel_for(isa), std::invalid_argument);
    EXPECT_THROW(simd::force_isa(isa), std::invalid_argument);
  }
}

TEST(IsaDispatch, ForceIsaOverridesAndRestores) {
  {
    ForceIsaGuard guard(simd::Isa::Scalar);
    EXPECT_EQ(simd::active_kernel().isa, simd::Isa::Scalar);
  }
  // After restore the selection is the environment override when set
  // (the FORCE_ISA CI legs run the whole suite that way), else the
  // widest available path.
  const simd::KernelDispatch& restored = simd::active_kernel();
  if (const char* env = std::getenv("SHUFFLEBOUND_FORCE_ISA")) {
    EXPECT_EQ(std::string(restored.name), env);
  } else {
    EXPECT_EQ(restored.isa, simd::available_isas().back());
  }
}

TEST(IsaDispatch, AllPathsAgreeOnVerdictWitnessAndWorkCount) {
  // Mixed corpus: a sorter, a near-sorter with a known-minimal witness,
  // a register-model shuffle sorter, and a truncated (depth-deficient)
  // shuffle program - the shapes the certify path actually sees.
  std::vector<CompiledNetwork> corpus;
  corpus.push_back(compile(brick_sorter(11)));
  corpus.push_back(compile(truncated_brick(13)));
  corpus.push_back(compile(bitonic_on_shuffle(16)));
  const std::vector<DimStep> program = bitonic_dim_program(16);
  corpus.push_back(
      compile(compile_to_shuffle(16, std::span(program).first(6))));

  CertifyOptions sweep_only;
  sweep_only.engine = CertifyEngine::Sweep;
  for (const CompiledNetwork& net : corpus) {
    std::optional<ZeroOneReport> reference;
    for (const simd::Isa isa : simd::available_isas()) {
      ForceIsaGuard guard(isa);
      const ZeroOneReport report = zero_one_check(net, sweep_only);
      if (!reference) {
        reference = report;
        continue;
      }
      EXPECT_EQ(report.sorts_all, reference->sorts_all)
          << "path " << simd::isa_name(isa);
      EXPECT_EQ(report.failing_vector, reference->failing_vector)
          << "path " << simd::isa_name(isa);
      EXPECT_EQ(report.vectors_checked, reference->vectors_checked)
          << "path " << simd::isa_name(isa);
    }
  }
}

TEST(IsaDispatch, CertifyPayloadIdenticalAcrossPaths) {
  // End-to-end through the service execute path: the full certify
  // payload (verdict, witness hex, vectors_checked) must serialize
  // byte-identically on every path.
  JobSpec spec;
  spec.kind = JobKind::Certify;
  spec.network_text = to_text(truncated_brick(12));
  std::optional<std::string> reference;
  for (const simd::Isa isa : simd::available_isas()) {
    ForceIsaGuard guard(isa);
    const JobResult result = AnalysisEngine::execute(spec);
    ASSERT_TRUE(result.ok) << result.error;
    const std::string payload = result.payload.dump();
    if (!reference) {
      reference = payload;
      continue;
    }
    EXPECT_EQ(payload, *reference) << "path " << simd::isa_name(isa);
  }
}

TEST(FrontierLayout, CollapseMatchesFlatLayoutOnTruncatedShuffle) {
  // The depth-deficient RDN case E23 gates: collapsed and flat layouts
  // must agree on verdict, witness, and the seed-accounting peak, while
  // the collapsed layout keeps strictly fewer entries resident.
  const std::vector<DimStep> program = bitonic_dim_program(32);
  const CompiledNetwork net =
      compile(compile_to_shuffle(32, std::span(program).first(10)));
  FrontierOptions collapsed;
  FrontierOptions flat;
  flat.collapse_sorted = false;
  const FrontierReport on = frontier_zero_one_check(net, collapsed);
  const FrontierReport off = frontier_zero_one_check(net, flat);
  ASSERT_TRUE(on.completed);
  ASSERT_TRUE(off.completed);
  EXPECT_EQ(on.sorts_all, off.sorts_all);
  EXPECT_EQ(on.failing_vector, off.failing_vector);
  EXPECT_EQ(on.peak_states, off.peak_states);
  EXPECT_LT(on.peak_entries, off.peak_entries);
  EXPECT_GT(on.settled_peak, 0u);
}

TEST(CompilationArenaTest, SameKeySharesOneTable) {
  CompilationArena arena;
  const ComparatorNetwork net = brick_sorter(8);
  const ArenaKey key{42, 7};
  std::size_t compiles = 0;
  const auto compile_fn = [&] {
    ++compiles;
    return compile(net);
  };
  const auto first = arena.get_or_compile(key, compile_fn);
  const auto second = arena.get_or_compile(key, compile_fn);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(compiles, 1u);
  const CompilationArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.networks, 1u);
  EXPECT_EQ(stats.bytes, first->bytes());
}

TEST(CompilationArenaTest, DistinctKeysAndSaltsGetDistinctSlots) {
  CompilationArena arena;
  const ComparatorNetwork net = brick_sorter(8);
  const ArenaKey base{0xFEED, 0xBEEF};
  // Purpose salting: same source fingerprint, different compiled forms.
  const ArenaKey certify = base.derived(1);
  const ArenaKey plain = base.derived(2);
  EXPECT_NE(certify, base);
  EXPECT_NE(plain, base);
  EXPECT_NE(certify, plain);
  const auto compile_fn = [&net] { return compile(net); };
  const auto a = arena.get_or_compile(base, compile_fn);
  const auto b = arena.get_or_compile(certify, compile_fn);
  const auto c = arena.get_or_compile(plain, compile_fn);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(b.get(), c.get());
  EXPECT_EQ(arena.stats().misses, 3u);
  EXPECT_EQ(arena.stats().networks, 3u);
}

TEST(CompilationArenaTest, ViewsSurviveClear) {
  CompilationArena arena;
  const ComparatorNetwork net = brick_sorter(8);
  const auto view =
      arena.get_or_compile(ArenaKey{1, 1}, [&net] { return compile(net); });
  arena.clear();
  const CompilationArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.networks, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  // The dropped table is still owned by the outstanding view.
  EXPECT_EQ(view->width(), 8u);
  EXPECT_GT(view->op_count(), 0u);
  // Re-requesting after clear recompiles.
  const auto fresh =
      arena.get_or_compile(ArenaKey{1, 1}, [&net] { return compile(net); });
  EXPECT_NE(fresh.get(), view.get());
  EXPECT_EQ(arena.stats().misses, 1u);
}

TEST(CompilationArenaTest, ConcurrentMissesCompileOnce) {
  CompilationArena arena;
  const ComparatorNetwork net = brick_sorter(16);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 64;
  std::atomic<std::size_t> compiles{0};
  std::atomic<const CompiledNetwork*> table{nullptr};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const auto view = arena.get_or_compile(ArenaKey{9, 9}, [&] {
          compiles.fetch_add(1, std::memory_order_relaxed);
          return compile(net);
        });
        const CompiledNetwork* expected = nullptr;
        if (!table.compare_exchange_strong(expected, view.get())) {
          EXPECT_EQ(view.get(), expected);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(compiles.load(), 1u);
  const CompilationArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads * kRounds - 1);
}

TEST(ServiceArena, EngineWorkersShareCompiles) {
  // A batch of jobs over a handful of distinct networks, result cache
  // OFF so every job really executes: the workers must share compiled
  // tables through the injected arena instead of compiling per job.
  const auto arena = std::make_shared<CompilationArena>();
  EngineConfig config;
  config.workers = 4;
  config.cache_enabled = false;
  config.arena = arena;
  std::atomic<std::size_t> ok{0};
  AnalysisEngine engine(config, [&ok](const JobResult& result) {
    if (result.ok) ok.fetch_add(1, std::memory_order_relaxed);
  });

  const std::vector<std::string> nets = {
      to_text(brick_sorter(10)), to_text(brick_sorter(12)),
      to_text(truncated_brick(12)), to_text(bitonic_on_shuffle(16))};
  constexpr std::size_t kJobsPerNet = 10;
  for (std::size_t r = 0; r < kJobsPerNet; ++r) {
    for (const std::string& text : nets) {
      JobSpec spec;
      spec.kind = r % 2 == 0 ? JobKind::Certify : JobKind::CountSorted;
      spec.trials = 32;
      spec.seed = 7;
      spec.network_text = text;
      ASSERT_TRUE(engine.submit(std::move(spec)));
    }
  }
  engine.finish();
  EXPECT_EQ(ok.load(), kJobsPerNet * nets.size());

  const CompilationArena::Stats stats = arena->stats();
  // At most one compile per (network, purpose-salt); everything else
  // must have hit the shared table.
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.misses, nets.size() * 2);
  EXPECT_EQ(stats.networks, stats.misses);
  EXPECT_GT(stats.bytes, 0u);

  // Telemetry surfaces the sharing (and the kernel path serving it).
  const JsonValue telemetry = engine.telemetry_to_json();
  const JsonValue* arena_json = telemetry.find("arena");
  ASSERT_NE(arena_json, nullptr);
  EXPECT_EQ(arena_json->find("hits")->as_uint(), stats.hits);
  EXPECT_EQ(arena_json->find("misses")->as_uint(), stats.misses);
  EXPECT_EQ(arena_json->find("networks")->as_uint(), stats.networks);
  EXPECT_EQ(arena_json->find("bytes")->as_uint(), stats.bytes);
  const JsonValue* kernel_json = telemetry.find("kernel");
  ASSERT_NE(kernel_json, nullptr);
  EXPECT_EQ(kernel_json->find("isa")->as_string(),
            simd::active_kernel().name);
  EXPECT_EQ(kernel_json->find("lane_bits")->as_uint(),
            simd::active_kernel().lane_bits);
}

}  // namespace
}  // namespace shufflebound
