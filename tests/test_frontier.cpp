// Differential suite for the frontier certification engine
// (sim/frontier.hpp) and the hybrid dispatcher (CertifyOptions in
// sim/bitparallel.hpp): the frontier, the wide-lane sweep, and the
// scalar reference kernel must agree bit for bit - same sorts_all, same
// MINIMAL failing vector - on sorting and non-sorting networks, with
// tracing on and off, with and without a thread pool. CI also runs the
// whole file with SHUFFLEBOUND_FORCE_ISA=scalar and =generic (the sweep
// legs drop to the 64-bit and 256-bit dispatch paths there), so
// agreement is pinned across lane widths too.
#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/bitparallel.hpp"
#include "networks/batcher.hpp"
#include "networks/classic.hpp"
#include "networks/rdn.hpp"
#include "networks/shuffle.hpp"
#include "obs/obs.hpp"
#include "sim/bitparallel.hpp"
#include "sim/compiled_net.hpp"
#include "sim/frontier.hpp"
#include "sim/simd.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {
namespace {

/// Random leveled circuit mixing ascending, descending and exchange
/// elements on shuffled disjoint pairs, with some wires left idle
/// (mirrors tests/test_simd.cpp so the suites cover the same shapes).
ComparatorNetwork random_mixed_circuit(wire_t n, std::size_t depth,
                                       Prng& rng) {
  ComparatorNetwork net(n);
  std::vector<wire_t> wires(n);
  for (std::size_t l = 0; l < depth; ++l) {
    std::iota(wires.begin(), wires.end(), 0u);
    shuffle_in_place(wires, rng);
    Level level;
    for (wire_t k = 0; 2 * k + 1 < n; ++k) {
      if (rng.chance(1, 5)) continue;  // idle pair
      static constexpr GateOp kOps[] = {GateOp::CompareAsc,
                                        GateOp::CompareDesc, GateOp::Exchange};
      level.gates.emplace_back(wires[2 * k], wires[2 * k + 1],
                               kOps[rng.below(3)]);
    }
    net.add_level(std::move(level));
  }
  return net;
}

/// Minimal failing 0/1 vector by the scalar reference kernel.
std::optional<std::uint64_t> reference_min_failing(
    const ComparatorNetwork& net) {
  const wire_t n = net.width();
  const std::uint64_t total = std::uint64_t{1} << n;
  std::vector<std::uint64_t> words(n);
  for (std::uint64_t base = 0; base < total; base += 64) {
    for (wire_t w = 0; w < n; ++w) {
      std::uint64_t word = 0;
      for (std::uint64_t s = 0; s < 64; ++s)
        word |= ((base + s) >> w & 1ull) << s;
      words[w] = word;
    }
    evaluate_packed(net, words);
    std::uint64_t bad = 0;
    for (wire_t w = 0; w + 1 < n; ++w) bad |= words[w] & ~words[w + 1];
    bad &= simd::valid_mask(base, total);
    if (bad != 0)
      return base + static_cast<std::uint64_t>(std::countr_zero(bad));
  }
  return std::nullopt;
}

/// Sorting network on an arbitrary width from Batcher's odd-even
/// mergesort on the next power of two: every OEM comparator is ascending
/// (min to the lower wire), so dropping gates that touch wires >= n
/// behaves exactly like padding wires n..m-1 with +infinity - those
/// stay put and the bottom n wires sort.
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

CertifyOptions with_engine(CertifyEngine engine, ThreadPool* pool = nullptr) {
  CertifyOptions opts;
  opts.engine = engine;
  opts.pool = pool;
  return opts;
}

/// Runs all three dispatch modes plus the scalar reference and asserts
/// full agreement on sorts_all and the minimal failing vector.
void expect_engines_agree(const ComparatorNetwork& net,
                          const std::string& label) {
  const std::optional<std::uint64_t> expect = reference_min_failing(net);
  const CompiledNetwork compiled = compile(net);
  const ZeroOneReport sweep =
      zero_one_check(compiled, with_engine(CertifyEngine::Sweep));
  const ZeroOneReport frontier =
      zero_one_check(compiled, with_engine(CertifyEngine::Frontier));
  const ZeroOneReport hybrid =
      zero_one_check(compiled, with_engine(CertifyEngine::Auto));
  ASSERT_EQ(sweep.sorts_all, !expect.has_value()) << label;
  ASSERT_EQ(sweep.failing_vector, expect) << label;
  ASSERT_EQ(frontier.sorts_all, sweep.sorts_all) << label;
  ASSERT_EQ(frontier.failing_vector, sweep.failing_vector) << label;
  ASSERT_EQ(hybrid.sorts_all, sweep.sorts_all) << label;
  ASSERT_EQ(hybrid.failing_vector, sweep.failing_vector) << label;
  ASSERT_EQ(frontier.vectors_checked, sweep.vectors_checked) << label;
}

// -------------------------------------------------- differential core --

TEST(FrontierDifferential, AgreesWithSweepAndScalarReference) {
  Prng rng(606);
  for (wire_t n = 1; n <= 9; ++n) {
    std::vector<ComparatorNetwork> cases;
    cases.push_back(brick_sorter(n));
    cases.push_back(random_mixed_circuit(n, 2, rng));
    cases.push_back(random_mixed_circuit(n, n, rng));
    if (n >= 3) {
      // Near-sorter: a brick sorter minus its entire last level.
      const ComparatorNetwork full = brick_sorter(n);
      cases.push_back(full.slice(0, full.depth() - 1));
    }
    for (std::size_t c = 0; c < cases.size(); ++c)
      expect_engines_agree(cases[c],
                           "n=" + std::to_string(n) + " case=" +
                               std::to_string(c));
  }
}

TEST(FrontierDifferential, IdenticalWithTracingOnAndOff) {
  // Observability must never perturb engine results (the obs layer's
  // core contract); re-run a failing and a sorting shape under tracing.
  Prng rng(707);
  const ComparatorNetwork junk = random_mixed_circuit(9, 4, rng);
  const ComparatorNetwork sorter = truncated_oem(9);
  const auto run_all = [&](const ComparatorNetwork& net) {
    const CompiledNetwork compiled = compile(net);
    return std::pair{
        zero_one_check(compiled, with_engine(CertifyEngine::Frontier)),
        zero_one_check(compiled, with_engine(CertifyEngine::Sweep))};
  };
  const auto [junk_frontier_off, junk_sweep_off] = run_all(junk);
  const auto [sorter_frontier_off, sorter_sweep_off] = run_all(sorter);
  obs::set_enabled(true);
  const auto [junk_frontier_on, junk_sweep_on] = run_all(junk);
  const auto [sorter_frontier_on, sorter_sweep_on] = run_all(sorter);
  obs::set_enabled(false);
  obs::reset();
  EXPECT_EQ(junk_frontier_on.failing_vector, junk_frontier_off.failing_vector);
  EXPECT_EQ(junk_sweep_on.failing_vector, junk_frontier_off.failing_vector);
  EXPECT_EQ(junk_frontier_on.sorts_all, junk_frontier_off.sorts_all);
  EXPECT_TRUE(sorter_frontier_on.sorts_all);
  EXPECT_TRUE(sorter_frontier_off.sorts_all);
  EXPECT_TRUE(sorter_sweep_on.sorts_all);
  EXPECT_TRUE(sorter_sweep_off.sorts_all);
}

TEST(FrontierDifferential, StructuredFamiliesCertify) {
  // The families the engine exists for. n=16 cross-checked against the
  // sweep; bitonic-32 is past the sweep wall (frontier-only, the
  // "impossible yesterday" acceptance case).
  expect_engines_agree(bitonic_sorting_network(16), "bitonic-16");
  expect_engines_agree(odd_even_mergesort_network(16), "oem-16");
  expect_engines_agree(truncated_oem(12), "oem-trunc-12");
  // Butterfly RDN alone is not a sorter: failing vectors must match too.
  expect_engines_agree(butterfly_rdn(4).net, "butterfly-16");

  const FrontierReport wide =
      frontier_zero_one_check(compile(bitonic_sorting_network(32)));
  EXPECT_TRUE(wide.completed);
  EXPECT_TRUE(wide.sorts_all);
  EXPECT_GT(wide.peak_states, 0u);

  const ZeroOneReport via_auto =
      zero_one_check(bitonic_sorting_network(32), nullptr);
  EXPECT_TRUE(via_auto.sorts_all);
  EXPECT_EQ(via_auto.vectors_checked, std::uint64_t{1} << 32);
}

TEST(FrontierDifferential, RegisterModelShuffleSorter) {
  // bitonic_on_shuffle is the shuffle-based register family the paper's
  // bound addresses; it sorts in register order.
  const RegisterNetwork net = bitonic_on_shuffle(16);
  const ZeroOneReport sweep =
      zero_one_check(net, with_engine(CertifyEngine::Sweep));
  const ZeroOneReport frontier =
      zero_one_check(net, with_engine(CertifyEngine::Frontier));
  EXPECT_TRUE(sweep.sorts_all);
  EXPECT_TRUE(frontier.sorts_all);

  // And a too-shallow shuffle network must fail identically.
  Prng rng(808);
  const RegisterNetwork shallow = random_shuffle_network(16, 3, rng);
  const ZeroOneReport sweep_bad =
      zero_one_check(shallow, with_engine(CertifyEngine::Sweep));
  const ZeroOneReport frontier_bad =
      zero_one_check(shallow, with_engine(CertifyEngine::Frontier));
  EXPECT_EQ(frontier_bad.sorts_all, sweep_bad.sorts_all);
  EXPECT_EQ(frontier_bad.failing_vector, sweep_bad.failing_vector);
}

// ------------------------------------------------- budget and hybrid --

TEST(FrontierBudget, IncompleteReportAtTinyBudget) {
  FrontierOptions opts;
  opts.budget = 4;
  const FrontierReport report =
      frontier_zero_one_check(compile(brick_sorter(16)), opts);
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.sorts_all);
  EXPECT_LT(report.levels_processed, compile(brick_sorter(16)).level_count());
}

TEST(FrontierBudget, AutoFallsBackToSweepAndStaysExact) {
  // Brick sorters are frontier-UNfriendly (one giant component by level
  // two): Auto's clamped attempt must abort and the sweep must still
  // deliver the exact verdict. Width 22 is above the straight-to-sweep
  // threshold, so the frontier attempt genuinely runs first.
  obs::reset();
  obs::set_enabled(true);
  CertifyOptions opts;
  opts.frontier_budget = 4;  // force the attempt to die immediately
  // The analyze engine certifies brick sorters statically, which would
  // short-circuit the very fallback path under test.
  opts.analyze_first = false;
  const ZeroOneReport report = zero_one_check(brick_sorter(22), opts);
  EXPECT_TRUE(report.sorts_all);
  EXPECT_EQ(report.vectors_checked, std::uint64_t{1} << 22);
  EXPECT_GE(obs::counter("kernel.frontier_fallbacks").value(), 1u);
  EXPECT_GE(obs::counter("kernel.frontier_incomplete").value(), 1u);
  obs::set_enabled(false);
  obs::reset();
}

TEST(FrontierBudget, ForcedFrontierThrowsWhenExhausted) {
  CertifyOptions opts;
  opts.engine = CertifyEngine::Frontier;
  opts.frontier_budget = 4;
  try {
    zero_one_check(compile(brick_sorter(16)), opts);
    FAIL() << "expected budget exhaustion";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("budget"), std::string::npos) << what;
    EXPECT_NE(what.find("n=16"), std::string::npos) << what;
  }
}

TEST(FrontierBudget, ProgressHookRunsAndPropagates) {
  struct Canceled {};
  const CompiledNetwork net = compile(bitonic_sorting_network(16));
  std::size_t calls = 0;
  FrontierOptions opts;
  opts.progress = [&calls] { ++calls; };
  const FrontierReport report = frontier_zero_one_check(net, opts);
  EXPECT_TRUE(report.completed);
  // Once per level plus once before the final product check.
  EXPECT_EQ(calls, net.level_count() + 1);

  FrontierOptions cancel;
  cancel.progress = [] { throw Canceled{}; };
  EXPECT_THROW(frontier_zero_one_check(net, cancel), Canceled);
}

// ------------------------------------------------------- width guards --

TEST(FrontierCaps, ErrorsNameEngineCapAndRequestedWidth) {
  try {
    zero_one_check(compile(ComparatorNetwork(31)),
                   with_engine(CertifyEngine::Sweep));
    FAIL() << "expected sweep cap rejection";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep"), std::string::npos) << what;
    EXPECT_NE(what.find("n=31"), std::string::npos) << what;
    EXPECT_NE(what.find("30"), std::string::npos) << what;
  }
  try {
    frontier_zero_one_check(compile(ComparatorNetwork(49)));
    FAIL() << "expected frontier cap rejection";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frontier"), std::string::npos) << what;
    EXPECT_NE(what.find("n=49"), std::string::npos) << what;
    EXPECT_NE(what.find("48"), std::string::npos) << what;
  }
  // Auto past every cap names both engines.
  try {
    zero_one_check(ComparatorNetwork(49), nullptr);
    FAIL() << "expected all-engine rejection";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep"), std::string::npos) << what;
    EXPECT_NE(what.find("frontier"), std::string::npos) << what;
  }
  // Auto above the sweep cap with a frontier-hostile network: nothing
  // can certify it, and the error says why (an empty width-31 network
  // leaves all 2^31 inputs reachable).
  EXPECT_THROW(zero_one_check(ComparatorNetwork(31), nullptr),
               std::invalid_argument);
}

TEST(FrontierCaps, EngineNamesRoundTrip) {
  for (const CertifyEngine engine :
       {CertifyEngine::Auto, CertifyEngine::Frontier, CertifyEngine::Sweep})
    EXPECT_EQ(parse_certify_engine(certify_engine_name(engine)), engine);
  EXPECT_EQ(parse_certify_engine("quantum"), std::nullopt);
}

// ------------------------------------------------ concurrency / TSan --

TEST(FrontierConcurrency, ShardedDedupMatchesSerial) {
  // brick_sorter(22) chains every wire into ONE component at level two
  // (~3^11 = 177k states before dedup), pushing the per-level dedup
  // over the parallel-shard threshold - this is the TSan-visible path.
  // Pooled and serial runs must produce identical reports.
  const CompiledNetwork net = compile(brick_sorter(22));
  FrontierOptions serial_opts;
  const FrontierReport serial = frontier_zero_one_check(net, serial_opts);
  ASSERT_TRUE(serial.completed);
  EXPECT_TRUE(serial.sorts_all);
  ThreadPool pool(8);
  for (int run = 0; run < 3; ++run) {
    FrontierOptions pooled_opts;
    pooled_opts.pool = &pool;
    const FrontierReport pooled = frontier_zero_one_check(net, pooled_opts);
    ASSERT_TRUE(pooled.completed);
    EXPECT_EQ(pooled.sorts_all, serial.sorts_all);
    EXPECT_EQ(pooled.failing_vector, serial.failing_vector);
    EXPECT_EQ(pooled.peak_states, serial.peak_states);
    EXPECT_EQ(pooled.states_expanded, serial.states_expanded);
    EXPECT_EQ(pooled.dedup_removed, serial.dedup_removed);
  }
}

TEST(FrontierConcurrency, PooledNonSorterKeepsMinimalVector) {
  // Same stress shape minus its last level: the pooled dedup must keep
  // the same minimal witness provenance as the serial run.
  const ComparatorNetwork full = brick_sorter(22);
  const CompiledNetwork net = compile(full.slice(0, full.depth() - 1));
  FrontierOptions serial_opts;
  const FrontierReport serial = frontier_zero_one_check(net, serial_opts);
  ASSERT_TRUE(serial.completed);
  ASSERT_FALSE(serial.sorts_all);
  ThreadPool pool(8);
  FrontierOptions pooled_opts;
  pooled_opts.pool = &pool;
  const FrontierReport pooled = frontier_zero_one_check(net, pooled_opts);
  ASSERT_TRUE(pooled.completed);
  EXPECT_EQ(pooled.failing_vector, serial.failing_vector);
  // And the sweep agrees on the exact witness.
  const ZeroOneReport sweep =
      zero_one_check(net, with_engine(CertifyEngine::Sweep, &pool));
  EXPECT_EQ(pooled.failing_vector, sweep.failing_vector);
}

}  // namespace
}  // namespace shufflebound
