// Differential suite for the frontier certification engine
// (sim/frontier.hpp) and the hybrid dispatcher (CertifyOptions in
// sim/bitparallel.hpp): the frontier, the wide-lane sweep, and the
// scalar reference kernel must agree bit for bit - same sorts_all, same
// MINIMAL failing vector - on sorting and non-sorting networks, with
// tracing on and off. CI also runs the whole file with
// SHUFFLEBOUND_FORCE_ISA=scalar and =generic (the sweep legs drop to the
// 64-bit and 256-bit dispatch paths there), so agreement is pinned
// across lane widths too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sortedness.hpp"
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

// -------------------------------------------------- report pins --
//
// Every FrontierReport field, recorded from the sort-based dedup engine:
// the layout of a level's entries is internal, so a rewrite of the state
// pass must reproduce each count and witness exactly.

/// One network the pin runs, at the budget it is run with.
struct PinCase {
  std::string name;
  CompiledNetwork net;
  std::uint64_t budget;
};

std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  const auto add = [&](std::string name, CompiledNetwork net,
                       std::uint64_t budget = kDefaultFrontierBudget) {
    cases.push_back({std::move(name), std::move(net), budget});
  };
  add("bitonic-16", compile(bitonic_sorting_network(16)));
  add("bitonic-32", compile(bitonic_sorting_network(32)));
  add("oemt-24", compile(truncated_oem(24)));
  add("oemt-48", compile(truncated_oem(48)));
  add("shuffle-16", compile(bitonic_on_shuffle(16)));
  add("shuffle-32", compile(bitonic_on_shuffle(32)));
  add("brick-20", compile(brick_sorter(20)));
  add("brick-22", compile(brick_sorter(22)));
  const ComparatorNetwork brick22 = brick_sorter(22);
  add("brick-22-cut", compile(brick22.slice(0, brick22.depth() - 1)));
  // Near-sorters at the widths Auto attempts, at Auto's clamped budget.
  for (wire_t n = 21; n <= 28; ++n) {
    const std::uint64_t budget = std::uint64_t{1} << (n - 8);
    const ComparatorNetwork base = truncated_oem(n);
    add("oemt-" + std::to_string(n) + "-drop",
        compile(drop_one_comparator(base, 3 * n)), budget);
    ComparatorNetwork inserted(n);
    for (std::size_t l = 0; l < base.depth(); ++l) {
      if (l == 2) inserted.add_level({Gate(n / 3, n - 2, GateOp::CompareAsc)});
      inserted.add_level(base.level(l));
    }
    add("oemt-" + std::to_string(n) + "-ins", compile(inserted), budget);
    if (n % 2 == 0)
      add("oemt-" + std::to_string(n) + "-droplate",
          compile(drop_one_comparator(base, base.comparator_count() - 5)),
          budget);
  }
  return cases;
}

struct PinRow {
  const char* name;
  bool collapse;
  bool completed;
  bool sorts_all;
  std::optional<std::uint64_t> failing_vector;
  std::uint64_t peak_states;
  std::uint64_t peak_entries;
  std::uint64_t settled_peak;
  std::uint64_t states_expanded;
  std::uint64_t dedup_removed;
  std::size_t levels_processed;
};

constexpr std::nullopt_t kNone = std::nullopt;

// clang-format off
const PinRow kPinRows[] = {
    {"bitonic-16", true, true, true, kNone, 73u, 56u, 20u, 560u, 120u, 10u},
    {"bitonic-16", false, true, true, kNone, 73u, 73u, 0u, 639u, 120u, 10u},
    {"bitonic-32", true, true, true, kNone, 273u, 240u, 40u, 2225u, 496u, 15u},
    {"bitonic-32", false, true, true, kNone, 273u, 273u, 0u, 2464u, 496u, 15u},
    {"oemt-24", true, true, true, kNone, 117u, 92u, 36u, 1097u, 276u, 15u},
    {"oemt-24", false, true, true, kNone, 117u, 117u, 0u, 1350u, 276u, 15u},
    {"oemt-48", true, true, true, kNone, 425u, 376u, 72u, 4225u, 1128u, 21u},
    {"oemt-48", false, true, true, kNone, 425u, 425u, 0u, 4974u, 1128u, 21u},
    {"shuffle-16", true, true, true, kNone, 73u, 56u, 32u, 560u, 120u, 16u},
    {"shuffle-16", false, true, true, kNone, 73u, 73u, 0u, 639u, 120u, 16u},
    {"shuffle-32", true, true, true, kNone, 273u, 240u, 64u, 2225u, 496u, 25u},
    {"shuffle-32", false, true, true, kNone, 273u, 273u, 0u, 2464u, 496u, 25u},
    {"brick-20", true, true, true, kNone, 17711u, 17690u, 30u, 182664u, 59038u, 20u},
    {"brick-20", false, true, true, kNone, 17711u, 17711u, 0u, 183042u, 59038u, 20u},
    {"brick-22", true, true, true, kNone, 46368u, 46345u, 33u, 528898u, 177135u, 22u},
    {"brick-22", false, true, true, kNone, 46368u, 46368u, 0u, 529358u, 177135u, 22u},
    {"brick-22-cut", true, true, false, 3u, 46368u, 46345u, 33u, 528888u, 177125u, 21u},
    {"brick-22-cut", false, true, false, 3u, 46368u, 46368u, 0u, 529325u, 177125u, 21u},
    {"oemt-21-drop", true, true, false, 771u, 105u, 83u, 32u, 981u, 218u, 15u},
    {"oemt-21-drop", false, true, false, 771u, 105u, 105u, 0u, 1205u, 218u, 15u},
    {"oemt-21-ins", true, true, false, 48u, 360u, 338u, 32u, 3351u, 771u, 16u},
    {"oemt-21-ins", false, true, false, 48u, 360u, 360u, 0u, 3597u, 771u, 16u},
    {"oemt-22-drop", true, true, false, 771u, 119u, 96u, 33u, 1067u, 241u, 15u},
    {"oemt-22-drop", false, true, false, 771u, 119u, 119u, 0u, 1299u, 241u, 15u},
    {"oemt-22-ins", true, true, false, 16u, 800u, 777u, 33u, 6059u, 1351u, 16u},
    {"oemt-22-ins", false, true, false, 16u, 800u, 800u, 0u, 6318u, 1351u, 16u},
    {"oemt-22-droplate", true, true, false, 66047u, 98u, 75u, 33u, 959u, 230u, 15u},
    {"oemt-22-droplate", false, true, false, 66047u, 98u, 98u, 0u, 1191u, 230u, 15u},
    {"oemt-23-drop", true, true, false, 287u, 132u, 108u, 35u, 1153u, 265u, 15u},
    {"oemt-23-drop", false, true, false, 287u, 132u, 132u, 0u, 1397u, 265u, 15u},
    {"oemt-23-ins", true, true, false, 48u, 650u, 626u, 35u, 5851u, 1442u, 16u},
    {"oemt-23-ins", false, true, false, 48u, 650u, 650u, 0u, 6121u, 1442u, 16u},
    {"oemt-24-drop", true, true, false, 287u, 143u, 118u, 36u, 1233u, 290u, 15u},
    {"oemt-24-drop", false, true, false, 287u, 143u, 143u, 0u, 1486u, 290u, 15u},
    {"oemt-24-ins", true, true, false, 3841u, 508u, 483u, 36u, 5295u, 1381u, 16u},
    {"oemt-24-ins", false, true, false, 3841u, 508u, 508u, 0u, 5576u, 1381u, 16u},
    {"oemt-24-droplate", true, true, false, 66047u, 117u, 92u, 36u, 1097u, 275u, 15u},
    {"oemt-24-droplate", false, true, false, 66047u, 117u, 117u, 0u, 1350u, 275u, 15u},
    {"oemt-25-drop", true, true, false, 771u, 155u, 129u, 38u, 1355u, 316u, 15u},
    {"oemt-25-drop", false, true, false, 771u, 155u, 155u, 0u, 1624u, 316u, 15u},
    {"oemt-25-ins", true, true, true, kNone, 763u, 737u, 38u, 7545u, 1996u, 16u},
    {"oemt-25-ins", false, true, true, kNone, 763u, 763u, 0u, 7834u, 1996u, 16u},
    {"oemt-26-drop", true, true, false, 771u, 164u, 137u, 39u, 1453u, 343u, 15u},
    {"oemt-26-drop", false, true, false, 771u, 164u, 164u, 0u, 1729u, 343u, 15u},
    {"oemt-26-ins", true, true, false, 3841u, 1345u, 1318u, 39u, 8942u, 2505u, 16u},
    {"oemt-26-ins", false, true, false, 3841u, 1345u, 1345u, 0u, 9248u, 2505u, 16u},
    {"oemt-26-droplate", true, true, false, 66047u, 132u, 105u, 39u, 1286u, 324u, 15u},
    {"oemt-26-droplate", false, true, false, 66047u, 132u, 132u, 0u, 1562u, 324u, 15u},
    {"oemt-27-drop", true, true, false, 66367u, 169u, 141u, 41u, 1546u, 372u, 15u},
    {"oemt-27-drop", false, true, false, 66367u, 169u, 169u, 0u, 1837u, 372u, 15u},
    {"oemt-27-ins", true, true, false, 3840u, 1740u, 1712u, 41u, 11455u, 3340u, 16u},
    {"oemt-27-ins", false, true, false, 3840u, 1740u, 1740u, 0u, 11772u, 3340u, 16u},
    {"oemt-28-drop", true, true, false, 7967u, 177u, 148u, 42u, 1641u, 400u, 15u},
    {"oemt-28-drop", false, true, false, 7967u, 177u, 177u, 0u, 1941u, 400u, 15u},
    {"oemt-28-ins", true, true, false, 1281u, 2454u, 2425u, 42u, 15804u, 4640u, 16u},
    {"oemt-28-ins", false, true, false, 1281u, 2454u, 2454u, 0u, 16132u, 4640u, 16u},
    {"oemt-28-droplate", true, true, false, 66047u, 143u, 114u, 42u, 1449u, 377u, 15u},
    {"oemt-28-droplate", false, true, false, 66047u, 143u, 143u, 0u, 1749u, 377u, 15u},
};
// clang-format on

void expect_pinned(const FrontierReport& got, const PinRow& want) {
  const std::string label =
      std::string(want.name) + (want.collapse ? " collapsed" : " flat");
  EXPECT_EQ(got.completed, want.completed) << label;
  EXPECT_EQ(got.sorts_all, want.sorts_all) << label;
  EXPECT_EQ(got.failing_vector, want.failing_vector) << label;
  EXPECT_EQ(got.peak_states, want.peak_states) << label;
  EXPECT_EQ(got.peak_entries, want.peak_entries) << label;
  EXPECT_EQ(got.settled_peak, want.settled_peak) << label;
  EXPECT_EQ(got.states_expanded, want.states_expanded) << label;
  EXPECT_EQ(got.dedup_removed, want.dedup_removed) << label;
  EXPECT_EQ(got.levels_processed, want.levels_processed) << label;
}

TEST(FrontierPin, ReportsMatchTheRecordedValues) {
  const std::vector<PinCase> cases = pin_cases();
  ASSERT_EQ(std::size(kPinRows), 2 * cases.size());
  std::size_t row = 0;
  for (const PinCase& c : cases) {
    for (const bool collapse : {true, false}) {
      const PinRow& want = kPinRows[row++];
      ASSERT_EQ(want.name, c.name);
      ASSERT_EQ(want.collapse, collapse);
      FrontierOptions opts;
      opts.budget = c.budget;
      opts.collapse_sorted = collapse;
      expect_pinned(frontier_zero_one_check(c.net, opts), want);
    }
  }
}

TEST(FrontierPin, OverBudgetAttemptReportsIncomplete) {
  // An Auto-style attempt that dies: the partial stats are pinned too.
  // clang-format off
  const PinRow rows[] = {
      {"brick-24-over", true, false, false, kNone, 36u, 0u, 36u, 88665u, 12u, 1u},
      {"brick-24-over", false, false, false, kNone, 36u, 36u, 0u, 88665u, 12u, 1u},
  };
  // clang-format on
  const CompiledNetwork net = compile(brick_sorter(24));
  for (const PinRow& want : rows) {
    FrontierOptions opts;
    opts.budget = std::uint64_t{1} << 16;
    opts.collapse_sorted = want.collapse;
    const FrontierReport got = frontier_zero_one_check(net, opts);
    EXPECT_FALSE(got.completed);
    expect_pinned(got, want);
  }
}

// --------------------------------------------------- large state sets --

TEST(FrontierLargeSet, BrickSorterMatchesPin) {
  // brick_sorter(22) chains every wire into ONE component at level two
  // (~3^11 = 177k states before dedup): the largest set the pins hold,
  // run through the default options.
  const FrontierReport report =
      frontier_zero_one_check(compile(brick_sorter(22)));
  const auto want = std::find_if(
      std::begin(kPinRows), std::end(kPinRows), [](const PinRow& row) {
        return std::string(row.name) == "brick-22" && row.collapse;
      });
  ASSERT_NE(want, std::end(kPinRows));
  EXPECT_TRUE(report.sorts_all);
  expect_pinned(report, *want);
}

TEST(FrontierLargeSet, NonSorterKeepsMinimalVector) {
  // Same shape minus its last level: the large-set dedup must keep the
  // minimal witness provenance, the exact vector the pooled sweep finds.
  const ComparatorNetwork full = brick_sorter(22);
  const CompiledNetwork net = compile(full.slice(0, full.depth() - 1));
  const FrontierReport frontier = frontier_zero_one_check(net);
  ASSERT_TRUE(frontier.completed);
  ASSERT_FALSE(frontier.sorts_all);
  ThreadPool pool(8);
  const ZeroOneReport sweep =
      zero_one_check(net, with_engine(CertifyEngine::Sweep, &pool));
  EXPECT_EQ(frontier.failing_vector, sweep.failing_vector);
}

}  // namespace
}  // namespace shufflebound
