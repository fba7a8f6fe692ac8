// Differential suite for the wide-lane kernel engine: every sweep path
// in the runtime dispatch table (sim/isa.hpp) must agree bit for bit
// with the structure-walking reference kernel (core/bitparallel.hpp) on
// every network model, including the awkward shapes - width 1, the
// single-word and widest sweepable widths, descending comparators, and
// register networks that end in pure-exchange steps the compiler elides
// entirely. Also pins the determinism contract of zero_one_check: the
// minimal failing vector is identical with and without a thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <vector>

#include "adversary/refuter.hpp"
#include "adversary/witness.hpp"
#include "core/bitparallel.hpp"
#include "networks/classic.hpp"
#include "networks/rdn.hpp"
#include "networks/shuffle.hpp"
#include "sim/bitparallel.hpp"
#include "sim/compiled_net.hpp"
#include "sim/isa.hpp"
#include "sim/simd.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {
namespace {

/// Random leveled circuit mixing ascending, descending and exchange
/// elements on shuffled disjoint pairs, with some wires left idle.
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

/// Minimal failing 0/1 vector in [lo, hi) (lo a multiple of 64) by the
/// reference kernel: per-bit input construction, 64 vectors per word,
/// structure-walking evaluator. Register networks are checked in
/// register order, as zero_one_check does.
template <typename Net>
std::optional<std::uint64_t> reference_min_failing_in(const Net& net,
                                                      std::uint64_t lo,
                                                      std::uint64_t hi) {
  const wire_t n = net.width();
  std::vector<std::uint64_t> words(n);
  for (std::uint64_t base = lo; base < hi; base += 64) {
    for (wire_t w = 0; w < n; ++w) {
      std::uint64_t word = 0;
      for (std::uint64_t s = 0; s < 64; ++s)
        word |= ((base + s) >> w & 1ull) << s;
      words[w] = word;
    }
    evaluate_packed(net, words);
    std::uint64_t bad = 0;
    for (wire_t w = 0; w + 1 < n; ++w) bad |= words[w] & ~words[w + 1];
    bad &= simd::valid_mask(base, hi);
    if (bad != 0)
      return base + static_cast<std::uint64_t>(std::countr_zero(bad));
  }
  return std::nullopt;
}

template <typename Net>
std::optional<std::uint64_t> reference_min_failing(const Net& net) {
  return reference_min_failing_in(net, 0, std::uint64_t{1} << net.width());
}

/// Minimal failing vector over all 2^n inputs by one dispatch path's
/// sweep_block, folding blocks in ascending order.
std::optional<std::uint64_t> dispatched_min_failing(
    const simd::KernelDispatch& kernel, const CompiledNetwork& net) {
  const std::uint64_t total = std::uint64_t{1} << net.width();
  for (std::uint64_t base = 0; base < total; base += kernel.lane_bits) {
    const std::uint64_t failing = kernel.sweep_block(net, base, total);
    if (failing != UINT64_MAX) return failing;
  }
  return std::nullopt;
}

/// Register network of random steps followed by `trailing` steps that
/// are pure exchanges: data movement the compiler folds into the output
/// order, so the compiled program ends before the source network does.
RegisterNetwork trailing_exchange_register(wire_t n, int trailing,
                                           Prng& rng) {
  RegisterNetwork net(n);
  static constexpr GateOp kOps[] = {GateOp::CompareAsc, GateOp::CompareDesc,
                                    GateOp::Exchange, GateOp::Passthrough};
  for (int s = 0; s < 4; ++s) {
    std::vector<GateOp> ops(n / 2);
    for (auto& op : ops) op = kOps[rng.below(4)];
    net.add_step({random_permutation(n, rng), std::move(ops)});
  }
  for (int s = 0; s < trailing; ++s)
    net.add_step({random_permutation(n, rng),
                  std::vector<GateOp>(n / 2, GateOp::Exchange)});
  return net;
}

// ------------------------------------------------------ input words --

TEST(SimdLane, PatternWordMatchesPerBitConstruction) {
  for (const std::uint32_t w : {0u, 1u, 5u, 6u, 7u, 20u, 63u}) {
    for (const std::uint64_t lo : {std::uint64_t{0}, std::uint64_t{64},
                                   std::uint64_t{1} << 20,
                                   (std::uint64_t{1} << 21) - 64}) {
      std::uint64_t expect = 0;
      for (std::uint64_t s = 0; s < 64; ++s)
        expect |= ((lo + s) >> w & 1ull) << s;
      EXPECT_EQ(simd::pattern_word(w, lo), expect) << "w=" << w << " lo=" << lo;
    }
  }
}

TEST(SimdLane, ValidMaskBoundaries) {
  EXPECT_EQ(simd::valid_mask(0, 64), ~0ull);
  EXPECT_EQ(simd::valid_mask(0, 1), 1ull);
  EXPECT_EQ(simd::valid_mask(0, 63), (1ull << 63) - 1);
  EXPECT_EQ(simd::valid_mask(64, 64), 0ull);
  EXPECT_EQ(simd::valid_mask(128, 130), 3ull);
  EXPECT_EQ(simd::valid_mask(64, 65), 1ull);
}

// ------------------------------------------- packed-kernel agreement --

TEST(SimdDifferential, PackedKernelsAgreeOnRandomCircuits) {
  // Every available dispatch path against the reference, on the exact
  // minimal failing vector. Full sweeps cover width 1, widths inside one
  // 64-vector word, exactly one word (n = 6) and several blocks per
  // path; random circuits mix ascending, descending and exchange gates.
  Prng rng(101);
  std::vector<ComparatorNetwork> circuits;
  circuits.emplace_back(1);
  for (const wire_t n : {2u, 5u, 6u, 7u, 12u}) {
    for (int rep = 0; rep < 4; ++rep)
      circuits.push_back(random_mixed_circuit(n, 6, rng));
    circuits.push_back(brick_sorter(n));
  }
  std::vector<RegisterNetwork> registers;
  for (const wire_t n : {2u, 6u, 10u})
    for (const int trailing : {1, 2})
      registers.push_back(trailing_exchange_register(n, trailing, rng));

  for (const simd::Isa isa : simd::available_isas()) {
    const simd::KernelDispatch& kernel = simd::kernel_for(isa);
    for (std::size_t c = 0; c < circuits.size(); ++c)
      ASSERT_EQ(dispatched_min_failing(kernel, compile(circuits[c])),
                reference_min_failing(circuits[c]))
          << kernel.name << " circuit=" << c
          << " n=" << circuits[c].width();
    for (std::size_t r = 0; r < registers.size(); ++r) {
      const CompiledNetwork compiled = compile(registers[r]);
      ASSERT_EQ(compiled.op_count(), registers[r].comparator_count());
      ASSERT_EQ(dispatched_min_failing(kernel, compiled),
                reference_min_failing(registers[r]))
          << kernel.name << " register=" << r
          << " n=" << registers[r].width();
    }
  }

  // The widest sweepable width: 2^30 vectors are too many for the
  // reference, so compare single blocks at seeded bases (multiples of
  // 512, a whole block on every path).
  const wire_t wide = kSweepWidthCap;
  const std::uint64_t total = std::uint64_t{1} << wide;
  const ComparatorNetwork wide_nets[] = {random_mixed_circuit(wide, 6, rng),
                                         brick_sorter(wide)};
  for (const ComparatorNetwork& net : wide_nets) {
    const CompiledNetwork compiled = compile(net);
    for (int sample = 0; sample < 4; ++sample) {
      const std::uint64_t base = rng.below(total / 512) * 512;
      for (const simd::Isa isa : simd::available_isas()) {
        const simd::KernelDispatch& kernel = simd::kernel_for(isa);
        const std::uint64_t got = kernel.sweep_block(compiled, base, total);
        const std::optional<std::uint64_t> expect =
            reference_min_failing_in(net, base, base + kernel.lane_bits);
        ASSERT_EQ(got, expect.value_or(UINT64_MAX))
            << kernel.name << " base=" << base;
      }
    }
  }
}

TEST(SimdDifferential, CompiledApplyMatchesModelEvaluators) {
  Prng rng(202);
  // Circuit model (with exchanges, so output order is non-trivial).
  for (int rep = 0; rep < 8; ++rep) {
    const ComparatorNetwork net = random_mixed_circuit(16, 5, rng);
    const CompiledNetwork compiled = compile(net);
    const Permutation input = random_permutation(16, rng);
    const auto expect = net.evaluate(
        std::vector<wire_t>(input.image().begin(), input.image().end()));
    std::vector<wire_t> values(input.image().begin(), input.image().end());
    std::vector<wire_t> scratch;
    compiled.apply(values, scratch);
    ASSERT_EQ(values, expect) << "circuit rep=" << rep;
  }
  // Register model.
  for (int rep = 0; rep < 8; ++rep) {
    const RegisterNetwork reg = random_shuffle_network(16, 5, rng, {15, 10});
    const CompiledNetwork compiled = compile(reg);
    const Permutation input = random_permutation(16, rng);
    const auto expect = reg.evaluate(
        std::vector<wire_t>(input.image().begin(), input.image().end()));
    std::vector<wire_t> values(input.image().begin(), input.image().end());
    std::vector<wire_t> scratch;
    compiled.apply(values, scratch);
    ASSERT_EQ(values, expect) << "register rep=" << rep;
  }
  // Iterated RDN model.
  for (int rep = 0; rep < 4; ++rep) {
    IteratedRdn net(8);
    net.add_stage({Permutation::identity(8), random_rdn(3, rng, 10, 5)});
    net.add_stage({random_permutation(8, rng), random_rdn(3, rng, 10, 5)});
    const CompiledNetwork compiled = compile(net);
    const Permutation input = random_permutation(8, rng);
    std::vector<wire_t> expect(input.image().begin(), input.image().end());
    net.evaluate_in_place(expect);
    std::vector<wire_t> values(input.image().begin(), input.image().end());
    std::vector<wire_t> scratch;
    compiled.apply(values, scratch);
    ASSERT_EQ(values, expect) << "rdn rep=" << rep;
  }
}

TEST(SimdDifferential, RegisterTrailingExchangesAllPermutations) {
  // The compiler elides exchange ops and permutation steps into the
  // slot indirection; steps that are PURE data movement at the very end
  // of the network exercise exactly the output_order bookkeeping.
  Prng rng(303);
  const RegisterNetwork net = trailing_exchange_register(6, 2, rng);
  const CompiledNetwork compiled = compile(net);
  EXPECT_EQ(compiled.op_count(), net.comparator_count());

  std::vector<wire_t> input(6);
  std::iota(input.begin(), input.end(), 0u);
  std::vector<wire_t> scratch;
  do {
    const auto expect = net.evaluate(input);
    std::vector<wire_t> values = input;
    compiled.apply(values, scratch);
    ASSERT_EQ(values, expect);
  } while (std::next_permutation(input.begin(), input.end()));
}

// ---------------------------------------------- zero_one_check engine --

TEST(SimdZeroOne, MatchesScalarReferenceAtSmallWidths) {
  // Exhaustive agreement on sorts_all AND the minimal failing vector,
  // for widths straddling the 64-vector word size (n < 6 and n >= 6)
  // on sorters, near-sorters, and random junk.
  Prng rng(404);
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
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const auto& net = cases[c];
      const std::optional<std::uint64_t> expect = reference_min_failing(net);
      const ZeroOneReport report = zero_one_check(net);
      ASSERT_EQ(report.sorts_all, !expect.has_value())
          << "n=" << n << " case=" << c;
      ASSERT_EQ(report.failing_vector, expect) << "n=" << n << " case=" << c;
      if (report.sorts_all) {
        EXPECT_EQ(report.vectors_checked, std::uint64_t{1} << n);
      }
      // The compiled-reuse overload must agree with the circuit overload.
      const ZeroOneReport reused = zero_one_check(compile(net));
      EXPECT_EQ(reused.sorts_all, report.sorts_all);
      EXPECT_EQ(reused.failing_vector, report.failing_vector);
    }
  }
}

TEST(SimdZeroOne, PooledSweepIsDeterministic) {
  // The minimal failing vector must not depend on thread count or
  // scheduling: pool runs repeat-match the serial run exactly.
  Prng rng(505);
  ThreadPool pool(4);
  for (int rep = 0; rep < 6; ++rep) {
    const ComparatorNetwork net = random_mixed_circuit(12, 4, rng);
    const ZeroOneReport serial = zero_one_check(net);
    for (int run = 0; run < 3; ++run) {
      const ZeroOneReport pooled = zero_one_check(net, &pool);
      ASSERT_EQ(pooled.sorts_all, serial.sorts_all) << "rep=" << rep;
      ASSERT_EQ(pooled.failing_vector, serial.failing_vector)
          << "rep=" << rep << " run=" << run;
    }
  }
}

TEST(SimdZeroOne, TrivialWidthOne) {
  ComparatorNetwork net(1);
  const CompiledNetwork compiled = compile(net);
  EXPECT_EQ(compiled.width(), 1u);
  EXPECT_EQ(compiled.op_count(), 0u);
  std::vector<wire_t> values{0};
  std::vector<wire_t> scratch;
  compiled.apply(values, scratch);
  EXPECT_EQ(values, (std::vector<wire_t>{0}));
  const ZeroOneReport report = zero_one_check(net);
  EXPECT_TRUE(report.sorts_all);
  EXPECT_EQ(report.vectors_checked, 2u);
}

// ----------------------------------------------- witness replay path --

TEST(SimdWitness, CompiledReplayAgreesWithModelReplay) {
  // The refuter now verifies certificates through the compiled kernel;
  // hold the compiled check_witness to full agreement (both flags) with
  // the structure-walking one, across many witnesses of one refutation.
  Prng rng(5);
  const RegisterNetwork net = random_shuffle_network(16, 5, rng);
  const RefutationResult result = refute(net);
  ASSERT_EQ(result.status, RefutationStatus::Refuted);
  const std::vector<Witness> witnesses =
      enumerate_witnesses(result.adversary, 32);
  ASSERT_FALSE(witnesses.empty());
  const CompiledNetwork compiled = compile(net);
  for (const Witness& w : witnesses) {
    const WitnessCheck model = check_witness(net, w);
    const WitnessCheck replay = check_witness(compiled, w);
    EXPECT_EQ(replay.never_compared, model.never_compared);
    EXPECT_EQ(replay.same_permutation, model.same_permutation);
    EXPECT_TRUE(replay.refutes_sorting());
  }
}

}  // namespace
}  // namespace shufflebound
