// The paper's general sorting-network definition: same output
// permutation on every input, i.e. sorting up to a fixed output rank
// assignment (zero_one_check_up_to_relabel), and certify's one
// strict-then-relabel decision (certify_sorting).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/sortedness.hpp"
#include "analyze/analyzer.hpp"
#include "core/io.hpp"
#include "networks/batcher.hpp"
#include "networks/classic.hpp"
#include "networks/shuffle.hpp"
#include "obs/obs.hpp"
#include "relabel_sorters.hpp"
#include "routing/benes.hpp"
#include "search/shuffle_search.hpp"
#include "service/job.hpp"
#include "sim/bitparallel.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {
namespace {

TEST(Relabel, StrictSorterGetsIdentityRanks) {
  const auto report = zero_one_check_up_to_relabel(bitonic_sorting_network(8));
  ASSERT_TRUE(report.sorts);
  EXPECT_TRUE(report.ranks->is_identity());
}

TEST(Relabel, SorterFollowedByPermutationStillSorts) {
  // A sorter with a Benes-routed permutation glued on maps every input
  // to the same (non-identity) output: strict check fails, relabeled
  // check recovers exactly the glued permutation as the rank map.
  Prng rng(1);
  const Permutation shuffle_out = shuffle_permutation(8);
  ComparatorNetwork net(8);
  net.append(bitonic_sorting_network(8));
  net.append(benes_route(shuffle_out));
  EXPECT_FALSE(zero_one_check(net).sorts_all);
  const auto report = zero_one_check_up_to_relabel(net);
  ASSERT_TRUE(report.sorts);
  EXPECT_FALSE(report.ranks->is_identity());
  // The wire that ends holding rank r is shuffle_out^{-1}... verify
  // semantically: sorting any input then permuting puts rank
  // shuffle_out(r)... just check the rank map inverts the glued route:
  // value with rank k lands on wire shuffle_out(k), so ranks[shuffle(k)]
  // = k.
  for (wire_t k = 0; k < 8; ++k)
    EXPECT_EQ((*report.ranks)[shuffle_out[k]], k);
}

TEST(Relabel, FlattenedRegisterSorterSortsUpToRelabel) {
  // The exact situation that motivated this API: the minimal 3-step
  // width-4 shuffle sorter sorts in register order; its circuit
  // flattening carries a final wire permutation.
  const auto result = exact_min_depth_shuffle_sorter(4, 6);
  ASSERT_TRUE(result.has_value());
  const auto flat = register_to_circuit(result->network);
  EXPECT_FALSE(zero_one_check(flat.circuit).sorts_all);
  const auto report = zero_one_check_up_to_relabel(flat.circuit);
  ASSERT_TRUE(report.sorts);
  // The recovered ranks must match the flattening's placement map:
  // register r (rank r at the end) holds wire register_to_wire[r].
  for (wire_t r = 0; r < 4; ++r)
    EXPECT_EQ((*report.ranks)[flat.register_to_wire[r]], r);
}

TEST(Relabel, NonSorterRejected) {
  Prng rng(2);
  const auto shallow = random_shuffle_network(8, 3, rng);
  EXPECT_FALSE(zero_one_check_up_to_relabel(shallow).sorts);
  const auto flat = register_to_circuit(shallow);
  EXPECT_FALSE(zero_one_check_up_to_relabel(flat.circuit).sorts);
}

TEST(Relabel, ExchangeOnlyNetworkIsNotASorter) {
  // Routes are permutations (same output permutation only relative to
  // the INPUT, which differs per input): must be rejected.
  const auto route = benes_route(shuffle_permutation(8));
  EXPECT_FALSE(zero_one_check_up_to_relabel(route).sorts);
}

TEST(Relabel, RegisterModelOverload) {
  const auto result = exact_min_depth_shuffle_sorter(4, 6);
  ASSERT_TRUE(result.has_value());
  const auto report = zero_one_check_up_to_relabel(result->network);
  ASSERT_TRUE(report.sorts);
  EXPECT_TRUE(report.ranks->is_identity());  // sorts in register order
}

TEST(Relabel, WidthGuard) {
  // The relabel sweep shares the sweep engine's n <= 30 cap.
  EXPECT_THROW(zero_one_check_up_to_relabel(ComparatorNetwork(31)),
               std::invalid_argument);
}

TEST(Relabel, PooledSweepMatchesSerial) {
  // The sharded pool sweep must agree with the serial one exactly: same
  // verdict and the same recovered rank permutation for sorters, same
  // rejection for non-sorters and for the divergence-heavy route case.
  ThreadPool pool(4);

  Prng rng(1);
  const Permutation shuffle_out = shuffle_permutation(8);
  ComparatorNetwork permuted(8);
  permuted.append(bitonic_sorting_network(8));
  permuted.append(benes_route(shuffle_out));
  const auto serial = zero_one_check_up_to_relabel(permuted);
  const auto pooled = zero_one_check_up_to_relabel(permuted, &pool);
  ASSERT_TRUE(serial.sorts);
  ASSERT_TRUE(pooled.sorts);
  EXPECT_TRUE(std::ranges::equal(pooled.ranks->image(), serial.ranks->image()));

  Prng rng2(2);
  const auto shallow = random_shuffle_network(8, 3, rng2);
  EXPECT_FALSE(zero_one_check_up_to_relabel(shallow, &pool).sorts);
  EXPECT_FALSE(
      zero_one_check_up_to_relabel(benes_route(shuffle_out), &pool).sorts);

  // A width where the pool actually shards across many blocks.
  const auto big = zero_one_check_up_to_relabel(bitonic_sorting_network(16),
                                                &pool);
  ASSERT_TRUE(big.sorts);
  EXPECT_TRUE(big.ranks->is_identity());
}

TEST(Relabel, ProgressHookRunsInsideTheSweep) {
  // A strict sorter never diverges, so the sweep covers all 2^20
  // vectors unless the hook stops it.
  int calls = 0;
  const auto hook = [&calls] {
    if (++calls == 2) throw std::runtime_error("deadline");
  };
  EXPECT_THROW(zero_one_check_up_to_relabel(brick_sorter(20), nullptr, hook),
               std::runtime_error);
  EXPECT_EQ(calls, 2);
}

// --- certify_sorting ----------------------------------------------------

std::uint64_t counter(std::string_view name) {
  return obs::counter(name).value();
}

/// Counts one certify_sorting call's decision paths from the obs
/// counters.
struct Decision {
  SortingReport report;
  std::uint64_t analyze_proofs = 0;
  std::uint64_t probe_refutes = 0;
  std::uint64_t sweeps = 0;
};

template <typename Net>
Decision decide(const Net& net, const CertifyOptions& opts = {}) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t proofs = counter("kernel.relabel_analyze_proofs");
  const std::uint64_t refutes = counter("kernel.relabel_probe_refutes");
  const std::uint64_t sweeps = counter("kernel.relabel_sweeps");
  Decision out{certify_sorting(net, opts)};
  out.analyze_proofs = counter("kernel.relabel_analyze_proofs") - proofs;
  out.probe_refutes = counter("kernel.relabel_probe_refutes") - refutes;
  out.sweeps = counter("kernel.relabel_sweeps") - sweeps;
  obs::set_enabled(was_enabled);
  return out;
}

/// The decision as certify made it before certify_sorting: the strict
/// check, then the full relabel sweep within its reach.
template <typename Net>
SortingReport strict_then_sweep(const Net& net) {
  const ZeroOneReport strict = zero_one_check(net, CertifyOptions{});
  SortingReport out;
  out.vectors_checked = strict.vectors_checked;
  if (strict.sorts_all) {
    out.verdict = SortingVerdict::Sorting;
    return out;
  }
  RelabelReport relabeled;
  if (net.width() <= kSweepWidthCap)
    relabeled = zero_one_check_up_to_relabel(net);
  if (relabeled.sorts) {
    out.verdict = SortingVerdict::SortingUpToRelabel;
    out.ranks = relabeled.ranks;
  } else {
    out.failing_vector = strict.failing_vector;
  }
  return out;
}

void expect_same(const SortingReport& got, const SortingReport& want) {
  EXPECT_EQ(sorting_verdict_name(got.verdict),
            std::string(sorting_verdict_name(want.verdict)));
  EXPECT_EQ(got.failing_vector, want.failing_vector);
  ASSERT_EQ(got.ranks.has_value(), want.ranks.has_value());
  if (got.ranks) {
    EXPECT_TRUE(std::ranges::equal(got.ranks->image(), want.ranks->image()));
  }
  EXPECT_EQ(got.vectors_checked, want.vectors_checked);
}

/// A random matching of n wires, each pair an ascending comparator, a
/// descending one or an exchange.
Level random_mixed_level(wire_t n, Prng& rng) {
  std::vector<wire_t> wires(n);
  for (wire_t w = 0; w < n; ++w) wires[w] = w;
  for (wire_t w = n; w > 1; --w)
    std::swap(wires[w - 1], wires[static_cast<wire_t>(rng.below(w))]);
  Level level;
  for (wire_t i = 0; i + 1 < n; i += 2) {
    const wire_t lo = std::min(wires[i], wires[i + 1]);
    const wire_t hi = std::max(wires[i], wires[i + 1]);
    switch (rng.below(5)) {
      case 0: break;
      case 1: level.gates.emplace_back(lo, hi, GateOp::CompareDesc); break;
      case 2: level.gates.emplace_back(lo, hi, GateOp::Exchange); break;
      default: level.gates.emplace_back(lo, hi, GateOp::CompareAsc); break;
    }
  }
  return level;
}

/// Seeded networks on n <= 12 wires that mix ascending and descending
/// comparators with exchanges: sorters behind a random prefix and
/// before a random suffix (relabel sorters), the same with one
/// comparator dropped, and plain random mixes.
ComparatorNetwork random_mixed_network(Prng& rng) {
  const auto n = static_cast<wire_t>(3 + rng.below(10));
  ComparatorNetwork net(n);
  const auto shape = rng.below(3);
  if (shape != 2)
    for (auto d = rng.below(3); d > 0; --d)
      net.add_level(random_mixed_level(n, rng));
  if (shape != 2) {
    const ComparatorNetwork sorter =
        rng.below(2) == 0 ? brick_sorter(n) : ascending_bitonic_window(n);
    net.append(shape == 1 ? drop_one_comparator(
                                sorter, rng.below(sorter.comparator_count()))
                          : sorter);
  } else {
    for (auto d = 2 * n; d > 0; --d) net.add_level(random_mixed_level(n, rng));
  }
  for (auto d = rng.below(3); d > 0; --d) {
    Level swaps = random_mixed_level(n, rng);
    for (Gate& g : swaps.gates) g.op = GateOp::Exchange;
    net.add_level(std::move(swaps));
  }
  return net;
}

std::vector<std::string> texts_in(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".txt") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  std::vector<std::string> texts;
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    texts.push_back(buf.str());
  }
  return texts;
}

TEST(CertifySorting, MatchesStrictCheckThenFullSweep) {
  const std::filesystem::path data(SB_TEST_DATA_DIR);
  std::vector<std::string> texts = texts_in(data);
  for (const std::string& text : texts_in(data / "fuzz_seeds"))
    texts.push_back(text);
  for (const std::string& text :
       texts_in(data / ".." / ".." / "examples" / "corpus"))
    texts.push_back(text);
  std::size_t files = 0;
  for (const std::string& text : texts) {
    std::optional<ParsedNetwork> net;
    try {
      net = parse_any_network(text);
    } catch (const std::invalid_argument&) {
      continue;
    }
    // Past the sweep cap the old path had no relabel reach.
    if (net->visit([](const auto& m) { return m.width(); }) > kSweepWidthCap)
      continue;
    SCOPED_TRACE(text);
    ++files;
    const auto check = [](const auto& model) {
      expect_same(decide(model).report, strict_then_sweep(model));
    };
    if (const auto* reg = std::get_if<RegisterNetwork>(&net->model))
      check(*reg);
    else
      net->visit_circuit(check);
  }
  EXPECT_GE(files, 10u);

  Prng rng(22);
  std::size_t relabel_sorters = 0;
  std::size_t probe_refuted = 0;
  std::size_t swept_non_sorters = 0;
  for (int i = 0; i < 600; ++i) {
    const ComparatorNetwork net = random_mixed_network(rng);
    SCOPED_TRACE(to_text(net));
    const Decision got = decide(net);
    expect_same(got.report, strict_then_sweep(net));
    relabel_sorters +=
        got.report.verdict == SortingVerdict::SortingUpToRelabel;
    probe_refuted += got.probe_refutes;
    if (got.report.verdict == SortingVerdict::NotSorting && got.sweeps == 1)
      ++swept_non_sorters;
  }
  EXPECT_GT(relabel_sorters, 0u);
  EXPECT_GT(probe_refuted, 0u);
  // At least one non-sorter whose probes all agreed, so the fallback
  // sweep had to refute it.
  EXPECT_GT(swept_non_sorters, 0u);
}

TEST(CertifySorting, UnprovableRelabelSorterReachesTheSweep) {
  const ComparatorNetwork net = unprovable_relabel_sorter(8);
  ASSERT_EQ(analyze(net).verdict, AnalyzeVerdict::Inconclusive);
  const Decision got = decide(net);
  ASSERT_EQ(got.report.verdict, SortingVerdict::SortingUpToRelabel);
  EXPECT_EQ(got.analyze_proofs, 0u);
  EXPECT_EQ(got.probe_refutes, 0u);
  EXPECT_EQ(got.sweeps, 1u);
  EXPECT_FALSE(got.report.failing_vector.has_value());
  // The final exchange swaps the ranks of wires 0 and 7.
  const std::vector<wire_t> ranks = {7, 1, 2, 3, 4, 5, 6, 0};
  EXPECT_TRUE(std::ranges::equal(got.report.ranks->image(), ranks));
  EXPECT_EQ(got.report.vectors_checked, 256u);
}

TEST(CertifySorting, AnalyzerProofDecidesAtAnyWidth) {
  for (const wire_t n : {wire_t{16}, wire_t{32}, wire_t{64}}) {
    SCOPED_TRACE(n);
    ComparatorNetwork net = odd_even_mergesort_network(n);
    net.add_level({Gate(0, n - 1, GateOp::Exchange)});
    const Decision got = decide(net);
    ASSERT_EQ(got.report.verdict, SortingVerdict::SortingUpToRelabel);
    EXPECT_EQ(got.analyze_proofs, 1u);
    EXPECT_EQ(got.sweeps, 0u);
    ASSERT_TRUE(got.report.ranks.has_value());
    EXPECT_EQ((*got.report.ranks)[0], n - 1);
    EXPECT_EQ((*got.report.ranks)[n - 1], 0u);
    EXPECT_EQ(got.report.vectors_checked,
              n >= 64 ? UINT64_MAX : std::uint64_t{1} << n);
    if (n <= kSweepWidthCap)
      expect_same(got.report, strict_then_sweep(net));
  }
}

TEST(CertifySorting, ProbeRefutesAnAllAscendingNonSorter) {
  // Without descending comparators or exchanges the sorted input of the
  // failing vector's weight is a fixed point, so the probe disagrees.
  const ComparatorNetwork net = drop_one_comparator(brick_sorter(20), 7);
  const Decision got = decide(net);
  EXPECT_EQ(got.report.verdict, SortingVerdict::NotSorting);
  EXPECT_EQ(got.probe_refutes, 1u);
  EXPECT_EQ(got.sweeps, 0u);
  EXPECT_EQ(got.report.failing_vector, zero_one_check(net).failing_vector);
}

TEST(CertifySorting, ForcedEnginesKeepTheirOwnPath) {
  // A forced enumerative engine runs even when the analyzer could
  // decide: the verdict is the same, reached through the strict check
  // and the sweep. The forced analyze engine takes the analyzer's proof.
  ComparatorNetwork net = odd_even_mergesort_network(8);
  net.add_level({Gate(0, 7, GateOp::Exchange)});
  CertifyOptions sweep_only;
  sweep_only.engine = CertifyEngine::Sweep;
  const Decision swept = decide(net, sweep_only);
  EXPECT_EQ(swept.report.verdict, SortingVerdict::SortingUpToRelabel);
  EXPECT_EQ(swept.analyze_proofs, 0u);
  EXPECT_EQ(swept.sweeps, 1u);
  expect_same(swept.report, strict_then_sweep(net));

  CertifyOptions analyze_only;
  analyze_only.engine = CertifyEngine::Analyze;
  const Decision proved = decide(net, analyze_only);
  EXPECT_EQ(proved.analyze_proofs, 1u);
  EXPECT_EQ(proved.sweeps, 0u);
  expect_same(proved.report, strict_then_sweep(net));
  // Without a proof the forced analyze engine still refuses to guess.
  EXPECT_THROW(certify_sorting(unprovable_relabel_sorter(8), analyze_only),
               std::runtime_error);
}

TEST(CertifySorting, PastTheSweepCapAnUnrefutedRelabelSorterIsUndecided) {
  // n = 32: the strict check reaches the frontier engine, the relabel
  // sweep does not. All 64 probe lanes agree, as they must on a relabel
  // sorter, so nothing decides and the strict failing vector is kept.
  const ComparatorNetwork net = unprovable_relabel_sorter(32);
  ASSERT_EQ(analyze(net).verdict, AnalyzeVerdict::Inconclusive);
  const Decision got = decide(net);
  EXPECT_EQ(got.report.verdict, SortingVerdict::RelabelUndecided);
  EXPECT_STREQ(sorting_verdict_name(got.report.verdict), "relabel-undecided");
  EXPECT_EQ(got.probe_refutes, 0u);
  EXPECT_EQ(got.sweeps, 0u);
  EXPECT_EQ(got.report.failing_vector, zero_one_check(net).failing_vector);
  EXPECT_FALSE(got.report.ranks.has_value());
}

TEST(CertifySorting, PastTheSweepCapTheProbeStillRefutes) {
  // An all-ascending non-sorter on n = 32 and on n = 40, where 2n probe
  // lanes would not fit one word and the probe keeps its first 64.
  for (const wire_t n : {wire_t{32}, wire_t{40}}) {
    SCOPED_TRACE(n);
    const ComparatorNetwork net =
        drop_one_comparator(ascending_bitonic_window(n), 5);
    const Decision got = decide(net);
    EXPECT_EQ(got.report.verdict, SortingVerdict::NotSorting);
    EXPECT_EQ(got.probe_refutes, 1u);
    EXPECT_EQ(got.sweeps, 0u);
    EXPECT_EQ(got.report.failing_vector, zero_one_check(net).failing_vector);
  }
}

}  // namespace
}  // namespace shufflebound
