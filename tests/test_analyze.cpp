// Differential validation of the semantic analyzer (analyze/) against
// the enumerative certification oracles:
//
//  * soundness - on every example network and hundreds of fuzzed random
//    circuits, an analyzer verdict never contradicts the exhaustive
//    sweep oracle (Certified implies the network really sorts);
//  * behavior preservation - redundancy elimination is bit-for-bit
//    output-equivalent on every engine, including the minimal failing
//    0/1 witness and tie-heavy integer inputs;
//  * the acceptance criterion of the analyze subsystem - bitonic and
//    odd-even mergesort are certified statically up to n = 64 with ZERO
//    simulated vectors, proven by the kernel's own obs counters;
//  * analyze jobs flow through the concurrent AnalysisEngine (the test
//    carries the `concurrency` label and runs under TSan in CI).
#include "analyze/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/sortedness.hpp"
#include "core/comparator_network.hpp"
#include "core/io.hpp"
#include "env_iters.hpp"
#include "networks/batcher.hpp"
#include "networks/classic.hpp"
#include "obs/obs.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "sim/bitparallel.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

/// A random circuit: `levels` levels of up to n/2 disjoint comparators
/// with random orientation (occasionally an exchange gate). Dense enough
/// that fuzzed networks regularly contain provably trivial ops.
ComparatorNetwork random_network(Prng& rng, wire_t n, std::size_t levels) {
  ComparatorNetwork net(n);
  std::vector<wire_t> wires(n);
  std::iota(wires.begin(), wires.end(), wire_t{0});
  for (std::size_t l = 0; l < levels; ++l) {
    shuffle_in_place(wires, rng);
    Level level;
    const std::size_t pairs = 1 + rng.below(n / 2);
    for (std::size_t p = 0; p < pairs; ++p) {
      const wire_t a = wires[2 * p];
      const wire_t b = wires[2 * p + 1];
      const std::uint64_t kind = rng.below(8);
      const GateOp op = kind == 0   ? GateOp::Exchange
                        : kind == 1 ? GateOp::CompareDesc
                                    : GateOp::CompareAsc;
      level.gates.emplace_back(a, b, op);
    }
    net.add_level(std::move(level));
  }
  return net;
}

/// Example corpus: every classic construction the repo can generate, at
/// widths the sweep oracle can exhaust.
std::vector<std::pair<std::string, ComparatorNetwork>> example_corpus() {
  std::vector<std::pair<std::string, ComparatorNetwork>> corpus;
  for (const wire_t n : {4, 8, 16}) {
    corpus.emplace_back("bitonic-" + std::to_string(n),
                        bitonic_sorting_network(n));
    corpus.emplace_back("oem-" + std::to_string(n),
                        odd_even_mergesort_network(n));
    corpus.emplace_back("balanced-" + std::to_string(n), balanced_block(n));
    corpus.emplace_back("periodic-" + std::to_string(n),
                        periodic_balanced_sorter(n));
  }
  for (const wire_t n : {5, 8, 13}) {
    corpus.emplace_back("brick-" + std::to_string(n), brick_sorter(n));
    corpus.emplace_back("oet2-" + std::to_string(n),
                        odd_even_transposition_network(n, 2));
  }
  for (const wire_t n : {8, 16})  // pratt requires a power-of-two width
    corpus.emplace_back("pratt-" + std::to_string(n),
                        pratt_shellsort_network(n));
  corpus.emplace_back("broken-bitonic-16",
                      drop_one_comparator(bitonic_sorting_network(16), 3));
  corpus.emplace_back("broken-oem-8",
                      drop_one_comparator(odd_even_mergesort_network(8), 1));
  return corpus;
}

ZeroOneReport sweep_oracle(const CompiledNetwork& net) {
  CertifyOptions opts;
  opts.engine = CertifyEngine::Sweep;
  return zero_one_check(net, opts);
}

/// Checks one network: analyzer verdicts are sound w.r.t. the sweep
/// oracle, and the eliminated network is equivalent under every engine.
void check_network(const std::string& name, const ComparatorNetwork& net,
                   Prng& rng) {
  SCOPED_TRACE(name);
  const AnalyzeReport report = analyze(net);
  const ZeroOneReport truth = sweep_oracle(compile(net));

  // Soundness: a Certified verdict is a proof, so the oracle must agree.
  // (Inconclusive says nothing and can never contradict anything.)
  if (report.verdict == AnalyzeVerdict::Certified)
    EXPECT_TRUE(truth.sorts_all) << "analyzer certified a non-sorter";

  // CertifiedUpToRelabel: output position p always carries the value of
  // rank relabel_ranks[p]. Verify on random tie-heavy integer inputs.
  if (report.verdict == AnalyzeVerdict::CertifiedUpToRelabel) {
    ASSERT_EQ(report.relabel_ranks.size(), net.width());
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<int> values(net.width());
      for (auto& v : values) v = static_cast<int>(rng.below(5));
      std::vector<int> expect = values;
      std::sort(expect.begin(), expect.end());
      const std::vector<int> out = net.evaluate(values);
      for (wire_t p = 0; p < net.width(); ++p)
        ASSERT_EQ(out[p], expect[report.relabel_ranks[p]]);
    }
  }

  // Elimination: identical sweep verdict AND identical minimal witness.
  const EliminationResult reduced = eliminate_redundant(net);
  ASSERT_EQ(reduced.net.width(), net.width());
  ASSERT_EQ(reduced.net.depth(), net.depth());
  ASSERT_EQ(reduced.findings.size(), reduced.removed + reduced.exchanged);
  const ZeroOneReport truth_reduced = sweep_oracle(compile(reduced.net));
  EXPECT_EQ(truth.sorts_all, truth_reduced.sorts_all);
  EXPECT_EQ(truth.failing_vector, truth_reduced.failing_vector)
      << "elimination changed the minimal failing witness";

  // Frontier engine agrees on the reduced network too.
  CertifyOptions frontier;
  frontier.engine = CertifyEngine::Frontier;
  EXPECT_EQ(zero_one_check(compile(reduced.net), frontier).sorts_all,
            truth.sorts_all);

  // Pointwise equivalence on arbitrary values - including ties, which is
  // exactly where an unsound "proven ordered" fact would surface.
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<int> values(net.width());
    for (auto& v : values) v = static_cast<int>(rng.below(4));
    EXPECT_EQ(net.evaluate(values), reduced.net.evaluate(values));
  }
}

TEST(AnalyzeDifferential, ExampleCorpusAgreesWithOracle) {
  Prng rng(0xA11CE);
  for (const auto& [name, net] : example_corpus())
    check_network(name, net, rng);
}

TEST(AnalyzeDifferential, FuzzedNetworksAgreeWithOracle) {
  Prng rng(0xF00D);
  const int rounds = testenv::scaled(200);
  std::size_t trivial_seen = 0;
  for (int round = 0; round < rounds; ++round) {
    const wire_t n = static_cast<wire_t>(4 + 2 * rng.below(5));  // 4..12
    const std::size_t levels = 1 + rng.below(8);
    const ComparatorNetwork net = random_network(rng, n, levels);
    trivial_seen += analyze(net).trivial_ops.size();
    check_network("fuzz-" + std::to_string(round), net, rng);
  }
  // The fuzzer must actually exercise the elimination path, not just
  // vacuously pass on fully-effective networks.
  EXPECT_GT(trivial_seen, 0u);
}

// The acceptance criterion: bitonic and odd-even mergesort certify
// statically up to n = 64, with the kernel's own counters proving that
// not one vector was simulated.
TEST(AnalyzeCertification, CertifiesBitonicAndOemUpTo64WithZeroSimulation) {
  obs::set_enabled(true);
  for (const wire_t n : {16, 32, 64}) {
    for (const bool oem : {false, true}) {
      SCOPED_TRACE((oem ? "oem-" : "bitonic-") + std::to_string(n));
      obs::reset();
      const ComparatorNetwork net =
          oem ? odd_even_mergesort_network(n) : bitonic_sorting_network(n);
      const ZeroOneReport report = zero_one_check(net, CertifyOptions{});
      EXPECT_TRUE(report.sorts_all);
      EXPECT_EQ(report.vectors_checked,
                n >= 64 ? UINT64_MAX : std::uint64_t{1} << n);
      EXPECT_GE(obs::counter("kernel.analyze_certified").value(), 1u);
      EXPECT_EQ(obs::counter("kernel.vectors_evaluated").value(), 0u)
          << "static certification must not simulate any vector";
    }
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(AnalyzeCertification, ForcedAnalyzeEngineThrowsWhenInconclusive) {
  // Sound but incomplete: a non-sorter is never refuted, only
  // inconclusive - the forced engine must say so loudly.
  const ComparatorNetwork broken =
      drop_one_comparator(bitonic_sorting_network(16), 3);
  CertifyOptions opts;
  opts.engine = CertifyEngine::Analyze;
  EXPECT_THROW(zero_one_check(broken, opts), std::runtime_error);

  // Auto still reaches the exact refutation through the enumerative
  // engines after the static pass declines.
  const ZeroOneReport report = zero_one_check(broken, CertifyOptions{});
  EXPECT_FALSE(report.sorts_all);
  EXPECT_TRUE(report.failing_vector.has_value());
}

TEST(AnalyzeElimination, HandcraftedRedundancyIsFoundAndRewritten) {
  // Level 0 orders {0,1}; repeating the comparator is provably redundant,
  // and comparing against a descending pair is provably always-exchange.
  ComparatorNetwork net(4);
  {
    Level l0;
    l0.gates.emplace_back(0, 1, GateOp::CompareAsc);
    l0.gates.emplace_back(2, 3, GateOp::CompareDesc);
    net.add_level(std::move(l0));
  }
  {
    Level l1;
    l1.gates.emplace_back(0, 1, GateOp::CompareAsc);  // redundant
    l1.gates.emplace_back(2, 3, GateOp::CompareAsc);  // always exchanges
    net.add_level(std::move(l1));
  }
  const AnalyzeReport report = analyze(net);
  EXPECT_EQ(report.redundant_count(), 1u);
  EXPECT_EQ(report.always_exchange_count(), 1u);
  ASSERT_EQ(report.trivial_ops.size(), 2u);
  EXPECT_EQ(report.trivial_ops[0].level, 1u);
  EXPECT_EQ(report.trivial_ops[1].level, 1u);

  const EliminationResult reduced = eliminate_redundant(net);
  EXPECT_EQ(reduced.removed, 1u);
  EXPECT_EQ(reduced.exchanged, 1u);
  Prng rng(77);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<int> values(4);
    for (auto& v : values) v = static_cast<int>(rng.below(3));
    EXPECT_EQ(net.evaluate(values), reduced.net.evaluate(values));
  }
}

// --- One analyzer pass per certify -------------------------------------

/// A sorter followed by `tail`, a level appended to it: repeating the
/// sorter's last level makes every tail comparator Redundant, a level of
/// descending comparators on sorted neighbours makes each one
/// AlwaysExchange, and exchanges give a sorting-up-to-relabel network.
ComparatorNetwork with_tail(ComparatorNetwork net, GateOp op) {
  Level tail;
  for (wire_t w = 0; w + 1 < net.width(); w += 2)
    tail.gates.emplace_back(w, w + 1, op);
  net.add_level(std::move(tail));
  return net;
}

/// The verdict eliminate_redundant carries (its pass over the original
/// network) must equal a fresh analysis of the eliminated, compiled
/// network - what the certify path analyzes on an arena hit.
void expect_elimination_verdict_matches(const std::string& name,
                                        const ComparatorNetwork& net) {
  SCOPED_TRACE(name);
  const EliminationResult reduced = eliminate_redundant(net);
  const AnalyzeReport fresh =
      analyze(level_program_from_compiled(compile(reduced.net)));
  EXPECT_EQ(reduced.verdict, fresh.verdict);
  if (fresh.verdict == AnalyzeVerdict::CertifiedUpToRelabel) {
    EXPECT_EQ(reduced.relabel_ranks, fresh.relabel_ranks);
  } else {
    EXPECT_TRUE(reduced.relabel_ranks.empty());
  }
}

std::size_t analyze_certify_spans() {
  std::size_t spans = 0;
  for (const obs::SpanRecord& span : obs::registry().snapshot_spans())
    if (std::string_view(span.name) == "analyze_certify") ++spans;
  return spans;
}

TEST(AnalyzeElimination, VerdictMatchesAnalysisOfTheEliminatedNetwork) {
  std::vector<std::pair<std::string, ComparatorNetwork>> corpus =
      example_corpus();
  corpus.emplace_back("brick-8-repeat-tail",
                      with_tail(brick_sorter(8), GateOp::CompareAsc));
  corpus.emplace_back("bitonic-8-desc-tail",
                      with_tail(bitonic_sorting_network(8),
                                GateOp::CompareDesc));
  corpus.emplace_back("oem-16-exchange-tail",
                      with_tail(odd_even_mergesort_network(16),
                                GateOp::Exchange));
  corpus.emplace_back("bitonic-64", bitonic_sorting_network(64));
  corpus.emplace_back("oem-64", odd_even_mergesort_network(64));
  std::size_t seen[3] = {0, 0, 0};
  for (const auto& [name, net] : corpus) {
    expect_elimination_verdict_matches(name, net);
    ++seen[static_cast<int>(eliminate_redundant(net).verdict)];
  }
  Prng rng(0xD1FF);
  for (int round = 0; round < 200; ++round) {
    const wire_t n = static_cast<wire_t>(2 + rng.below(15));  // 2..16
    const ComparatorNetwork net = random_network(rng, n, 1 + rng.below(12));
    expect_elimination_verdict_matches("random-" + std::to_string(round),
                                       net);
    ++seen[static_cast<int>(eliminate_redundant(net).verdict)];
  }
  for (const AnalyzeVerdict verdict :
       {AnalyzeVerdict::Certified, AnalyzeVerdict::CertifiedUpToRelabel,
        AnalyzeVerdict::Inconclusive})
    EXPECT_GT(seen[static_cast<int>(verdict)], 0u)
        << "no " << analyze_verdict_name(verdict) << " case exercised";
}

TEST(AnalyzeCertification, OneAnalyzerPassPerCertify) {
  // Every analyzer pass on the certify path runs under one
  // kernel/analyze_certify span: the elimination pass on an arena miss
  // or without an arena, analyze_zero_one on an arena hit.
  obs::set_enabled(true);
  const std::pair<std::string, ComparatorNetwork> cases[] = {
      {"bitonic-16", bitonic_sorting_network(16)},
      {"brick-8-repeat-tail", with_tail(brick_sorter(8), GateOp::CompareAsc)},
      {"broken-oem-8", drop_one_comparator(odd_even_mergesort_network(8), 1)},
  };
  for (const CertifyEngine engine :
       {CertifyEngine::Auto, CertifyEngine::Analyze}) {
    for (const auto& [name, net] : cases) {
      SCOPED_TRACE(name + " " + certify_engine_name(engine));
      CompilationArena arena;
      CertifyOptions plain;
      plain.engine = engine;
      CertifyOptions cached = plain;
      cached.arena = &arena;
      cached.arena_key = ArenaKey{1, 2};
      std::optional<bool> sorts;
      for (const CertifyOptions* opts : {&plain, &cached, &cached}) {
        obs::reset();
        bool certified = false;
        try {
          certified = zero_one_check(net, *opts).sorts_all;
        } catch (const std::runtime_error&) {
          // Forced analyze on a network it cannot prove: same verdict
          // on every path, checked through `sorts` below.
        }
        EXPECT_EQ(analyze_certify_spans(), 1u);
        EXPECT_EQ(obs::counter("kernel.analyze_certified").value() +
                      obs::counter("kernel.analyze_inconclusive").value(),
                  1u);
        if (sorts) {
          EXPECT_EQ(*sorts, certified);
        }
        sorts = certified;
      }
      EXPECT_EQ(arena.stats().misses, 1u);
      EXPECT_EQ(arena.stats().hits, 1u);
    }
  }
  obs::set_enabled(false);
  obs::reset();
}

// Analyze jobs through the concurrent batch engine: many workers, every
// result ok, verdicts matching the direct API. Runs under TSan via the
// `concurrency` ctest label.
TEST(AnalyzeService, ParallelAnalyzeJobsMatchDirectVerdicts) {
  std::vector<std::string> lines;
  std::vector<std::string> expected;
  Prng rng(0xBEEF);
  for (int i = 0; i < 24; ++i) {
    ComparatorNetwork net = [&]() -> ComparatorNetwork {
      switch (i % 3) {
        case 0: return bitonic_sorting_network(8);
        case 1: return drop_one_comparator(odd_even_mergesort_network(8), 2);
        default: return random_network(rng, 8, 3);
      }
    }();
    expected.push_back(analyze_verdict_name(analyze(net).verdict));
    JsonValue job = JsonValue::object();
    job.set("id", "a" + std::to_string(i));
    job.set("op", "analyze");
    job.set("network", to_text(net));
    lines.push_back(job.dump());
  }

  std::vector<JobResult> results;
  {
    EngineConfig config;
    config.workers = 4;
    AnalysisEngine engine(std::move(config), [&](const JobResult& result) {
      results.push_back(result);
    });
    std::uint64_t line_number = 0;
    for (const auto& line : lines)
      ASSERT_TRUE(engine.submit(job_from_json_line(line, ++line_number)));
    engine.finish();
  }

  ASSERT_EQ(results.size(), lines.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].error;
    EXPECT_EQ(results[i].kind, JobKind::Analyze);
    const JsonValue* verdict = results[i].payload.find("verdict");
    ASSERT_NE(verdict, nullptr);
    EXPECT_EQ(verdict->as_string(), expected[i]);
  }
}

}  // namespace
}  // namespace shufflebound
