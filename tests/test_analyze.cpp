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
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <new>
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
#include "count_allocations.hpp"
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
  if (report.verdict == AnalyzeVerdict::Certified) {
    EXPECT_TRUE(truth.sorts_all) << "analyzer certified a non-sorter";
  }

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
  // The engine emits as jobs finish; order the results by seq.
  std::sort(results.begin(), results.end(),
            [](const JobResult& a, const JobResult& b) { return a.seq < b.seq; });

  ASSERT_EQ(results.size(), lines.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].error;
    EXPECT_EQ(results[i].kind, JobKind::Analyze);
    const JsonValue* verdict = results[i].payload.find("verdict");
    ASSERT_NE(verdict, nullptr);
    EXPECT_EQ(verdict->as_string(), expected[i]);
  }
}

// --- Multi-word pins -----------------------------------------------------

/// FNV-1a over 64-bit values: a compact digest of a report's lists.
struct Digest {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  }
  void add(const OpFinding& f) {
    add(f.level);
    add(f.op_in_level);
    add(f.min_slot);
    add(f.max_slot);
    add(static_cast<std::uint64_t>(f.fate));
  }
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Everything the analyzer reports about `net` (pinned with `options`)
/// and, unpinned, what elimination found, in one comparable line.
std::string analyzer_pin(const ComparatorNetwork& net,
                         const AnalyzeOptions& options) {
  const AnalyzeReport report = analyze(net, options);
  Digest lists;
  for (wire_t r : report.relabel_ranks) lists.add(r);
  for (const OpFinding& f : report.trivial_ops) lists.add(f);
  for (std::uint32_t l : report.dead_levels) lists.add(l);
  for (wire_t s : report.untouched_slots) lists.add(s);
  std::string line = std::string(analyze_verdict_name(report.verdict)) +
                     " pairs=" + std::to_string(report.relation_pairs) +
                     " trivial=" + std::to_string(report.trivial_ops.size()) +
                     " fp=" + hex(report.relation_fingerprint.first) +
                     hex(report.relation_fingerprint.second) +
                     " sfp=" + hex(report.subsumption_fingerprint.first) +
                     hex(report.subsumption_fingerprint.second) +
                     " lists=" + hex(lists.h);
  if (options.zero_inputs.empty() && options.one_inputs.empty()) {
    const EliminationResult elim = eliminate_redundant(net);
    Digest found;
    for (const OpFinding& f : elim.findings) found.add(f);
    for (wire_t r : elim.relabel_ranks) found.add(r);
    line += std::string(" elim=") + analyze_verdict_name(elim.verdict) +
            "/" + std::to_string(elim.removed) + "/" +
            std::to_string(elim.exchanged) + "/" + hex(found.h);
  }
  return line;
}

/// Widths past one 64-bit word per relation row, including partial last
/// words: every reported value is pinned as the word-at-a-time reference
/// implementation computed it, so a change to the relation's word
/// layout, transposes or closure cannot move any verdict, finding or
/// fingerprint. Each network runs free and with about a tenth of its
/// inputs pinned to 0 and another tenth to 1.
TEST(AnalyzePins, MultiWordReportsMatchTheReference) {
  std::vector<std::pair<std::string, ComparatorNetwork>> nets;
  for (const wire_t n : {128, 256}) {
    nets.emplace_back("bitonic-" + std::to_string(n),
                      bitonic_sorting_network(n));
    nets.emplace_back("oem-" + std::to_string(n),
                      odd_even_mergesort_network(n));
  }
  for (const wire_t n : {65, 129, 192})
    nets.emplace_back("brick-" + std::to_string(n), brick_sorter(n));
  nets.emplace_back("broken-bitonic-128",
                    drop_one_comparator(bitonic_sorting_network(128), 5));
  nets.emplace_back("bitonic-128-desc-tail",
                    with_tail(bitonic_sorting_network(128),
                              GateOp::CompareDesc));
  nets.emplace_back("oem-128-exchange-tail",
                    with_tail(odd_even_mergesort_network(128),
                              GateOp::Exchange));
  nets.emplace_back("brick-65-repeat-tail",
                    with_tail(brick_sorter(65), GateOp::CompareAsc));
  for (const wire_t n : {63, 64, 65, 100, 129, 200}) {
    Prng rng(0x5EED0000u + n);
    nets.emplace_back("random-" + std::to_string(n),
                      random_network(rng, n, 24));
  }

  const char* const kExpected[] = {
      "bitonic-128 free sorting pairs=8128 trivial=0"
      " fp=933bdef6d411e8af8e2ca4520f3ffb31"
      " sfp=ed618b9b8a8bbc6020b7f0d3044aa6fa"
      " lists=cbf29ce484222325 elim=sorting/0/0/cbf29ce484222325",
      "bitonic-128 pinned inconclusive pairs=5987 trivial=525"
      " fp=d93e2fb617ddafde67724555ed2ee7af"
      " sfp=e333c3dc9c9beb6acb2105995b5363f7"
      " lists=e0787a5fa1584db2",
      "oem-128 free sorting pairs=8128 trivial=0"
      " fp=933bdef6d411e8af8e2ca4520f3ffb31"
      " sfp=ed618b9b8a8bbc6020b7f0d3044aa6fa"
      " lists=cbf29ce484222325 elim=sorting/0/0/cbf29ce484222325",
      "oem-128 pinned sorting pairs=8260 trivial=305"
      " fp=41aac412a5b4a18178bae2bf47b61352"
      " sfp=115a8d9ec61db24de3e96e4c92ed1943"
      " lists=89d382e2ecb9bb4c",
      "bitonic-256 free sorting pairs=32640 trivial=0"
      " fp=4fce9ee88dce83fb972a9d6699af00e3"
      " sfp=d4819c3b187c781c6a8fd5f19860006e"
      " lists=cbf29ce484222325 elim=sorting/0/0/cbf29ce484222325",
      "bitonic-256 pinned inconclusive pairs=23030 trivial=1351"
      " fp=8838d010b1b1b84239a28b88dc3b7813"
      " sfp=446e496b62c8758f75e81fbe98e1d4f4"
      " lists=303eb5b3f2361367",
      "oem-256 free sorting pairs=32640 trivial=0"
      " fp=4fce9ee88dce83fb972a9d6699af00e3"
      " sfp=d4819c3b187c781c6a8fd5f19860006e"
      " lists=cbf29ce484222325 elim=sorting/0/0/cbf29ce484222325",
      "oem-256 pinned sorting pairs=33240 trivial=816"
      " fp=d8f8139e7348121d9d45d3e23eb88913"
      " sfp=1312eea1debe60d092149300adda0e0b"
      " lists=d71da7a795659a8e",
      "brick-65 free sorting pairs=2080 trivial=0"
      " fp=96731f0c15b4b76222d65ea9652c1c2c"
      " sfp=c9ac7875c699dfb8fc03febfebaf85b3"
      " lists=cbf29ce484222325 elim=sorting/0/0/cbf29ce484222325",
      "brick-65 pinned sorting pairs=2110 trivial=702"
      " fp=dc7f9f88288435133d47631c3cd09939"
      " sfp=daac999a6dfa3a99f3a0d6eab4440751"
      " lists=901cd820aa0b1df3",
      "brick-129 free sorting pairs=8256 trivial=0"
      " fp=57f8af90a6ef79a147cc38e1be38a231"
      " sfp=181683e1a0ee16d220d12c76d60da66c"
      " lists=cbf29ce484222325 elim=sorting/0/0/cbf29ce484222325",
      "brick-129 pinned sorting pairs=8388 trivial=2796"
      " fp=74d87ac73a26eea29ca4c3a7f40a7474"
      " sfp=16e58e23650707c2afb226cbe3e54630"
      " lists=6010aba9c3be669e",
      "brick-192 free sorting pairs=18336 trivial=0"
      " fp=b530bff67dda3e39487f878e9ae5e099"
      " sfp=150dcd9ad2c3bded8f6f9ba33588819b"
      " lists=cbf29ce484222325 elim=sorting/0/0/cbf29ce484222325",
      "brick-192 pinned sorting pairs=18678 trivial=6555"
      " fp=ce1da1b862ac550295f42fa1f47b4881"
      " sfp=937407c03fe5802ac5c0bef21364e94a"
      " lists=9ec9dddad5989288",
      "broken-bitonic-128 free inconclusive pairs=5141 trivial=0"
      " fp=6d988013ecf575f8af48c26151d2f3ef"
      " sfp=902c65ecf04945b270b6caa15771891a"
      " lists=cbf29ce484222325 elim=inconclusive/0/0/cbf29ce484222325",
      "broken-bitonic-128 pinned inconclusive pairs=5987 trivial=525"
      " fp=d93e2fb617ddafde67724555ed2ee7af"
      " sfp=e333c3dc9c9beb6acb2105995b5363f7"
      " lists=42a4c9f8088fb9e8",
      "bitonic-128-desc-tail free sorting-up-to-relabel pairs=8128 trivial=64"
      " fp=1f27d0619400db7f2365a85b470bd841"
      " sfp=ed618b9b8a8bbc6020b7f0d3044aa6fa"
      " lists=2cc6e1f9e2189b25 elim=sorting-up-to-relabel/0/64/8edea515d7789b25",
      "bitonic-128-desc-tail pinned inconclusive pairs=5987 trivial=589"
      " fp=d18f3fd67618f8c61081c5626e943202"
      " sfp=e333c3dc9c9beb6acb2105995b5363f7"
      " lists=9a8cddacdd662372",
      "oem-128-exchange-tail free sorting-up-to-relabel pairs=8128 trivial=0"
      " fp=933bdef6d411e8af8e2ca4520f3ffb31"
      " sfp=ed618b9b8a8bbc6020b7f0d3044aa6fa"
      " lists=0a68fbbef745bf25 elim=sorting-up-to-relabel/0/0/0a68fbbef745bf25",
      "oem-128-exchange-tail pinned inconclusive pairs=8260 trivial=305"
      " fp=41aac412a5b4a18178bae2bf47b61352"
      " sfp=115a8d9ec61db24de3e96e4c92ed1943"
      " lists=89d382e2ecb9bb4c",
      "brick-65-repeat-tail free sorting pairs=2080 trivial=32"
      " fp=96731f0c15b4b76222d65ea9652c1c2c"
      " sfp=c9ac7875c699dfb8fc03febfebaf85b3"
      " lists=a3d95a1142d839e4 elim=sorting/32/0/0da67816df98a525",
      "brick-65-repeat-tail pinned sorting pairs=2110 trivial=734"
      " fp=dc7f9f88288435133d47631c3cd09939"
      " sfp=daac999a6dfa3a99f3a0d6eab4440751"
      " lists=30542d40d61f79f2",
      "random-63 free inconclusive pairs=341 trivial=33"
      " fp=5b9b4533b49ae326e92a98411b227c6e"
      " sfp=6975e58d683c4892fa9dcdcac7cee529"
      " lists=af6f6837957778e4 elim=inconclusive/10/23/83dbe154b4160476",
      "random-63 pinned inconclusive pairs=936 trivial=144"
      " fp=9615f852560d5e42e183b21f1ad99d68"
      " sfp=3caa9305f2ca57da2e4b9295ddbb6efe"
      " lists=b161909e639466ad",
      "random-64 free inconclusive pairs=304 trivial=30"
      " fp=d3fb966399fb7a7cb3c87b031b9f6f34"
      " sfp=92d1ffe15c59ed4b686067fcc3011863"
      " lists=df0ab3dd984ffeed elim=inconclusive/13/17/df0ab3dd984ffeed",
      "random-64 pinned inconclusive pairs=924 trivial=127"
      " fp=fcd47f9a91db07aa7d7b04fc812371b4"
      " sfp=2e59dfbac399b8ffd403b1a054172a50"
      " lists=b5c9bd1b797fa33f",
      "random-65 free inconclusive pairs=299 trivial=28"
      " fp=87ebca891e55d3fd890492cf8167bfa2"
      " sfp=5acb84b99e940b53068927599e4b3d57"
      " lists=b32a1139cb981770 elim=inconclusive/12/16/b32a1139cb981770",
      "random-65 pinned inconclusive pairs=942 trivial=117"
      " fp=5a4a06cf6a43041f6fa9a76986e01045"
      " sfp=8f6396ced0a6295a92baf3844bc43dfd"
      " lists=7a36be9b980cf3ca",
      "random-100 free inconclusive pairs=573 trivial=31"
      " fp=ef55b35d90d7e8702d67fe6817932078"
      " sfp=7b67407da146843b44b37d869741e471"
      " lists=d4312dd1cb725103 elim=inconclusive/15/16/d4312dd1cb725103",
      "random-100 pinned inconclusive pairs=2255 trivial=221"
      " fp=48d1be358b53f07a72837432312f2e1c"
      " sfp=3efeae00a30b0276f2301c0261603152"
      " lists=fef778fcf3defa18",
      "random-129 free inconclusive pairs=608 trivial=24"
      " fp=be9ece16209b0150f32c375c52f905de"
      " sfp=6b11de5aea02bfa656db71743d4630d2"
      " lists=79e52bd2ddb55def elim=inconclusive/8/16/79e52bd2ddb55def",
      "random-129 pinned inconclusive pairs=3320 trivial=236"
      " fp=5a48bd79bbfe8b2f634ba27984038053"
      " sfp=844c6ee95bb0685b2b65529dcc68b1f3"
      " lists=df227bee4b8a9831",
      "random-200 free inconclusive pairs=1093 trivial=32"
      " fp=ebe726789e328e6a97492f1a2a007224"
      " sfp=92ae1f2d837a4df6fbc73d6bc03b9d04"
      " lists=8e5487855fe2b14f elim=inconclusive/18/14/8e5487855fe2b14f",
      "random-200 pinned inconclusive pairs=8255 trivial=423"
      " fp=845384831cee316e0a61840c062d2c29"
      " sfp=080df5ad2ad88765ce1ec0947279996b"
      " lists=4a927e0bd9ee9abb",
  };

  std::size_t row = 0;
  for (const auto& [name, net] : nets) {
    Prng rng(0x9140000u + net.width());
    std::vector<wire_t> wires(net.width());
    std::iota(wires.begin(), wires.end(), wire_t{0});
    shuffle_in_place(wires, rng);
    const std::size_t k = net.width() / 10;
    AnalyzeOptions pinned;
    pinned.zero_inputs.assign(wires.begin(), wires.begin() + k);
    pinned.one_inputs.assign(wires.begin() + k, wires.begin() + 2 * k);
    for (const AnalyzeOptions& options : {AnalyzeOptions{}, pinned}) {
      const std::string label =
          name + (options.zero_inputs.empty() ? " free" : " pinned");
      const std::string actual = label + " " + analyzer_pin(net, options);
      const std::string expected =
          row < std::size(kExpected) ? kExpected[row] : "";
      EXPECT_EQ(actual, expected);
      ++row;
    }
  }
  EXPECT_EQ(row, std::size(kExpected));
}

// --- The word-parallel relation primitives -------------------------------

TEST(AnalyzeRelation, BlockedTransposeMatchesNaive) {
  Prng rng(0x7A45);
  for (const std::size_t n : {1, 63, 64, 65, 127, 129, 200}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Sparse, dense, and all-empty / all-full 64 x 64 blocks.
    for (const std::uint64_t density : {0, 4, 32, 60, 64}) {
      BitMatrix m(n);
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
          if (rng.below(64) < density) m.set(r, c);
      BitMatrix t(3);  // wrong size: transpose_into resizes it
      m.transpose_into(t);
      ASSERT_EQ(t.size(), n);
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
          ASSERT_EQ(t.test(c, r), m.test(r, c)) << r << "," << c;
      EXPECT_EQ(t.count(), m.count());  // tail bits stay clear
      BitMatrix back(n);
      t.transpose_into(back);
      EXPECT_EQ(back, m);
    }
  }
}

/// Reference closure: the relation's pairs plus every low x high pair of
/// each block, closed by Warshall's algorithm one pair at a time.
std::vector<std::vector<bool>> warshall_with_blocks(
    const OrderRelation& rel, const std::vector<wire_t>& low,
    const std::vector<wire_t>& high, const std::vector<std::uint32_t>& ends) {
  const wire_t n = rel.width();
  std::vector<std::vector<bool>> m(n, std::vector<bool>(n));
  for (wire_t x = 0; x < n; ++x)
    for (wire_t y = 0; y < n; ++y) m[x][y] = rel.leq(x, y);
  std::uint32_t begin = 0;
  for (const std::uint32_t end : ends) {
    for (std::uint32_t i = begin; i < end; ++i)
      for (std::uint32_t j = begin; j < end; ++j) m[low[i]][high[j]] = true;
    begin = end;
  }
  for (wire_t k = 0; k < n; ++k)
    for (wire_t x = 0; x < n; ++x)
      if (m[x][k])
        for (wire_t y = 0; y < n; ++y)
          if (m[k][y]) m[x][y] = true;
  return m;
}

TEST(AnalyzeRelation, BlockClosureMatchesWarshall) {
  Prng rng(0xB10C);
  for (const wire_t n : {5, 64, 65, 130}) {
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("n=" + std::to_string(n) + " round=" +
                   std::to_string(round));
      // A relation with real structure: a few random comparator levels.
      OrderRelation rel(n);
      std::vector<wire_t> wires(n);
      std::iota(wires.begin(), wires.end(), wire_t{0});
      for (int level = 0; level < 6; ++level) {
        shuffle_in_place(wires, rng);
        std::vector<LevelOp> ops;
        for (wire_t p = 0; p + 1 < n; p += 2)
          ops.push_back(LevelOp{wires[p], wires[p + 1]});
        rel.apply_level(ops);
      }
      // Disjoint blocks of 1-4 low and as many high slots.
      shuffle_in_place(wires, rng);
      std::vector<wire_t> low;
      std::vector<wire_t> high;
      std::vector<std::uint32_t> ends;
      std::size_t next = 0;
      while (ends.size() < 3 && next + 8 <= n) {
        const std::size_t len = 1 + rng.below(4);
        for (std::size_t i = 0; i < len; ++i) {
          low.push_back(wires[next++]);
          high.push_back(wires[next++]);
        }
        ends.push_back(static_cast<std::uint32_t>(low.size()));
      }
      const auto expected = warshall_with_blocks(rel, low, high, ends);
      rel.add_blocks(low, high, ends);
      for (wire_t x = 0; x < n; ++x)
        for (wire_t y = 0; y < n; ++y) {
          ASSERT_EQ(rel.leq(x, y), expected[x][y]) << x << "<=" << y;
          ASSERT_EQ(((rel.down_set(y)[x / 64] >> (x % 64)) & 1u) != 0,
                    expected[x][y])
              << "down-set of " << y;
        }
    }
  }
}

TEST(AnalyzeRelation, LevelStepsAllocateNothingAfterTheFirst) {
  const LevelProgram prog = level_program(bitonic_sorting_network(128));
  OrderRelation rel(prog.width);
  std::vector<OpFate> fates(prog.width);
  rel.apply_level(prog.levels[0], fates.data());
  const std::vector<wire_t> low{0, 1};
  const std::vector<wire_t> high{2, 3};
  const std::vector<std::uint32_t> ends{2};
  rel.add_blocks(low, high, ends);
  const std::size_t before = testenv::g_allocations;
  for (std::size_t l = 1; l < prog.levels.size(); ++l) {
    rel.apply_level(prog.levels[l], fates.data());
    rel.add_blocks(low, high, ends);
  }
  EXPECT_EQ(testenv::g_allocations - before, 0u);

  // The analyzer's engine too: an analysis's allocation count does not
  // grow with the number of levels stepped.
  const auto allocations_for = [&](std::size_t levels) {
    LevelProgram prefix = prog;
    prefix.levels.resize(levels);
    const std::size_t start = testenv::g_allocations;
    const AnalyzeReport report = analyze(prefix);
    EXPECT_EQ(report.verdict, AnalyzeVerdict::Inconclusive);
    return testenv::g_allocations - start;
  };
  EXPECT_EQ(allocations_for(2), allocations_for(prog.levels.size() - 1));
}

}  // namespace
}  // namespace shufflebound
