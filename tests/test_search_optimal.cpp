// Golden tests for the depth-optimality search (src/search): the known
// optimal depths for n <= 10 reproduce inside the tier-1 budget, n = 11
// and 12 behind SHUFFLEBOUND_SEARCH_WIDE (the nightly job sets it; see
// the search_wide_nightly ctest entry), every emitted witness
// re-certifies through all three certification engines, and the search's
// state-domain oracle is differentially checked against the
// relabel-tolerant sweep on fuzzed prefixes.
//
// Published optima: Knuth TAOCP vol. 3 (n <= 8), Parberry 1991 (9-10),
// Bundala & Zavodny 2014 (11-12).
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/io.hpp"
#include "env_iters.hpp"
#include "search/level_space.hpp"
#include "search/output_set.hpp"
#include "search/search.hpp"
#include "sim/bitparallel.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {
namespace {

constexpr std::size_t kPublished[13] = {0, 0, 1, 3, 3, 5, 5,
                                        6, 6, 7, 7, 8, 8};

/// Re-certifies a witness through every engine. Sweep and frontier are
/// complete and must certify; the static analyze engine is sound but
/// incomplete, so it must either certify or declare itself inconclusive
/// (it can never refute a true sorter).
void certify_all_engines(const ComparatorNetwork& net) {
  for (const CertifyEngine engine :
       {CertifyEngine::Sweep, CertifyEngine::Frontier}) {
    CertifyOptions opts;
    opts.engine = engine;
    const ZeroOneReport report = zero_one_check(net, opts);
    EXPECT_TRUE(report.sorts_all)
        << "engine " << certify_engine_name(engine) << " refuted the witness";
  }
  CertifyOptions analyze_opts;
  analyze_opts.engine = CertifyEngine::Analyze;
  try {
    const ZeroOneReport report = zero_one_check(net, analyze_opts);
    EXPECT_TRUE(report.sorts_all) << "analyze engine refuted the witness";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("inconclusive"), std::string::npos)
        << "analyze engine failed with an unexpected error: " << e.what();
  }
}

void expect_optimal(const SearchResult& result, wire_t n,
                    LowerBoundSource source) {
  ASSERT_EQ(result.status, SearchStatus::Optimal) << "n=" << unsigned(n);
  EXPECT_EQ(result.width, n);
  EXPECT_EQ(result.optimal_depth, kPublished[n]) << "n=" << unsigned(n);
  EXPECT_EQ(result.lower_bound_source, source);
  EXPECT_EQ(result.network.width(), n);
  EXPECT_EQ(result.network.depth(), kPublished[n]);
  certify_all_engines(result.network);
}

TEST(SearchOptimal, PublishedTable) {
  EXPECT_FALSE(published_optimal_depth(0).has_value());
  EXPECT_FALSE(published_optimal_depth(13).has_value());
  for (wire_t n = 1; n <= 12; ++n) {
    const auto depth = published_optimal_depth(n);
    ASSERT_TRUE(depth.has_value());
    EXPECT_EQ(*depth, kPublished[n]);
  }
}

TEST(SearchOptimal, ExhaustiveReproducesKnownDepths) {
  ThreadPool pool;
  for (wire_t n = 1; n <= kExhaustiveSearchWidthCap; ++n) {
    SearchOptions options;
    options.pool = &pool;
    const SearchResult result = find_min_depth_network(n, options);
    EXPECT_EQ(result.mode, SearchMode::Exhaustive);
    expect_optimal(result, n, LowerBoundSource::Exhaustive);
  }
}

TEST(SearchOptimal, ExistenceReproducesKnownDepths) {
  ThreadPool pool;
  for (wire_t n = 9; n <= 10; ++n) {
    SearchOptions options;
    options.pool = &pool;
    const SearchResult result = find_min_depth_network(n, options);
    EXPECT_EQ(result.mode, SearchMode::Existence);
    expect_optimal(result, n, LowerBoundSource::Published);
  }
}

TEST(SearchOptimal, ExistenceModeForcedOnSmallWidth) {
  // Existence mode works below the exhaustive cap too: it reproduces the
  // published depth from the table rather than proving it.
  SearchOptions options;
  options.mode = SearchMode::Existence;
  const SearchResult result = find_min_depth_network(6, options);
  expect_optimal(result, 6, LowerBoundSource::Published);
}

TEST(SearchOptimal, MaxDepthBelowOptimumExhausts) {
  SearchOptions options;
  options.max_depth = 4;  // optimum for n=6 is 5
  const SearchResult result = find_min_depth_network(6, options);
  EXPECT_EQ(result.status, SearchStatus::Exhausted);
}

TEST(SearchOptimal, RejectsOutOfRangeWidths) {
  EXPECT_THROW(find_min_depth_network(0, {}), std::invalid_argument);
  EXPECT_THROW(
      find_min_depth_network(wire_t(kSearchWidthCap + 1), {}),
      std::invalid_argument);
}

// The nightly leg: n = 11 and 12 take minutes, so they only run when the
// env opts in (ctest entry search_wide_nightly sets it; see
// tests/CMakeLists.txt).
class SearchWide : public ::testing::TestWithParam<wire_t> {};

TEST_P(SearchWide, ReproducesPublishedDepth) {
  if (std::getenv("SHUFFLEBOUND_SEARCH_WIDE") == nullptr)
    GTEST_SKIP() << "set SHUFFLEBOUND_SEARCH_WIDE=1 to run the wide widths";
  const wire_t n = GetParam();
  ThreadPool pool;
  SearchOptions options;
  options.pool = &pool;
  const SearchResult result = find_min_depth_network(n, options);
  EXPECT_EQ(result.mode, SearchMode::Existence);
  expect_optimal(result, n, LowerBoundSource::Published);
}

INSTANTIATE_TEST_SUITE_P(WideWidths, SearchWide, ::testing::Values(11, 12));

// Differential oracle: the search's acceptance test on its OutputSet
// state must agree with the relabel-tolerant exhaustive sweep on the
// very network the state encodes, across fuzzed random prefixes. This is
// the leaf the whole search trusts - any divergence here would
// invalidate every reported depth.
TEST(SearchOracle, AcceptanceMatchesRelabelSweepOnFuzzedPrefixes) {
  Prng rng(0xC0FFEE);
  const int cases = testenv::scaled(200);
  int accepted_seen = 0;
  for (int c = 0; c < cases; ++c) {
    const wire_t n = static_cast<wire_t>(rng.between(3, 7));
    const LevelSpace space(n);
    const std::size_t depth = static_cast<std::size_t>(rng.between(1, 6));
    std::vector<std::uint64_t> scratch(space.set_words());
    OutputSet state = OutputSet::full(n);
    ComparatorNetwork net(n);
    for (std::size_t d = 0; d < depth; ++d) {
      const std::size_t mi = rng.below(space.matchings().size());
      const Matching& m = space.matchings()[mi];
      space.apply_matching(state, m, scratch);
      Level level;
      for (const auto& [lo, hi] : m.pairs)
        level.gates.emplace_back(lo, hi, GateOp::CompareAsc);
      net.add_level(std::move(level));
    }
    const bool accepts = space.accepts(state);
    const RelabelReport sweep = zero_one_check_up_to_relabel(net);
    EXPECT_EQ(accepts, sweep.sorts)
        << "n=" << unsigned(n) << " depth=" << depth << " case=" << c;
    accepted_seen += accepts ? 1 : 0;
  }
  // The fuzz must exercise both verdicts to mean anything.
  EXPECT_GT(accepted_seen, 0);
  EXPECT_LT(accepted_seen, cases);
}

// Subsumption soundness: if state A is a subset of state B after the
// same number of levels, then any suffix completing B also completes A
// (apply_matching is monotone w.r.t. inclusion and acceptance is
// downward-closed on subsets with a member in every weight class -
// which any reachable state has, since the all-zeros/all-ones chain
// survives every comparator). The search relies on exactly this to drop
// supersets; spot-check it on fuzzed pairs with random suffixes.
TEST(SearchOracle, SubsumptionDropIsSoundUnderRandomSuffixes) {
  Prng rng(0xBEEF);
  const int cases = testenv::scaled(200);
  int pairs_checked = 0;
  for (int c = 0; c < cases; ++c) {
    const wire_t n = static_cast<wire_t>(rng.between(4, 6));
    const LevelSpace space(n);
    std::vector<std::uint64_t> scratch(space.set_words());
    const auto random_state = [&](std::size_t depth) {
      OutputSet s = OutputSet::full(n);
      for (std::size_t d = 0; d < depth; ++d) {
        const std::size_t mi = rng.below(space.matchings().size());
        space.apply_matching(s, space.matchings()[mi], scratch);
      }
      return s;
    };
    const std::size_t depth = static_cast<std::size_t>(rng.between(1, 4));
    OutputSet a = random_state(depth);
    OutputSet b = random_state(depth);
    if (!a.subset_of(b)) continue;
    ++pairs_checked;
    // Apply one shared random suffix to both; inclusion must be
    // preserved level by level, and whenever B accepts so must A.
    for (std::size_t d = 0; d < 3; ++d) {
      const std::size_t mi = rng.below(space.matchings().size());
      space.apply_matching(a, space.matchings()[mi], scratch);
      space.apply_matching(b, space.matchings()[mi], scratch);
      ASSERT_TRUE(a.subset_of(b)) << "inclusion broke at suffix level " << d;
      if (space.accepts(b)) {
        EXPECT_TRUE(space.accepts(a));
      }
    }
  }
  EXPECT_GT(pairs_checked, 0);
}

}  // namespace
}  // namespace shufflebound
