// Concurrency contract of the depth-optimality search (src/search):
// serial and parallel runs take identical decisions (same optimal depth,
// byte-identical witness, identical node statistics), and a search
// paused mid-run resumes from its CRC-guarded checkpoint to the same
// result. Runs under TSan via the `concurrency` ctest label.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/io.hpp"
#include "search/checkpoint.hpp"
#include "search/level_space.hpp"
#include "search/search.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "sb_search_" + name + "_" +
         std::to_string(::getpid()) + ".ckpt";
}

SearchResult run(wire_t n, ThreadPool* pool,
                 const std::string& checkpoint = {}, bool resume = false,
                 std::uint64_t pause_after_nodes = 0) {
  SearchOptions options;
  options.pool = pool;
  options.checkpoint_path = checkpoint;
  options.resume = resume;
  options.pause_after_nodes = pause_after_nodes;
  return find_min_depth_network(n, options);
}

TEST(SearchParallel, SerialAndParallelAgreeExhaustive) {
  ThreadPool pool(4);
  const SearchResult serial = run(7, nullptr);
  const SearchResult parallel = run(7, &pool);
  ASSERT_EQ(serial.status, SearchStatus::Optimal);
  ASSERT_EQ(parallel.status, SearchStatus::Optimal);
  EXPECT_EQ(serial.optimal_depth, parallel.optimal_depth);
  // Same witness, byte for byte - the parallel expansion must make the
  // same deterministic choices, not merely an equally deep network.
  EXPECT_EQ(to_text(serial.network), to_text(parallel.network));
  EXPECT_EQ(serial.stats.nodes_expanded, parallel.stats.nodes_expanded);
  EXPECT_EQ(serial.stats.children_generated,
            parallel.stats.children_generated);
  EXPECT_EQ(serial.stats.subsumption_hits, parallel.stats.subsumption_hits);
  EXPECT_EQ(serial.stats.dedup_hits, parallel.stats.dedup_hits);
}

TEST(SearchParallel, SerialAndParallelAgreeExistence) {
  ThreadPool pool(4);
  const SearchResult serial = run(9, nullptr);
  const SearchResult parallel = run(9, &pool);
  ASSERT_EQ(serial.status, SearchStatus::Optimal);
  ASSERT_EQ(parallel.status, SearchStatus::Optimal);
  EXPECT_EQ(serial.optimal_depth, 7u);
  EXPECT_EQ(to_text(serial.network), to_text(parallel.network));
  EXPECT_EQ(serial.stats.nodes_expanded, parallel.stats.nodes_expanded);
  EXPECT_EQ(serial.stats.children_generated,
            parallel.stats.children_generated);
}

// The subsumption pass scans blocks of candidates in parallel, yet must
// take the serial rule's decisions: drop a state iff one of the first W
// smaller survivors, newest first, is a subset of it (W = 0: all of
// them). The counts are those of the plain serial scan. Windows 1 and 3
// push candidates across block boundaries with the in-block survivor
// count at or near W; at n = 7, W = 512 (the block size) a candidate
// may only use the older survivors' first hit if it lies within the
// part of the window the block's own survivors left over.
struct WindowCase {
  wire_t n;
  std::size_t window;
  std::uint64_t nodes_expanded;
  std::uint64_t children_generated;
  std::uint64_t dedup_hits;
  std::uint64_t subsumption_hits;
};

TEST(SearchParallel, SubsumptionWindowMatchesTheSerialRule) {
  constexpr WindowCase kCases[] = {
      {6, 1, 345, 4234, 1026, 18},          {6, 3, 341, 4477, 960, 77},
      {6, 64, 61, 911, 270, 430},           {6, 0, 61, 911, 270, 430},
      {7, 512, 4282, 211849, 147396, 59923},
      {7, 4096, 891, 34861, 14905, 18817}, {7, 0, 891, 34861, 14905, 18817},
  };
  ThreadPool pool(4);
  for (const WindowCase& c : kCases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 " window=" + std::to_string(c.window));
    SearchOptions options;
    options.subsumption_window = c.window;
    const SearchResult serial = find_min_depth_network(c.n, options);
    options.pool = &pool;
    const SearchResult parallel = find_min_depth_network(c.n, options);
    ASSERT_EQ(serial.status, SearchStatus::Optimal);
    ASSERT_EQ(parallel.status, SearchStatus::Optimal);
    EXPECT_EQ(to_text(serial.network), to_text(parallel.network));
    for (const SearchStats& stats : {serial.stats, parallel.stats}) {
      EXPECT_EQ(stats.nodes_expanded, c.nodes_expanded);
      EXPECT_EQ(stats.children_generated, c.children_generated);
      EXPECT_EQ(stats.dedup_hits, c.dedup_hits);
      EXPECT_EQ(stats.subsumption_hits, c.subsumption_hits);
    }
    EXPECT_EQ(serial.stats.dominance_checks, parallel.stats.dominance_checks);
  }
}

TEST(SearchParallel, CheckpointResumeReproducesExhaustiveResult) {
  const std::string path = temp_path("exhaustive");
  std::remove(path.c_str());
  ThreadPool pool(4);

  const SearchResult reference = run(7, &pool);
  ASSERT_EQ(reference.status, SearchStatus::Optimal);

  const SearchResult paused = run(7, &pool, path, false,
                                  /*pause_after_nodes=*/5);
  ASSERT_EQ(paused.status, SearchStatus::Paused);
  EXPECT_GT(paused.stats.checkpoint_writes, 0u);

  const SearchResult resumed = run(7, &pool, path, /*resume=*/true);
  ASSERT_EQ(resumed.status, SearchStatus::Optimal);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.optimal_depth, reference.optimal_depth);
  EXPECT_EQ(to_text(resumed.network), to_text(reference.network));
  // The resumed run finishes the same tree: the final statistics must
  // match the uninterrupted run's (stats are serialized in the
  // checkpoint and continued, not restarted).
  EXPECT_EQ(resumed.stats.nodes_expanded, reference.stats.nodes_expanded);
  EXPECT_EQ(resumed.stats.children_generated,
            reference.stats.children_generated);
  std::remove(path.c_str());
}

TEST(SearchParallel, CheckpointResumeReproducesExistenceResult) {
  const std::string path = temp_path("existence");
  std::remove(path.c_str());
  ThreadPool pool(4);

  const SearchResult reference = run(9, &pool);
  ASSERT_EQ(reference.status, SearchStatus::Optimal);

  const SearchResult paused = run(9, &pool, path, false,
                                  /*pause_after_nodes=*/1);
  ASSERT_EQ(paused.status, SearchStatus::Paused);

  const SearchResult resumed = run(9, &pool, path, /*resume=*/true);
  ASSERT_EQ(resumed.status, SearchStatus::Optimal);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.optimal_depth, reference.optimal_depth);
  EXPECT_EQ(to_text(resumed.network), to_text(reference.network));
  std::remove(path.c_str());
}

TEST(SearchParallel, CorruptedCheckpointIsRejected) {
  const std::string path = temp_path("corrupt");
  std::remove(path.c_str());
  const SearchResult paused = run(7, nullptr, path, false,
                                  /*pause_after_nodes=*/5);
  ASSERT_EQ(paused.status, SearchStatus::Paused);

  // Flip one payload byte: the CRC trailer must reject the file and the
  // resume must fail loudly instead of silently restarting.
  {
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(16);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(16);
    byte = static_cast<char>(byte ^ 0x5A);
    f.write(&byte, 1);
  }
  EXPECT_THROW(run(7, nullptr, path, /*resume=*/true), std::runtime_error);
  std::remove(path.c_str());
}

// Hostile seeds (tests/data/fuzz_seeds/checkpoint_*.bin): valid CRC,
// but a state count or history length far beyond the payload. Each must
// be rejected before anything is reserved for it, as must a width past
// the search cap.
TEST(SearchParallel, HostileCheckpointCountsAreRejected) {
  const std::string dir = std::string(SB_TEST_DATA_DIR) + "/fuzz_seeds/";
  const std::pair<const char*, const char*> cases[] = {
      {"checkpoint_huge_state_count.bin", "state count exceeds payload"},
      {"checkpoint_huge_history_len.bin", "history length exceeds payload"},
  };
  for (const auto& [name, message] : cases) {
    SCOPED_TRACE(name);
    std::string error;
    EXPECT_FALSE(load_checkpoint(dir + name, &error).has_value());
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }

  const std::string path = temp_path("wide");
  SearchCheckpoint cp;
  cp.width = kSearchWidthCap + 1;
  ASSERT_TRUE(save_checkpoint(path, cp));
  std::string error;
  EXPECT_FALSE(load_checkpoint(path, &error).has_value());
  EXPECT_NE(error.find("corrupt header"), std::string::npos) << error;
  cp.width = kSearchWidthCap;
  ASSERT_TRUE(save_checkpoint(path, cp));
  EXPECT_TRUE(load_checkpoint(path).has_value());
  std::remove(path.c_str());
}

TEST(SearchParallel, MismatchedCheckpointWidthIsRejected) {
  const std::string path = temp_path("mismatch");
  std::remove(path.c_str());
  const SearchResult paused = run(7, nullptr, path, false,
                                  /*pause_after_nodes=*/5);
  ASSERT_EQ(paused.status, SearchStatus::Paused);
  EXPECT_THROW(run(6, nullptr, path, /*resume=*/true), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace shufflebound
