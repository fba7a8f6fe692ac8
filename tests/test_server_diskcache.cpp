// DiskBackedCache: the persistent tier's round-trip, warm-restart
// recovery, LRU eviction, and - the part that matters most - corruption
// handling. Every corruption scenario must recover to a consistent cache
// that never crashes and never serves a damaged entry (fail closed).
//
// The witness-replay rejection path (a syntactically valid but wrong
// cached refutation dropped on warm restart) lives in test_server.cpp,
// where a real engine replays the witness.
#include "server/diskcache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "util/crc32.hpp"

namespace shufflebound {
namespace {

class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "sb_diskcache_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::remove((dir_ + "/cache.log").c_str());
    std::remove((dir_ + "/cache.idx").c_str());
  }

  DiskCacheConfig config(std::uint64_t max_bytes = 0) const {
    DiskCacheConfig cfg;
    cfg.directory = dir_;
    cfg.max_bytes = max_bytes;
    return cfg;
  }

  static CacheKey key(std::uint64_t a, std::uint64_t b = 7) {
    CacheKey k;
    k.network = Fingerprint{a * 0x9E3779B97F4A7C15ull + 1, a};
    k.params = b;
    return k;
  }

  static JsonValue payload(const std::string& tag) {
    JsonValue v = JsonValue::object();
    v.set("verdict", tag);
    v.set("n", std::uint64_t{12345});
    return v;
  }

  std::string dir_;
};

TEST_F(DiskCacheTest, InsertLookupRoundTrip) {
  DiskBackedCache cache(config());
  EXPECT_FALSE(cache.lookup(key(1)).has_value());
  cache.insert(key(1), payload("sorting"));
  const auto hit = cache.lookup(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dump(), payload("sorting").dump());

  const auto stats = cache.tier_stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // Second miss then the post-insert hit came from the memory tier.
  EXPECT_EQ(stats.mem_hits, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
}

TEST_F(DiskCacheTest, WarmRestartServesFromDisk) {
  {
    DiskBackedCache cache(config());
    cache.insert(key(1), payload("a"));
    cache.insert(key(2), payload("b"));
    cache.save_index();
  }
  DiskBackedCache reopened(config());
  const auto stats_before = reopened.tier_stats();
  EXPECT_EQ(stats_before.entries, 2u);
  EXPECT_EQ(stats_before.recovered, 2u);

  const auto hit = reopened.lookup(key(2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dump(), payload("b").dump());
  EXPECT_EQ(reopened.tier_stats().disk_hits, 1u);

  // The disk hit was promoted: the next lookup is a memory hit.
  ASSERT_TRUE(reopened.lookup(key(2)).has_value());
  EXPECT_EQ(reopened.tier_stats().mem_hits, 1u);
}

TEST_F(DiskCacheTest, WarmRestartWithoutIndexScansLog) {
  {
    DiskBackedCache cache(config());
    cache.insert(key(1), payload("a"));
    cache.insert(key(2), payload("b"));
  }  // destructor wrote the index...
  std::remove((dir_ + "/cache.idx").c_str());  // ...which a crash may lose

  DiskBackedCache reopened(config());
  EXPECT_EQ(reopened.tier_stats().entries, 2u);
  ASSERT_TRUE(reopened.lookup(key(1)).has_value());
  ASSERT_TRUE(reopened.lookup(key(2)).has_value());
}

TEST_F(DiskCacheTest, RewrittenKeyServesLatestPayload) {
  {
    DiskBackedCache cache(config());
    cache.insert(key(1), payload("old"));
    cache.insert(key(1), payload("new"));
  }
  std::remove((dir_ + "/cache.idx").c_str());
  DiskBackedCache reopened(config());
  EXPECT_EQ(reopened.tier_stats().entries, 1u);
  const auto hit = reopened.lookup(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dump(), payload("new").dump());
}

TEST_F(DiskCacheTest, TruncatedTailRecordIsDroppedOthersSurvive) {
  std::string log_path;
  {
    DiskBackedCache cache(config());
    cache.insert(key(1), payload("a"));
    cache.insert(key(2), payload("b"));
    log_path = cache.log_path();
  }
  std::remove((dir_ + "/cache.idx").c_str());
  // Chop the last record mid-payload: a crash during append.
  std::uint64_t size = 0;
  {
    std::ifstream in(log_path, std::ios::binary | std::ios::ate);
    size = static_cast<std::uint64_t>(in.tellg());
  }
  ASSERT_EQ(::truncate(log_path.c_str(), static_cast<off_t>(size - 5)), 0);

  DiskBackedCache reopened(config());
  const auto stats = reopened.tier_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.dropped_records, 1u);
  ASSERT_TRUE(reopened.lookup(key(1)).has_value());
  EXPECT_FALSE(reopened.lookup(key(2)).has_value());

  // The log was truncated back to the last good record, so appends work
  // and the cache stays consistent across yet another restart.
  reopened.insert(key(3), payload("c"));
  reopened.save_index();
  DiskBackedCache again(config());
  EXPECT_EQ(again.tier_stats().entries, 2u);
  ASSERT_TRUE(again.lookup(key(3)).has_value());
}

TEST_F(DiskCacheTest, FlippedCrcByteDropsOnlyThatRecord) {
  std::string log_path;
  std::uint64_t first_size = 0;
  {
    DiskBackedCache cache(config());
    cache.insert(key(1), payload("a"));
    {
      std::ifstream in(cache.log_path(), std::ios::binary | std::ios::ate);
      first_size = static_cast<std::uint64_t>(in.tellg());
    }
    cache.insert(key(2), payload("b"));
    cache.save_index();
    log_path = cache.log_path();
  }
  // Flip one payload byte inside the SECOND record.
  {
    std::fstream f(log_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(first_size + 40));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(first_size + 40));
    f.write(&byte, 1);
  }

  DiskBackedCache reopened(config());
  const auto stats = reopened.tier_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.dropped_records, 1u);
  ASSERT_TRUE(reopened.lookup(key(1)).has_value());
  EXPECT_FALSE(reopened.lookup(key(2)).has_value());  // never served corrupt
}

TEST_F(DiskCacheTest, StaleIndexAgainstRewrittenLogFailsClosed) {
  // Save an index, then append more records and DELETE the log's tail by
  // truncating to an arbitrary point inside the post-index records: the
  // index now describes a log that no longer exists as written.
  std::string log_path;
  std::string idx_path;
  std::uint64_t indexed_size = 0;
  std::vector<char> stale_idx_;
  {
    DiskBackedCache cache(config());
    cache.insert(key(1), payload("a"));
    cache.save_index();
    log_path = cache.log_path();
    idx_path = cache.index_path();
    {
      std::ifstream in(log_path, std::ios::binary | std::ios::ate);
      indexed_size = static_cast<std::uint64_t>(in.tellg());
    }
    cache.insert(key(2), payload("b"));
    // Destructor saves a fresh index; restore the stale one afterwards.
    std::ifstream idx(idx_path, std::ios::binary);
    stale_idx_.assign(std::istreambuf_iterator<char>(idx),
                      std::istreambuf_iterator<char>());
  }
  {
    std::ofstream idx(idx_path, std::ios::binary | std::ios::trunc);
    idx.write(stale_idx_.data(),
              static_cast<std::streamsize>(stale_idx_.size()));
  }
  // Truncate the log to mid-second-record: shorter than the full log but
  // longer than what the stale index describes.
  ASSERT_EQ(::truncate(log_path.c_str(), static_cast<off_t>(indexed_size + 10)),
            0);

  DiskBackedCache reopened(config());
  // Indexed entry 1 still validates; the half-record tail is dropped.
  EXPECT_EQ(reopened.tier_stats().entries, 1u);
  ASSERT_TRUE(reopened.lookup(key(1)).has_value());
  EXPECT_FALSE(reopened.lookup(key(2)).has_value());

  // And an index pointing PAST the log end distrusts the snapshot
  // entirely instead of reading out of bounds: with the log gutted down
  // to its file magic, everything is dropped - fail closed, no crash.
  reopened.save_index();
  ASSERT_EQ(::truncate(log_path.c_str(), 8), 0);
  DiskBackedCache reopened2(config());
  EXPECT_EQ(reopened2.tier_stats().entries, 0u);
  EXPECT_FALSE(reopened2.lookup(key(1)).has_value());
  EXPECT_GE(reopened2.tier_stats().dropped_records, 1u);
}

TEST_F(DiskCacheTest, GarbageIndexFileIsIgnoredNotFatal) {
  {
    DiskBackedCache cache(config());
    cache.insert(key(1), payload("a"));
  }
  {
    std::ofstream idx(dir_ + "/cache.idx", std::ios::binary | std::ios::trunc);
    idx << "this is not an index";
  }
  DiskBackedCache reopened(config());  // must not throw
  EXPECT_EQ(reopened.tier_stats().entries, 1u);  // recovered via log scan
  ASSERT_TRUE(reopened.lookup(key(1)).has_value());
}

TEST_F(DiskCacheTest, WrappingIndexCountIsIgnoredNotFatal) {
  std::string idx_path;
  {
    DiskBackedCache cache(config());
    cache.insert(key(1), payload("a"));
    cache.save_index();
    idx_path = cache.index_path();
  }
  std::vector<std::uint8_t> blob;
  {
    std::ifstream idx(idx_path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(idx),
                std::istreambuf_iterator<char>());
  }
  // magic(8) log_end(8) count(8) one 36-byte entry crc(4). A count of
  // 2^62 + 1 makes count * 36 wrap to 36, so the size check alone would
  // pass; the CRC is recomputed so only the count is hostile.
  ASSERT_EQ(blob.size(), 64u);
  const std::uint64_t count = (std::uint64_t{1} << 62) + 1;
  for (int i = 0; i < 8; ++i)
    blob[16 + i] = static_cast<std::uint8_t>(count >> (8 * i));
  const std::uint32_t crc = crc32_ieee(blob.data(), blob.size() - 4);
  for (int i = 0; i < 4; ++i)
    blob[60 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  {
    std::ofstream idx(idx_path, std::ios::binary | std::ios::trunc);
    idx.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }

  DiskBackedCache reopened(config());  // must not crash
  EXPECT_EQ(reopened.tier_stats().entries, 1u);  // recovered via log scan
  const auto hit = reopened.lookup(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dump(), payload("a").dump());
}

TEST_F(DiskCacheTest, ForeignLogFileIsDiscardedNotFatal) {
  {
    std::ofstream log(dir_ + "/cache.log", std::ios::binary | std::ios::trunc);
    log << "complete nonsense, wrong magic, not our file";
  }
  DiskBackedCache cache(config());  // must not throw
  EXPECT_EQ(cache.tier_stats().entries, 0u);
  cache.insert(key(1), payload("a"));  // and the log is usable again
  ASSERT_TRUE(cache.lookup(key(1)).has_value());
}

TEST_F(DiskCacheTest, VersionOneLogIsDiscardedNotServed) {
  // A log written under the previous format version (magic SBDCLOG1, whose
  // refute records still carried `witness` and `survivors`) must not be
  // served after a restart: cached payloads match fresh ones byte for byte.
  {
    DiskBackedCache cache(config());
    cache.insert(key(1), payload("a"));
    cache.save_index();
  }
  {
    std::fstream log(dir_ + "/cache.log",
                     std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(log.is_open());
    log.write("SBDCLOG1", 8);
  }
  DiskBackedCache reopened(config());  // must not throw
  EXPECT_EQ(reopened.tier_stats().entries, 0u);
  EXPECT_GE(reopened.tier_stats().dropped_records, 1u);
  EXPECT_FALSE(reopened.lookup(key(1)).has_value());
}

TEST_F(DiskCacheTest, LruEvictsColdestFirst) {
  // ~60 bytes per record; cap to roughly three records.
  DiskBackedCache cache(config(/*max_bytes=*/200));
  cache.insert(key(1), payload("a"));
  cache.insert(key(2), payload("b"));
  cache.insert(key(3), payload("c"));
  ASSERT_TRUE(cache.lookup(key(1)).has_value());  // refresh 1: now 2 is coldest
  cache.insert(key(4), payload("d"));             // over cap: evict 2

  EXPECT_GE(cache.tier_stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup(key(2)).has_value());
  EXPECT_TRUE(cache.lookup(key(1)).has_value());
  EXPECT_TRUE(cache.lookup(key(4)).has_value());
}

TEST_F(DiskCacheTest, InvalidateDropsBothTiers) {
  DiskBackedCache cache(config());
  cache.insert(key(1), payload("a"));
  ASSERT_TRUE(cache.lookup(key(1)).has_value());
  cache.invalidate(key(1));
  EXPECT_FALSE(cache.lookup(key(1)).has_value());
  EXPECT_EQ(cache.tier_stats().invalidations, 1u);

  // Fail-closed must survive restart: the dropped entry stays dropped.
  cache.save_index();
  DiskBackedCache reopened(config());
  EXPECT_FALSE(reopened.lookup(key(1)).has_value());
}

TEST_F(DiskCacheTest, CompactionRewritesLiveRecordsOnly) {
  DiskCacheConfig cfg = config();
  cfg.compact_factor = 2;
  std::uint64_t bloated = 0;
  {
    DiskBackedCache cache(cfg);
    // Rewrite one key many times past the 64 KiB compaction floor: the
    // log bloats with dead versions until compaction collapses it.
    JsonValue big = JsonValue::object();
    big.set("blob", std::string(4096, 'x'));
    for (int i = 0; i < 40; ++i) cache.insert(key(1), big);
    cache.insert(key(2), payload("keep"));
    const auto stats = cache.tier_stats();
    bloated = 40u * 4100u;  // lower bound on bytes ever appended
    EXPECT_GE(stats.compactions, 1u);
    // Dead versions were rewritten away. The log may keep up to the
    // 64 KiB compaction floor of garbage, but nowhere near the ~160 KiB
    // appended in total - it is bounded, not monotonically bloating.
    EXPECT_LT(stats.log_bytes, 72u * 1024u);
    EXPECT_LT(stats.log_bytes, bloated / 2);
    EXPECT_EQ(stats.entries, 2u);
    cache.save_index();
  }
  DiskBackedCache reopened(cfg);
  EXPECT_EQ(reopened.tier_stats().entries, 2u);
  ASSERT_TRUE(reopened.lookup(key(1)).has_value());
  ASSERT_TRUE(reopened.lookup(key(2)).has_value());
}

TEST_F(DiskCacheTest, StatsJsonCarriesDiskTier) {
  DiskBackedCache cache(config());
  cache.insert(key(1), payload("a"));
  const JsonValue doc = cache.stats_to_json();
  const JsonValue* disk = doc.find("disk");
  ASSERT_NE(disk, nullptr);
  ASSERT_NE(disk->find("disk_hits"), nullptr);
  EXPECT_EQ(disk->find("inserts")->as_uint(), 1u);
  EXPECT_EQ(disk->find("entries")->as_uint(), 1u);
  // Base memory-tier keys stay where docs/service.md documents them.
  ASSERT_NE(doc.find("hits"), nullptr);
  ASSERT_NE(doc.find("misses"), nullptr);
}

TEST_F(DiskCacheTest, Crc32MatchesKnownVectors) {
  // IEEE 802.3 check value for "123456789".
  const char data[] = "123456789";
  EXPECT_EQ(crc32_ieee(data, 9), 0xCBF43926u);
  EXPECT_EQ(crc32_ieee("", 0), 0u);
  // Streaming via seed equals one-shot.
  const std::uint32_t head = crc32_ieee(data, 4);
  EXPECT_EQ(crc32_ieee(data + 4, 5, head), 0xCBF43926u);
}

}  // namespace
}  // namespace shufflebound
