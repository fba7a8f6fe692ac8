// Persistent disk-backed result cache - the second tier under the
// in-memory ResultCache, keyed by the same canonical 128-bit network
// fingerprints. A warm restart of the server starts with the memory tier
// empty but the disk tier full, so repeated analyses skip straight to a
// disk hit instead of recomputing.
//
// On-disk layout (two files inside the configured directory):
//
//   cache.log   append-only record log. 8-byte file magic (`SBDCLOG2`,
//               the format version; a log under any other magic is
//               discarded whole on open), then records:
//
//                 u32  record magic
//                 u32  payload length
//                 16B  fingerprint (Fingerprint::to_bytes, pinned LE)
//                 u64  params hash (LE)
//                 u32  CRC-32 over (fingerprint | params | payload)
//                 ...  payload: the JsonValue::dump() of the result
//
//   cache.idx   key -> (offset, length) snapshot plus the log size it
//               described, CRC-trailed. Written atomically (tmp+rename)
//               on save_index() / destruction; purely an accelerator -
//               the log alone fully determines the cache.
//
// Integrity model - every failure drops records, never serves them:
//
//  * Warm restart verifies everything it trusts. Index entries are
//    validated against the log (bounds, record magic, key match, CRC)
//    before being believed; records appended after the index snapshot
//    (a crash before save_index) are recovered by scanning the log tail;
//    a truncated or bit-flipped record ends the tail scan and is
//    discarded, and the log is truncated back to the last good record so
//    future appends start clean.
//  * CRC covers key and payload, so a record can neither be served under
//    the wrong key nor with corrupted contents.
//  * Refutation payloads get no special trust here: the engine replays
//    the witness through the freshly parsed network on every cache hit
//    (memory or disk - the tiers are invisible to it) and calls
//    invalidate() on failure, which drops the record from BOTH tiers.
//    Disk corruption that survives CRC (a valid record written by a
//    buggy producer) is therefore still caught by the machine-checkable
//    certificate before a client ever sees it.
//
// Eviction: the live set is LRU-capped at `max_bytes` of record data
// (every lookup hit - either tier - and every insert refreshes recency).
// Eviction only unlinks the index entry; dead bytes accumulate in the log
// until compaction rewrites the live records into a fresh log
// (tmp+rename, atomic) once garbage dominates.
//
// Concurrency: one mutex around the disk structures (index, LRU, file
// streams). Memory hits take it only for an O(1) LRU splice, never for
// I/O.
#pragma once

#include <cstdint>
#include <fstream>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/obs.hpp"
#include "service/cache.hpp"
#include "util/crc32.hpp"

namespace shufflebound {

struct DiskCacheConfig {
  /// Directory holding cache.log / cache.idx; created if absent.
  std::string directory;
  /// LRU cap on live record bytes (header + payload). 0 = unlimited.
  std::uint64_t max_bytes = 256ull << 20;
  /// Rewrite the log when it exceeds this multiple of the live bytes.
  std::uint64_t compact_factor = 4;
};

class DiskBackedCache final : public ResultCache {
 public:
  struct TierStats {
    std::uint64_t mem_hits = 0;    // served from the memory tier
    std::uint64_t disk_hits = 0;   // memory miss, served from the log
    std::uint64_t misses = 0;      // absent from both tiers
    std::uint64_t inserts = 0;     // records appended to the log
    std::uint64_t evictions = 0;   // records unlinked by the LRU cap
    std::uint64_t invalidations = 0;  // fail-closed drops (engine-driven)
    std::uint64_t dropped_records = 0;  // corrupt/unreadable records dropped
    std::uint64_t recovered = 0;   // records accepted at open (index + tail)
    std::uint64_t compactions = 0;
    std::uint64_t io_errors = 0;   // failed appends/reads (entry not served)
    std::uint64_t entries = 0;     // live disk-index entries
    std::uint64_t live_bytes = 0;  // bytes of live records
    std::uint64_t log_bytes = 0;   // current log file size
  };

  /// Opens (or creates) the cache directory and performs the warm-restart
  /// recovery described above. Never throws on corrupt cache files - they
  /// degrade to dropped records; throws std::runtime_error only when the
  /// directory itself cannot be created or opened.
  explicit DiskBackedCache(DiskCacheConfig config);

  /// Persists the index snapshot (best effort) and closes the log.
  ~DiskBackedCache() override;

  DiskBackedCache(const DiskBackedCache&) = delete;
  DiskBackedCache& operator=(const DiskBackedCache&) = delete;

  /// Memory tier first, then the log; a disk hit is promoted into the
  /// memory tier and refreshes LRU recency.
  std::optional<JsonValue> lookup(const CacheKey& key) override;

  /// Writes through: memory tier + log append (+ eviction/compaction).
  void insert(const CacheKey& key, JsonValue payload) override;

  /// Drops the key from both tiers - the engine's fail-closed path for
  /// cached refutations whose witness replay failed.
  void invalidate(const CacheKey& key) override;

  /// Memory-tier stats under the base keys (what docs/service.md
  /// documents for `cache.*`), plus a "disk" object with the tier stats.
  JsonValue stats_to_json() const override;

  TierStats tier_stats() const;

  /// Writes cache.idx atomically so the next open skips the full-log
  /// scan. Called by the destructor; servers also call it after drain.
  void save_index();

  std::string log_path() const;
  std::string index_path() const;

 private:
  struct Entry {
    std::uint64_t offset = 0;      // of the record header in cache.log
    std::uint32_t payload_len = 0;
    std::list<CacheKey>::iterator lru;  // position in lru_ (back = hottest)
  };

  void open_or_recover();
  bool append_record_locked(const CacheKey& key, const std::string& payload);
  std::optional<std::string> read_payload_locked(const CacheKey& key,
                                                 const Entry& entry);
  void drop_locked(const CacheKey& key, std::uint64_t counter_delta);
  void evict_to_cap_locked();
  void maybe_compact_locked();
  void save_index_locked();

  DiskCacheConfig config_;
  mutable std::mutex disk_mutex_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> index_;
  std::list<CacheKey> lru_;  // front = coldest, back = hottest
  std::fstream log_;
  std::uint64_t append_offset_ = 0;  // end of the last good record
  std::uint64_t live_bytes_ = 0;

  obs::Counter mem_hits_{"server.cache_mem_hits"};
  obs::Counter disk_hits_{"server.cache_disk_hits"};
  obs::Counter tier_misses_{"server.cache_misses"};
  obs::Counter inserts_;
  obs::Counter evictions_;
  obs::Counter tier_invalidations_;
  obs::Counter dropped_records_;
  obs::Counter recovered_;
  obs::Counter compactions_;
  obs::Counter io_errors_;
};

// crc32_ieee - the CRC the log and index use, exposed for the corruption
// tests (which flip bytes and assert rejection) - now lives in
// util/crc32.hpp, shared with the chunked certificate stream.

}  // namespace shufflebound
