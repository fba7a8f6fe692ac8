#include "server/diskcache.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

namespace shufflebound {
namespace {

// The log's format version. A log under another magic - version 1's
// refute records still carry `witness` and `survivors` - is dropped whole,
// so every payload served matches what the engine writes today.
constexpr char kLogMagic[8] = {'S', 'B', 'D', 'C', 'L', 'O', 'G', '2'};
constexpr char kIndexMagic[8] = {'S', 'B', 'D', 'C', 'I', 'D', 'X', '1'};
constexpr std::uint32_t kRecordMagic = 0x53424331u;  // "SBC1"

// Fixed record header: magic, payload_len, fingerprint bytes, params, crc.
constexpr std::size_t kHeaderSize = 4 + 4 + 16 + 8 + 4;

void put_u32(std::uint8_t* out, std::uint32_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* out, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i)
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* in) noexcept {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* in) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}

/// Serializes a record header; `crc` must already cover key and payload.
std::array<std::uint8_t, kHeaderSize> encode_header(const CacheKey& key,
                                                    std::uint32_t payload_len,
                                                    std::uint32_t crc) noexcept {
  std::array<std::uint8_t, kHeaderSize> header{};
  put_u32(header.data(), kRecordMagic);
  put_u32(header.data() + 4, payload_len);
  const std::array<std::uint8_t, 16> fp = key.network.to_bytes();
  std::memcpy(header.data() + 8, fp.data(), fp.size());
  put_u64(header.data() + 24, key.params);
  put_u32(header.data() + 32, crc);
  return header;
}

/// The CRC input is (fingerprint bytes | params LE | payload), so a record
/// is bound to its key as well as its contents.
std::uint32_t record_crc(const CacheKey& key, const char* payload,
                         std::size_t payload_len) noexcept {
  const std::array<std::uint8_t, 16> fp = key.network.to_bytes();
  std::uint8_t params[8];
  put_u64(params, key.params);
  std::uint32_t crc = crc32_ieee(fp.data(), fp.size());
  crc = crc32_ieee(params, sizeof(params), crc);
  return crc32_ieee(payload, payload_len, crc);
}

std::uint64_t record_size(std::uint32_t payload_len) noexcept {
  return kHeaderSize + static_cast<std::uint64_t>(payload_len);
}

/// Reads one record at `offset`. Returns false (without touching `out_*`)
/// on any inconsistency: short read, bad magic, CRC mismatch, or - when
/// `expect` is set - a key that does not match the index entry.
bool read_record_at(std::fstream& log, std::uint64_t offset,
                    std::uint64_t file_size, const CacheKey* expect,
                    CacheKey& out_key, std::string& out_payload) {
  if (offset + kHeaderSize > file_size) return false;
  std::array<std::uint8_t, kHeaderSize> header{};
  log.clear();
  log.seekg(static_cast<std::streamoff>(offset));
  log.read(reinterpret_cast<char*>(header.data()), kHeaderSize);
  if (!log) return false;
  if (get_u32(header.data()) != kRecordMagic) return false;
  const std::uint32_t payload_len = get_u32(header.data() + 4);
  if (offset + record_size(payload_len) > file_size) return false;
  std::array<std::uint8_t, 16> fp{};
  std::memcpy(fp.data(), header.data() + 8, fp.size());
  CacheKey key;
  key.network = Fingerprint::from_bytes(fp);
  key.params = get_u64(header.data() + 24);
  if (expect != nullptr && !(key == *expect)) return false;
  std::string payload(payload_len, '\0');
  log.read(payload.data(), static_cast<std::streamsize>(payload_len));
  if (!log) return false;
  if (record_crc(key, payload.data(), payload.size()) !=
      get_u32(header.data() + 32))
    return false;
  out_key = key;
  out_payload = std::move(payload);
  return true;
}

std::uint64_t stream_file_size(std::fstream& stream) {
  stream.clear();
  stream.seekg(0, std::ios::end);
  const std::streamoff end = stream.tellg();
  return end < 0 ? 0 : static_cast<std::uint64_t>(end);
}

/// POSIX truncate; <filesystem> resize_file needs error_code plumbing and
/// this path already speaks errno.
bool truncate_file(const std::string& path, std::uint64_t size) {
  return ::truncate(path.c_str(), static_cast<off_t>(size)) == 0;
}

}  // namespace

DiskBackedCache::DiskBackedCache(DiskCacheConfig config)
    : config_(std::move(config)) {
  if (config_.directory.empty())
    throw std::runtime_error("disk cache: empty directory");
  if (::mkdir(config_.directory.c_str(), 0755) != 0 && errno != EEXIST)
    throw std::runtime_error("disk cache: cannot create directory " +
                             config_.directory);
  open_or_recover();
}

DiskBackedCache::~DiskBackedCache() {
  std::scoped_lock lock(disk_mutex_);
  save_index_locked();
}

std::string DiskBackedCache::log_path() const {
  return config_.directory + "/cache.log";
}

std::string DiskBackedCache::index_path() const {
  return config_.directory + "/cache.idx";
}

void DiskBackedCache::open_or_recover() {
  const std::string path = log_path();
  // Open read+write without truncation, creating the file if absent.
  log_.open(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!log_.is_open()) {
    log_.open(path, std::ios::out | std::ios::binary);
    log_.close();
    log_.open(path, std::ios::in | std::ios::out | std::ios::binary);
  }
  if (!log_.is_open())
    throw std::runtime_error("disk cache: cannot open " + path);

  std::uint64_t file_size = stream_file_size(log_);
  if (file_size < sizeof(kLogMagic)) {
    // Fresh (or hopelessly short) log: start over with just the magic.
    log_.close();
    log_.open(path, std::ios::out | std::ios::trunc | std::ios::binary);
    log_.write(kLogMagic, sizeof(kLogMagic));
    log_.flush();
    log_.close();
    log_.open(path, std::ios::in | std::ios::out | std::ios::binary);
    file_size = sizeof(kLogMagic);
  } else {
    char magic[sizeof(kLogMagic)];
    log_.seekg(0);
    log_.read(magic, sizeof(magic));
    if (!log_ || std::memcmp(magic, kLogMagic, sizeof(magic)) != 0) {
      // Wrong file type entirely: refuse to trust any of it.
      dropped_records_.add(1);
      log_.close();
      log_.open(path, std::ios::out | std::ios::trunc | std::ios::binary);
      log_.write(kLogMagic, sizeof(kLogMagic));
      log_.flush();
      log_.close();
      log_.open(path, std::ios::in | std::ios::out | std::ios::binary);
      file_size = sizeof(kLogMagic);
    }
  }

  // Phase 1: adopt index entries that still validate against the log.
  std::uint64_t indexed_log_end = sizeof(kLogMagic);
  {
    std::ifstream idx(index_path(), std::ios::binary);
    std::vector<std::uint8_t> blob;
    if (idx.is_open()) {
      blob.assign(std::istreambuf_iterator<char>(idx),
                  std::istreambuf_iterator<char>());
    }
    // Layout: magic(8) log_end(8) count(8) entries(count * 36) crc(4),
    // where an entry is fingerprint(16) params(8) offset(8) len(4).
    constexpr std::size_t kIdxEntry = 16 + 8 + 4 + 8;
    constexpr std::size_t kIdxFixed = sizeof(kIndexMagic) + 8 + 8 + 4;
    bool usable = blob.size() >= kIdxFixed &&
                  std::memcmp(blob.data(), kIndexMagic, sizeof(kIndexMagic)) == 0;
    std::uint64_t count = 0;
    if (usable) {
      // Bound count before multiplying: count * kIdxEntry wraps mod 2^64.
      count = get_u64(blob.data() + 16);
      usable = count <= (blob.size() - kIdxFixed) / kIdxEntry &&
               blob.size() == kIdxFixed + count * kIdxEntry;
    }
    if (usable) {
      const std::uint32_t stored_crc = get_u32(blob.data() + blob.size() - 4);
      usable = crc32_ieee(blob.data(), blob.size() - 4) == stored_crc;
    }
    if (usable) {
      indexed_log_end = get_u64(blob.data() + 8);
      if (indexed_log_end < sizeof(kLogMagic) || indexed_log_end > file_size) {
        // Index describes a log we do not have (e.g. log truncated behind
        // its back): distrust the snapshot entirely, rebuild from the log.
        indexed_log_end = sizeof(kLogMagic);
        dropped_records_.add(count);
      } else {
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::uint8_t* e = blob.data() + 24 + i * kIdxEntry;
          std::array<std::uint8_t, 16> fp{};
          std::memcpy(fp.data(), e, fp.size());
          CacheKey expect;
          expect.network = Fingerprint::from_bytes(fp);
          expect.params = get_u64(e + 16);
          Entry entry;
          entry.offset = get_u64(e + 24);
          entry.payload_len = get_u32(e + 32);
          CacheKey got;
          std::string payload;
          // Each entry is verified independently: one corrupt record (or
          // one flipped index byte) drops that entry, not the snapshot.
          if (entry.offset + record_size(entry.payload_len) > indexed_log_end ||
              !read_record_at(log_, entry.offset, file_size, &expect, got,
                              payload)) {
            dropped_records_.add(1);
            continue;
          }
          lru_.push_back(expect);
          entry.lru = std::prev(lru_.end());
          live_bytes_ += record_size(entry.payload_len);
          index_.insert_or_assign(expect, entry);
          recovered_.add(1);
        }
      }
    } else if (!blob.empty()) {
      dropped_records_.add(1);
    }
  }

  // Phase 2: scan the tail the index never saw (crash before save_index).
  // The first bad record ends the scan; everything after it is garbage of
  // unknown framing, so the log is truncated back to the last good byte.
  std::uint64_t scan = indexed_log_end;
  while (scan < file_size) {
    CacheKey key;
    std::string payload;
    if (!read_record_at(log_, scan, file_size, nullptr, key, payload)) {
      dropped_records_.add(1);
      break;
    }
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // Later record supersedes: rewrite in place in the LRU/live set.
      live_bytes_ -= record_size(it->second.payload_len);
      it->second.offset = scan;
      it->second.payload_len = static_cast<std::uint32_t>(payload.size());
      live_bytes_ += record_size(it->second.payload_len);
    } else {
      Entry entry;
      entry.offset = scan;
      entry.payload_len = static_cast<std::uint32_t>(payload.size());
      lru_.push_back(key);
      entry.lru = std::prev(lru_.end());
      live_bytes_ += record_size(entry.payload_len);
      index_.insert_or_assign(key, entry);
    }
    recovered_.add(1);
    scan += record_size(static_cast<std::uint32_t>(payload.size()));
  }

  append_offset_ = scan;
  if (scan < file_size) {
    log_.close();
    if (!truncate_file(path, scan))
      io_errors_.add(1);
    log_.open(path, std::ios::in | std::ios::out | std::ios::binary);
    if (!log_.is_open())
      throw std::runtime_error("disk cache: cannot reopen " + path);
  }
  evict_to_cap_locked();  // a shrunken max_bytes applies on reopen too
}

std::optional<JsonValue> DiskBackedCache::lookup(const CacheKey& key) {
  if (std::optional<JsonValue> hit = ResultCache::lookup(key)) {
    mem_hits_.add(1);
    {
      // Memory hits must still refresh disk recency, or the hottest keys
      // (always promoted, so always mem hits) would look coldest to the
      // eviction scan.
      std::scoped_lock lock(disk_mutex_);
      const auto it = index_.find(key);
      if (it != index_.end()) lru_.splice(lru_.end(), lru_, it->second.lru);
    }
    return hit;
  }
  // ResultCache::lookup already counted a memory miss; now try the log.
  {
    std::scoped_lock lock(disk_mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      if (std::optional<std::string> payload =
              read_payload_locked(key, it->second)) {
        try {
          JsonValue value = JsonValue::parse(*payload);
          lru_.splice(lru_.end(), lru_, it->second.lru);  // refresh recency
          disk_hits_.add(1);
          // Promote into the memory tier; the next lookup is a mem hit.
          ResultCache::insert(key, value);
          return value;
        } catch (const std::invalid_argument&) {
          // CRC-valid but unparseable payload (writer bug): fail closed.
        }
      }
      drop_locked(key, 0);
      dropped_records_.add(1);
    }
  }
  tier_misses_.add(1);
  return std::nullopt;
}

void DiskBackedCache::insert(const CacheKey& key, JsonValue payload) {
  const std::string serialized = payload.dump();
  ResultCache::insert(key, std::move(payload));
  std::scoped_lock lock(disk_mutex_);
  if (!append_record_locked(key, serialized)) {
    io_errors_.add(1);
    return;
  }
  inserts_.add(1);
  evict_to_cap_locked();
  maybe_compact_locked();
}

void DiskBackedCache::invalidate(const CacheKey& key) {
  ResultCache::invalidate(key);
  std::scoped_lock lock(disk_mutex_);
  if (index_.find(key) != index_.end()) {
    drop_locked(key, 0);
    tier_invalidations_.add(1);
  }
}

bool DiskBackedCache::append_record_locked(const CacheKey& key,
                                           const std::string& payload) {
  const auto payload_len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = record_crc(key, payload.data(), payload.size());
  const std::array<std::uint8_t, kHeaderSize> header =
      encode_header(key, payload_len, crc);
  log_.clear();
  log_.seekp(static_cast<std::streamoff>(append_offset_));
  log_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  log_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  log_.flush();
  if (!log_) return false;

  const std::uint64_t offset = append_offset_;
  append_offset_ += record_size(payload_len);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    live_bytes_ -= record_size(it->second.payload_len);
    it->second.offset = offset;
    it->second.payload_len = payload_len;
    live_bytes_ += record_size(payload_len);
    lru_.splice(lru_.end(), lru_, it->second.lru);
  } else {
    Entry entry;
    entry.offset = offset;
    entry.payload_len = payload_len;
    lru_.push_back(key);
    entry.lru = std::prev(lru_.end());
    live_bytes_ += record_size(payload_len);
    index_.insert_or_assign(key, entry);
  }
  return true;
}

std::optional<std::string> DiskBackedCache::read_payload_locked(
    const CacheKey& key, const Entry& entry) {
  CacheKey got;
  std::string payload;
  if (!read_record_at(log_, entry.offset, append_offset_, &key, got, payload))
    return std::nullopt;
  return payload;
}

void DiskBackedCache::drop_locked(const CacheKey& key,
                                  std::uint64_t counter_delta) {
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  live_bytes_ -= record_size(it->second.payload_len);
  lru_.erase(it->second.lru);
  index_.erase(it);
  if (counter_delta != 0)
    evictions_.add(counter_delta);
}

void DiskBackedCache::evict_to_cap_locked() {
  if (config_.max_bytes == 0) return;
  while (live_bytes_ > config_.max_bytes && !lru_.empty()) {
    const CacheKey victim = lru_.front();
    // Coldest-first; the record's bytes stay in the log until compaction.
    drop_locked(victim, 1);
    ResultCache::invalidate(victim);  // keep the tiers consistent
  }
}

void DiskBackedCache::maybe_compact_locked() {
  if (config_.compact_factor == 0) return;
  const std::uint64_t floor = 1u << 16;  // don't churn tiny logs
  if (append_offset_ < floor) return;
  if (append_offset_ <= live_bytes_ * config_.compact_factor) return;

  // Rewrite live records (LRU order, coldest first, preserving recency)
  // into a fresh log, then swap it in atomically.
  const std::string tmp_path = log_path() + ".tmp";
  std::ofstream fresh(tmp_path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!fresh.is_open()) {
    io_errors_.add(1);
    return;
  }
  fresh.write(kLogMagic, sizeof(kLogMagic));
  std::uint64_t offset = sizeof(kLogMagic);
  std::vector<std::pair<CacheKey, Entry>> rewritten;
  rewritten.reserve(index_.size());
  for (const CacheKey& key : lru_) {
    const auto it = index_.find(key);
    std::optional<std::string> payload = read_payload_locked(key, it->second);
    if (!payload) {
      dropped_records_.add(1);
      continue;
    }
    const auto payload_len = static_cast<std::uint32_t>(payload->size());
    const std::uint32_t crc = record_crc(key, payload->data(), payload->size());
    const std::array<std::uint8_t, kHeaderSize> header =
        encode_header(key, payload_len, crc);
    fresh.write(reinterpret_cast<const char*>(header.data()),
                static_cast<std::streamsize>(header.size()));
    fresh.write(payload->data(), static_cast<std::streamsize>(payload->size()));
    Entry entry = it->second;
    entry.offset = offset;
    rewritten.emplace_back(key, entry);
    offset += record_size(payload_len);
  }
  fresh.flush();
  if (!fresh) {
    io_errors_.add(1);
    std::remove(tmp_path.c_str());
    return;
  }
  fresh.close();
  log_.close();
  if (std::rename(tmp_path.c_str(), log_path().c_str()) != 0) {
    io_errors_.add(1);
    std::remove(tmp_path.c_str());
    log_.open(log_path(), std::ios::in | std::ios::out | std::ios::binary);
    return;
  }
  log_.open(log_path(), std::ios::in | std::ios::out | std::ios::binary);
  append_offset_ = offset;
  live_bytes_ = 0;
  for (auto& [key, entry] : rewritten) {
    live_bytes_ += record_size(entry.payload_len);
    index_[key].offset = entry.offset;
  }
  // Entries whose payload failed to read back were dropped above.
  for (auto it = index_.begin(); it != index_.end();) {
    const bool kept = std::any_of(
        rewritten.begin(), rewritten.end(),
        [&](const auto& kv) { return kv.first == it->first; });
    if (kept) {
      ++it;
    } else {
      lru_.erase(it->second.lru);
      it = index_.erase(it);
    }
  }
  compactions_.add(1);
  save_index_locked();
}

void DiskBackedCache::save_index() {
  std::scoped_lock lock(disk_mutex_);
  save_index_locked();
}

void DiskBackedCache::save_index_locked() {
  constexpr std::size_t kIdxEntry = 16 + 8 + 4 + 8;
  std::vector<std::uint8_t> blob(sizeof(kIndexMagic) + 16 +
                                 index_.size() * kIdxEntry + 4);
  std::memcpy(blob.data(), kIndexMagic, sizeof(kIndexMagic));
  put_u64(blob.data() + 8, append_offset_);
  put_u64(blob.data() + 16, index_.size());
  std::size_t i = 0;
  for (const auto& [key, entry] : index_) {
    std::uint8_t* e = blob.data() + 24 + i * kIdxEntry;
    const std::array<std::uint8_t, 16> fp = key.network.to_bytes();
    std::memcpy(e, fp.data(), fp.size());
    put_u64(e + 16, key.params);
    put_u64(e + 24, entry.offset);
    put_u32(e + 32, entry.payload_len);
    ++i;
  }
  put_u32(blob.data() + blob.size() - 4,
          crc32_ieee(blob.data(), blob.size() - 4));

  const std::string tmp_path = index_path() + ".tmp";
  std::ofstream out(tmp_path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!out.is_open()) {
    io_errors_.add(1);
    return;
  }
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out) {
    io_errors_.add(1);
    std::remove(tmp_path.c_str());
    return;
  }
  out.close();
  if (std::rename(tmp_path.c_str(), index_path().c_str()) != 0) {
    io_errors_.add(1);
    std::remove(tmp_path.c_str());
  }
}

DiskBackedCache::TierStats DiskBackedCache::tier_stats() const {
  TierStats stats;
  stats.mem_hits = mem_hits_.value();
  stats.disk_hits = disk_hits_.value();
  stats.misses = tier_misses_.value();
  stats.inserts = inserts_.value();
  stats.evictions = evictions_.value();
  stats.invalidations = tier_invalidations_.value();
  stats.dropped_records = dropped_records_.value();
  stats.recovered = recovered_.value();
  stats.compactions = compactions_.value();
  stats.io_errors = io_errors_.value();
  {
    std::scoped_lock lock(disk_mutex_);
    stats.entries = index_.size();
    stats.live_bytes = live_bytes_;
    stats.log_bytes = append_offset_;
  }
  return stats;
}

JsonValue DiskBackedCache::stats_to_json() const {
  JsonValue out = ResultCache::stats_to_json();
  const TierStats tier = tier_stats();
  JsonValue disk = JsonValue::object();
  disk.set("mem_hits", tier.mem_hits);
  disk.set("disk_hits", tier.disk_hits);
  disk.set("misses", tier.misses);
  disk.set("inserts", tier.inserts);
  disk.set("evictions", tier.evictions);
  disk.set("invalidations", tier.invalidations);
  disk.set("dropped_records", tier.dropped_records);
  disk.set("recovered", tier.recovered);
  disk.set("compactions", tier.compactions);
  disk.set("io_errors", tier.io_errors);
  disk.set("entries", tier.entries);
  disk.set("live_bytes", tier.live_bytes);
  disk.set("log_bytes", tier.log_bytes);
  out.set("disk", std::move(disk));
  return out;
}

}  // namespace shufflebound
