// Content-addressed result cache for the analysis engine.
//
// Keys combine the canonical network fingerprint with a hash of the
// result-affecting job parameters (kind; trials/seed for count-sorted;
// k for refute). Values are the serialized-result payloads - exactly what
// a fresh computation would emit, so a hit and a miss produce
// byte-identical result lines.
//
// The cache stores only completed, successful analyses; errors and
// timed-out jobs are never cached. Refutation payloads are additionally
// re-validated against the submitted network before being served (the
// engine replays the witness pair; see engine.cpp) - a cache can then be
// trusted exactly as far as the machine-checkable certificate, not as far
// as the cache's own integrity.
//
// Concurrency: shared_mutex, readers parallel, writers exclusive. One
// engine computes each key once (its workers coalesce on an in-flight
// key); two engines that share a cache may both compute and insert the
// same key, and then the last write wins - since payloads are
// deterministic the duplicates are identical.
#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

#include "obs/obs.hpp"
#include "service/fingerprint.hpp"
#include "service/json.hpp"

namespace shufflebound {

struct CacheKey {
  Fingerprint network;
  std::uint64_t params = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept {
    // Fingerprint words are already well mixed; fold them.
    return static_cast<std::size_t>(key.network.hi ^
                                    (key.network.lo * 0x9E3779B97F4A7C15ull) ^
                                    (key.params * 0xBF58476D1CE4E5B9ull));
  }
};

/// The in-memory result cache - and the extension point for layered
/// caches: lookup/insert/invalidate are virtual so a subclass can stack
/// further tiers below the map (the server's disk-backed cache,
/// src/server/diskcache.hpp, overrides all three and uses this class as
/// its memory tier). The engine only ever talks to the base interface.
class ResultCache {
 public:
  virtual ~ResultCache() = default;

  /// Returns the cached payload, counting a hit or miss.
  virtual std::optional<JsonValue> lookup(const CacheKey& key);

  virtual void insert(const CacheKey& key, JsonValue payload);

  /// Drops an entry that failed re-validation; counts an invalidation.
  virtual void invalidate(const CacheKey& key);

  /// {"hits","misses","invalidations","entries"}.
  virtual JsonValue stats_to_json() const;

 private:
  mutable std::shared_mutex mutex_;
  std::unordered_map<CacheKey, JsonValue, CacheKeyHash> entries_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter invalidations_;
};

}  // namespace shufflebound
