#include "service/cache.hpp"

#include <mutex>

namespace shufflebound {

std::optional<JsonValue> ResultCache::lookup(const CacheKey& key) {
  {
    std::shared_lock lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.add(1);
      return it->second;
    }
  }
  misses_.add(1);
  return std::nullopt;
}

void ResultCache::insert(const CacheKey& key, JsonValue payload) {
  std::unique_lock lock(mutex_);
  entries_.insert_or_assign(key, std::move(payload));
}

void ResultCache::invalidate(const CacheKey& key) {
  std::unique_lock lock(mutex_);
  if (entries_.erase(key) != 0)
    invalidations_.add(1);
}

JsonValue ResultCache::stats_to_json() const {
  std::uint64_t entries = 0;
  {
    std::shared_lock lock(mutex_);
    entries = entries_.size();
  }
  JsonValue out = JsonValue::object();
  out.set("hits", hits_.value());
  out.set("misses", misses_.value());
  out.set("invalidations", invalidations_.value());
  out.set("entries", entries);
  return out;
}

}  // namespace shufflebound
