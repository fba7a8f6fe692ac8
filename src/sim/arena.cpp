#include "sim/arena.hpp"

#include <utility>

namespace shufflebound {

namespace {

/// splitmix64 finalizer: full-avalanche mixing for the purpose salt.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

ArenaKey ArenaKey::derived(std::uint64_t salt) const noexcept {
  const std::uint64_t mixed = mix64(salt);
  return ArenaKey{hi ^ mixed, lo ^ mix64(mixed)};
}

std::shared_ptr<const CompiledNetwork> CompilationArena::get_or_compile(
    const ArenaKey& key, const CompileFn& compile) {
  Shard& shard = shard_for(key);
  std::scoped_lock lock(shard.mutex);
  if (const auto it = shard.tables.find(key); it != shard.tables.end()) {
    hits_.add(1);
    return it->second;
  }
  misses_.add(1);
  auto table = std::make_shared<const CompiledNetwork>(compile());
  networks_.add(1);
  bytes_.add(table->bytes());
  shard.tables.emplace(key, table);
  return table;
}

CompilationArena::Stats CompilationArena::stats() const noexcept {
  Stats out;
  out.hits = hits_.value();
  out.misses = misses_.value();
  out.networks = networks_.value();
  out.bytes = bytes_.value();
  return out;
}

void CompilationArena::clear() {
  for (Shard& shard : shards_) {
    std::scoped_lock lock(shard.mutex);
    shard.tables.clear();
  }
  hits_.reset();
  misses_.reset();
  networks_.reset();
  bytes_.reset();
}

CompilationArena& CompilationArena::global() {
  static CompilationArena arena;
  return arena;
}

}  // namespace shufflebound
