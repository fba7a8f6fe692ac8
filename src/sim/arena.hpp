// Compile-once op-table arena: a concurrent, fingerprint-keyed cache of
// sealed CompiledNetwork tables.
//
// The service engine used to compile a fresh op table per job. Under a
// result-cache miss storm - a batch of jobs over a handful of distinct
// networks, or the server revalidating cached refutations - the same
// network was recompiled on every worker, and each job's table was a
// separate allocation scattered across the heap. The arena replaces
// that with batched, shared storage:
//
//  * get_or_compile() returns an immutable shared view
//    (shared_ptr<const CompiledNetwork>); every job over the same
//    network shares ONE sealed contiguous table (compiled_net.hpp),
//    compiled exactly once even under concurrent misses (the owning
//    shard's mutex covers the compile, so racing workers wait for the
//    first compile instead of duplicating it - compiles are
//    microseconds, so the hold is cheap).
//  * Keys are caller-supplied 128-bit digests - the service derives
//    them from its canonical network fingerprints
//    (service/fingerprint.hpp) with a purpose salt, since the compiled
//    form depends on WHAT is compiled (e.g. the certify path compiles
//    the redundancy-eliminated circuit, revalidation compiles the raw
//    parse; same network fingerprint, different tables). The arena
//    itself stays below the service layer and never hashes networks.
//  * Shards (16-way, keyed by the digest's low bits) keep concurrent
//    workers off each other's locks; hits/misses/bytes are exposed as
//    stats() for telemetry, and feed the process-wide obs counters
//    arena.hits, arena.misses and arena.bytes while tracing is on.
//
// Lifetime: views are shared_ptrs, so clear() (or arena destruction)
// never invalidates a table a worker is still sweeping.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/obs.hpp"
#include "sim/compiled_net.hpp"

namespace shufflebound {

/// 128-bit arena key. Callers own the hashing scheme; two networks with
/// equal keys MUST have identical compiled forms.
struct ArenaKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const ArenaKey&, const ArenaKey&) = default;

  /// Derives a purpose-salted key (splitmix64 over the salt, folded
  /// into both halves) so distinct compiled forms of the same source
  /// network occupy distinct arena slots.
  ArenaKey derived(std::uint64_t salt) const noexcept;
};

class CompilationArena {
 public:
  using CompileFn = std::function<CompiledNetwork()>;

  /// The view for `key`: the cached table on a hit, or the result of
  /// running `compile` (under the shard lock - once per key, ever) on a
  /// miss. `compile` must be pure with respect to the key.
  std::shared_ptr<const CompiledNetwork> get_or_compile(
      const ArenaKey& key, const CompileFn& compile);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    // == networks compiled through the arena
    std::uint64_t networks = 0;  // resident compiled tables
    std::uint64_t bytes = 0;     // sum of resident table footprints
  };
  Stats stats() const noexcept;

  /// Drops every cached table (outstanding views stay valid). Stats
  /// reset with it.
  void clear();

  /// The process-wide arena the service engines share by default.
  static CompilationArena& global();

 private:
  static constexpr std::size_t kShards = 16;

  struct KeyHash {
    std::size_t operator()(const ArenaKey& key) const noexcept {
      // The key is already a uniform digest; fold, don't rehash.
      return static_cast<std::size_t>(key.lo ^ (key.hi * 0x9E3779B97F4A7C15ull));
    }
  };

  struct Shard {
    std::mutex mutex;
    std::unordered_map<ArenaKey, std::shared_ptr<const CompiledNetwork>,
                       KeyHash>
        tables;
  };

  Shard& shard_for(const ArenaKey& key) noexcept {
    return shards_[static_cast<std::size_t>(key.lo) % kShards];
  }

  std::array<Shard, kShards> shards_;
  obs::Counter hits_{"arena.hits"};
  obs::Counter misses_{"arena.misses"};
  obs::Counter networks_;
  obs::Counter bytes_{"arena.bytes"};
};

}  // namespace shufflebound
