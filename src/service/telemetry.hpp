// Structured telemetry for the analysis engine: per-job-kind counters,
// latency histograms, and queue pressure, serializable to one JSON
// document. Everything here is observability - nothing feeds back into
// job results, which stay pure functions of their specs.
//
// Counters are lock-free atomics (workers bump them on the hot path); the
// histogram uses one atomic bucket per power-of-two microsecond band,
// covering 1us .. ~1.1h, which is plenty of resolution for "where does
// the time go" without a dependency.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "service/job.hpp"
#include "service/json.hpp"

namespace shufflebound {

class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;  // bucket b: [2^b, 2^{b+1}) us

  void record(std::uint64_t micros) noexcept;

  std::uint64_t count() const noexcept;
  std::uint64_t sum_micros() const noexcept;
  std::uint64_t max_micros() const noexcept;

  /// {"count":..,"sum_us":..,"max_us":..,"buckets":{"le_<us>":count,...}}
  /// with empty buckets omitted.
  JsonValue to_json() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

struct JobKindTelemetry {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};   // ok results
  std::atomic<std::uint64_t> failed{0};      // error results (incl. invalid)
  std::atomic<std::uint64_t> timed_out{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  /// Job time EXCLUDING cache probes: parse + execute (or the cost of
  /// serving from cache once probing is done). Keeping the probe out
  /// means a warm batch's latency histogram reflects result delivery,
  /// not lookup + revalidation cost - that lives in `cache_probe`.
  LatencyHistogram latency;
  /// Cache lookup + (for refute hits) witness revalidation time, per
  /// probe. Recorded only when the engine actually probed the cache.
  LatencyHistogram cache_probe;
};

class Telemetry {
 public:
  JobKindTelemetry& kind(std::size_t kind_index) { return kinds_.at(kind_index); }
  const JobKindTelemetry& kind(std::size_t kind_index) const {
    return kinds_.at(kind_index);
  }

  void count_witness_revalidation(bool passed) noexcept;

  /// The full telemetry document; `queue_high_water` is the owner's queue
  /// depth mark and `cache_stats` is embedded under "cache".
  JsonValue to_json(std::uint64_t queue_high_water,
                    const JsonValue& cache_stats) const;

 private:
  // Indexed by JobKind (Info..Invalid).
  std::array<JobKindTelemetry, kJobKindCount> kinds_{};
  std::atomic<std::uint64_t> witness_revalidations_{0};
  std::atomic<std::uint64_t> witness_revalidation_failures_{0};
};

}  // namespace shufflebound
