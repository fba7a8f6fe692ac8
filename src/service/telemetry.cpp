#include "service/telemetry.hpp"

#include <algorithm>
#include <bit>

#include "service/job.hpp"

namespace shufflebound {

void LatencyHistogram::record(std::uint64_t micros) noexcept {
  const std::size_t bucket =
      micros == 0 ? 0
                  : std::min<std::size_t>(kBuckets - 1,
                                          std::bit_width(micros) - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(micros, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (micros > seen &&
         !max_.compare_exchange_weak(seen, micros, std::memory_order_relaxed)) {
  }
}

std::uint64_t LatencyHistogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::sum_micros() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::max_micros() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

JsonValue LatencyHistogram::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("count", count());
  out.set("sum_us", sum_micros());
  out.set("max_us", max_micros());
  JsonValue buckets = JsonValue::object();
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets_[b].load(std::memory_order_relaxed);
    if (n == 0) continue;
    const std::uint64_t upper = (std::uint64_t{1} << (b + 1)) - 1;
    buckets.set("le_" + std::to_string(upper) + "us", n);
  }
  out.set("buckets", std::move(buckets));
  return out;
}

void Telemetry::count_witness_revalidation(bool passed) noexcept {
  witness_revalidations_.fetch_add(1, std::memory_order_relaxed);
  if (!passed)
    witness_revalidation_failures_.fetch_add(1, std::memory_order_relaxed);
}

JsonValue Telemetry::to_json(std::uint64_t queue_high_water,
                             const JsonValue& cache_stats) const {
  JsonValue jobs = JsonValue::object();
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    const JobKindTelemetry& k = kinds_[i];
    if (k.submitted.load(std::memory_order_relaxed) == 0) continue;
    JsonValue entry = JsonValue::object();
    entry.set("submitted", k.submitted.load(std::memory_order_relaxed));
    entry.set("completed", k.completed.load(std::memory_order_relaxed));
    entry.set("failed", k.failed.load(std::memory_order_relaxed));
    entry.set("timed_out", k.timed_out.load(std::memory_order_relaxed));
    entry.set("cache_hits", k.cache_hits.load(std::memory_order_relaxed));
    entry.set("cache_misses", k.cache_misses.load(std::memory_order_relaxed));
    entry.set("latency", k.latency.to_json());
    if (k.cache_probe.count() > 0)
      entry.set("cache_probe", k.cache_probe.to_json());
    jobs.set(job_kind_name(static_cast<JobKind>(i)), std::move(entry));
  }
  JsonValue out = JsonValue::object();
  out.set("jobs", std::move(jobs));
  out.set("queue_high_water", queue_high_water);
  out.set("witness_revalidations",
          witness_revalidations_.load(std::memory_order_relaxed));
  out.set("witness_revalidation_failures",
          witness_revalidation_failures_.load(std::memory_order_relaxed));
  out.set("cache", cache_stats);
  return out;
}

}  // namespace shufflebound
