// Low-overhead tracing and metrics core - the observability layer's
// in-process substrate (exporters live in obs/export.hpp).
//
// Three primitives, all safe to call from any thread:
//
//  * Span: an RAII scope that records a complete (start, duration) event
//    into a per-thread buffer. Each thread appends to its own buffer
//    behind its own mutex, so recording never contends with other
//    recording threads - the only contention is with an exporter
//    draining the buffers, which happens once per run.
//  * Counter: a relaxed-atomic counter (or gauge, via set()). The
//    registry owns the process-wide ones, by name; a component owns its
//    own as members (the engine's per-kind job counts, the caches' and
//    the server's stats) and renders them in its own documents. An owned
//    counter may name the process-wide counter it feeds: while tracing
//    is on, add() also adds there, and only then registers the name.
//  * Histogram: an owned, always-on latency histogram in power-of-two
//    microsecond buckets (the engine's per-kind latency and cache-probe
//    times).
//
// Spans and the process-wide counters are gated on one process-global
// atomic enable flag, off by default. A disabled Span construction is a
// single relaxed load and no stores; the SB_OBS_COUNT macro and a
// feeding owned counter likewise load the flag before touching (or
// lazily registering) the process-wide counter. E16/E17 record the
// disabled-path cost as a gated bench metric, and the determinism tests
// in tests/test_obs.cpp hold instrumented code to "observability never
// perturbs results".
//
// Span names and categories are `const char*` and must point at storage
// that outlives the export (string literals in practice): records keep
// the pointer, not a copy, to keep the hot path allocation-free.
//
// The core is header-only on purpose: it is included from
// util/thread_pool.hpp and the kernel sources, which every target links,
// and inline definitions keep the dependency graph flat (no library
// ordering constraints; timestamps and the registry still have exactly
// one instance process-wide through inline-function-local statics).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace shufflebound::obs {

/// One complete trace event: [start_us, start_us + dur_us) on thread
/// `tid` (obs-assigned, stable per thread for the process lifetime).
struct SpanRecord {
  const char* cat = nullptr;
  const char* name = nullptr;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
};

/// Monotonic counter / gauge. Registry counters are address-stable once
/// registered (the registry hands out references that stay valid across
/// reset()). An owned counter built with a name feeds the process-wide
/// counter of that name while tracing is on.
class Counter {
 public:
  Counter() = default;
  /// `feeds` must outlive the counter (a string literal in practice).
  explicit Counter(const char* feeds) noexcept : feeds_(feeds) {}

  /// Defined below the registry: a feeding counter resolves its
  /// process-wide counter there on its first traced add.
  void add(std::uint64_t n);
  /// Gauge-style overwrite (lane widths, worker counts).
  void set(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
  const char* feeds_ = nullptr;
  std::atomic<Counter*> fed_{nullptr};  // feeds_'s counter, once resolved
};

/// Latency histogram: one bucket per power-of-two microsecond band,
/// [2^b, 2^(b+1)) us for b < 31 (0 us lands in bucket 0, everything from
/// 2^31 us in the last), plus count, sum and max. Always on; rendered by
/// histogram_to_json (obs/export.hpp).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void record(std::uint64_t micros) noexcept {
    const std::size_t b =
        micros == 0 ? 0
                    : std::min<std::size_t>(kBuckets - 1,
                                            std::bit_width(micros) - 1);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(micros, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (micros > seen &&
           !max_.compare_exchange_weak(seen, micros, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum_us() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t max_us() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Microseconds since the process's observability epoch (first call).
/// Chrome trace `ts` is in microseconds, so this is the native unit.
inline std::uint64_t now_us() {
  using SteadyClock = std::chrono::steady_clock;
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(SteadyClock::now() -
                                                            epoch)
          .count());
}

class Registry {
 public:
  /// Per-thread span cap: past it, spans are counted as dropped instead
  /// of recorded, bounding memory for long traced runs.
  static constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 20;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends one complete span to the calling thread's buffer.
  void record(const char* cat, const char* name, std::uint64_t start_us,
              std::uint64_t dur_us) {
    ThreadBuffer& buffer = local_buffer();
    std::scoped_lock lock(buffer.mutex);
    if (buffer.spans.size() >= kMaxSpansPerThread) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buffer.spans.push_back(SpanRecord{cat, name, start_us, dur_us, buffer.tid});
  }

  /// Registers (once) and returns the counter named `name`. The
  /// reference stays valid for the process lifetime.
  Counter& counter(std::string_view name) {
    std::scoped_lock lock(mutex_);
    const auto it = counters_.find(name);
    if (it != counters_.end()) return *it->second;
    return *counters_.emplace(std::string(name), std::make_unique<Counter>())
                .first->second;
  }

  /// All spans recorded so far, sorted by start time (ties: longer spans
  /// first, so enclosing spans precede their children), then thread id.
  std::vector<SpanRecord> snapshot_spans() const {
    std::vector<SpanRecord> all;
    {
      std::scoped_lock lock(mutex_);
      for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
        std::scoped_lock buffer_lock(buffer->mutex);
        all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
      }
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.start_us != b.start_us) return a.start_us < b.start_us;
                if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
                return a.tid < b.tid;
              });
    return all;
  }

  /// Counter names and values, sorted by name (std::map order).
  std::vector<std::pair<std::string, std::uint64_t>> snapshot_counters() const {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    std::scoped_lock lock(mutex_);
    out.reserve(counters_.size());
    for (const auto& [name, counter] : counters_)
      out.emplace_back(name, counter->value());
    return out;
  }

  std::uint64_t dropped_spans() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Total spans currently recorded across all thread buffers.
  std::uint64_t span_count() const {
    std::uint64_t total = 0;
    std::scoped_lock lock(mutex_);
    for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
      std::scoped_lock buffer_lock(buffer->mutex);
      total += buffer->spans.size();
    }
    return total;
  }

  /// Clears spans and zeroes counters; registrations (thread buffers,
  /// counter references held by call sites) stay valid. Test support -
  /// not meant to run concurrently with recording.
  void reset() {
    std::scoped_lock lock(mutex_);
    for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
      std::scoped_lock buffer_lock(buffer->mutex);
      buffer->spans.clear();
    }
    for (const auto& [name, counter] : counters_) counter->reset();
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  struct ThreadBuffer {
    std::mutex mutex;
    std::vector<SpanRecord> spans;
    std::uint32_t tid = 0;
  };

  /// The calling thread's buffer, registered on first use. The registry
  /// shares ownership, so spans survive thread exit (pool workers are
  /// joined before the CLI exports).
  ThreadBuffer& local_buffer() {
    thread_local std::shared_ptr<ThreadBuffer> tl_buffer;
    if (!tl_buffer) {
      tl_buffer = std::make_shared<ThreadBuffer>();
      std::scoped_lock lock(mutex_);
      tl_buffer->tid = next_tid_++;
      buffers_.push_back(tl_buffer);
    }
    return *tl_buffer;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;  // guards buffers_ and counters_
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::uint32_t next_tid_ = 1;
};

/// The process-wide registry (unique across translation units).
inline Registry& registry() {
  static Registry instance;
  return instance;
}

inline bool enabled() noexcept { return registry().enabled(); }
inline void set_enabled(bool on) noexcept { registry().set_enabled(on); }
inline void reset() { registry().reset(); }
inline Counter& counter(std::string_view name) {
  return registry().counter(name);
}

inline void Counter::add(std::uint64_t n) {
  value_.fetch_add(n, std::memory_order_relaxed);
  if (feeds_ == nullptr || !enabled()) return;
  Counter* fed = fed_.load(std::memory_order_acquire);
  if (fed == nullptr) {
    fed = &counter(feeds_);
    fed_.store(fed, std::memory_order_release);
  }
  fed->add(n);
}

/// Records a complete span with an explicit start - for synthetic spans
/// whose start predates the recording site (queue waits).
inline void record_complete(const char* cat, const char* name,
                            std::uint64_t start_us, std::uint64_t dur_us) {
  if (enabled()) registry().record(cat, name, start_us, dur_us);
}

/// RAII trace scope. Construction samples the enable flag once; a span
/// active at construction records at destruction even if tracing was
/// disabled in between (the record is complete either way).
class Span {
 public:
  Span(const char* cat, const char* name)
      : cat_(cat), name_(name), active_(registry().enabled()) {
    if (active_) start_us_ = now_us();
  }
  ~Span() {
    if (active_) registry().record(cat_, name_, start_us_, now_us() - start_us_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  const char* cat_;
  const char* name_;
  std::uint64_t start_us_ = 0;
  bool active_;
};

/// RAII wall-time accumulator: adds the scope's elapsed microseconds to a
/// counter at destruction. Spans already record per-occurrence timings
/// for the trace view; this exports the *sum* through the metrics
/// snapshot, so phase attribution (e.g. the refuter's pipeline stages)
/// survives into --metrics output without a trace parser.
class ScopedCounterTimer {
 public:
  explicit ScopedCounterTimer(Counter* counter)
      : counter_(counter), start_us_(counter != nullptr ? now_us() : 0) {}
  ~ScopedCounterTimer() {
    if (counter_ != nullptr) counter_->add(now_us() - start_us_);
  }

  ScopedCounterTimer(const ScopedCounterTimer&) = delete;
  ScopedCounterTimer& operator=(const ScopedCounterTimer&) = delete;
  ScopedCounterTimer(ScopedCounterTimer&&) = delete;
  ScopedCounterTimer& operator=(ScopedCounterTimer&&) = delete;

 private:
  Counter* counter_;
  std::uint64_t start_us_;
};

#define SB_OBS_CONCAT_INNER(a, b) a##b
#define SB_OBS_CONCAT(a, b) SB_OBS_CONCAT_INNER(a, b)

/// Accumulates the enclosing scope's wall time (us) into the named
/// counter when observability is enabled; a single relaxed load when
/// disabled. Counter resolution happens per entry (not cached): callers
/// are coarse phase scopes, not hot loops.
#define SB_OBS_TIME_COUNT(name)                                     \
  ::shufflebound::obs::ScopedCounterTimer SB_OBS_CONCAT(            \
      sb_obs_timer_, __COUNTER__)(::shufflebound::obs::enabled()    \
                                      ? &::shufflebound::obs::counter(name) \
                                      : nullptr)

/// Declares an RAII span covering the rest of the enclosing scope.
/// `cat` and `name` must be string literals (or otherwise outlive the
/// export).
#define SB_OBS_SPAN(cat, name) \
  ::shufflebound::obs::Span SB_OBS_CONCAT(sb_obs_span_, __COUNTER__)(cat, name)

/// Bumps the named counter by `delta` when observability is enabled.
/// The counter reference is resolved once per call site (function-local
/// static), so the steady-state enabled cost is one relaxed fetch_add
/// and the disabled cost is one relaxed load.
#define SB_OBS_COUNT(name, delta)                               \
  do {                                                          \
    if (::shufflebound::obs::enabled()) {                       \
      static ::shufflebound::obs::Counter& sb_obs_count_ref =   \
          ::shufflebound::obs::counter(name);                   \
      sb_obs_count_ref.add(delta);                              \
    }                                                           \
  } while (false)

/// Gauge variant: overwrites the named counter's value when enabled.
#define SB_OBS_GAUGE(name, value)                               \
  do {                                                          \
    if (::shufflebound::obs::enabled()) {                       \
      static ::shufflebound::obs::Counter& sb_obs_gauge_ref =   \
          ::shufflebound::obs::counter(name);                   \
      sb_obs_gauge_ref.set(value);                              \
    }                                                           \
  } while (false)

}  // namespace shufflebound::obs
