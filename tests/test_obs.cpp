// The observability subsystem: span/counter recording semantics, both
// exporters (Chrome trace-event JSON and the flat metrics snapshot),
// multi-threaded recording through the pool (runs under the TSan CI
// leg via the `concurrency` label), and the determinism contract -
// tracing on vs off must never change a result, only describe it.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adversary/certificate.hpp"
#include "adversary/refuter.hpp"
#include "analysis/sortedness.hpp"
#include "core/io.hpp"
#include "networks/batcher.hpp"
#include "networks/shuffle.hpp"
#include "obs/export.hpp"
#include "search/search.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "sim/bitparallel.hpp"
#include "sim/batch.hpp"
#include "sim/isa.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {
namespace {

/// Every test starts and ends with tracing off and the registry empty,
/// so tests cannot see each other's spans regardless of order.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

TEST_F(ObsTest, DisabledRecordsNothing) {
  {
    SB_OBS_SPAN("test", "quiet");
    SB_OBS_COUNT("test.quiet_counter", 5);
    obs::record_complete("test", "quiet_complete", 1, 2);
  }
  EXPECT_EQ(obs::registry().span_count(), 0u);
  EXPECT_EQ(obs::registry().snapshot_spans().size(), 0u);
  // SB_OBS_COUNT never even registers its counter while disabled.
  for (const auto& [name, value] : obs::registry().snapshot_counters())
    EXPECT_NE(name, "test.quiet_counter");
}

TEST_F(ObsTest, SpanAndCounterRecordWhenEnabled) {
  obs::set_enabled(true);
  {
    SB_OBS_SPAN("test", "outer");
    SB_OBS_COUNT("test.count", 2);
    SB_OBS_COUNT("test.count", 3);
    SB_OBS_GAUGE("test.gauge", 7);
    SB_OBS_GAUGE("test.gauge", 9);
  }
  const std::vector<obs::SpanRecord> spans = obs::registry().snapshot_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].cat, "test");
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_GT(spans[0].tid, 0u);
  EXPECT_EQ(obs::counter("test.count").value(), 5u);
  EXPECT_EQ(obs::counter("test.gauge").value(), 9u);
}

TEST_F(ObsTest, ResetClearsSpansAndZeroesCounters) {
  obs::set_enabled(true);
  { SB_OBS_SPAN("test", "span"); }
  obs::Counter& count = obs::counter("test.reset_me");
  count.add(4);
  obs::reset();
  EXPECT_EQ(obs::registry().span_count(), 0u);
  // The reference from before the reset stays valid and reusable.
  EXPECT_EQ(count.value(), 0u);
  count.add(1);
  EXPECT_EQ(count.value(), 1u);
}

TEST_F(ObsTest, ChromeTraceSchema) {
  obs::set_enabled(true);
  {
    SB_OBS_SPAN("test", "a");
    SB_OBS_SPAN("test", "b");
  }
  obs::record_complete("test", "c", 0, 1);
  const JsonValue trace = obs::trace_to_json();
  ASSERT_TRUE(trace.is_array());
  ASSERT_EQ(trace.items().size(), 3u);
  std::uint64_t prev_ts = 0;
  for (const JsonValue& event : trace.items()) {
    ASSERT_TRUE(event.is_object());
    // Complete ("X") events need exactly these keys for Perfetto /
    // chrome://tracing to place them.
    ASSERT_NE(event.find("name"), nullptr);
    ASSERT_NE(event.find("cat"), nullptr);
    ASSERT_NE(event.find("ph"), nullptr);
    ASSERT_NE(event.find("ts"), nullptr);
    ASSERT_NE(event.find("dur"), nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    EXPECT_EQ(event.find("ph")->as_string(), "X");
    EXPECT_EQ(event.find("pid")->as_uint(), 1u);
    EXPECT_EQ(event.find("cat")->as_string(), "test");
    // snapshot_spans sorts by start time: ts is monotone across events.
    const std::uint64_t ts = event.find("ts")->as_uint();
    EXPECT_GE(ts, prev_ts);
    prev_ts = ts;
  }
}

TEST_F(ObsTest, TraceJsonRoundTripsThroughParser) {
  obs::set_enabled(true);
  { SB_OBS_SPAN("test", "round_trip"); }
  const std::string dumped = obs::trace_to_json().dump();
  const JsonValue parsed = JsonValue::parse(dumped);
  ASSERT_TRUE(parsed.is_array());
  ASSERT_EQ(parsed.items().size(), 1u);
  EXPECT_EQ(parsed.items()[0].find("name")->as_string(), "round_trip");
  EXPECT_EQ(parsed.dump(), dumped);
}

TEST_F(ObsTest, MetricsJsonRoundTripsThroughParser) {
  obs::set_enabled(true);
  obs::counter("test.metric_a").add(11);
  obs::counter("test.metric_b").add(22);
  { SB_OBS_SPAN("test", "one_span"); }
  const std::string dumped = obs::metrics_to_json().dump();
  const JsonValue parsed = JsonValue::parse(dumped);
  ASSERT_TRUE(parsed.is_object());
  EXPECT_TRUE(parsed.find("enabled")->as_bool());
  EXPECT_EQ(parsed.find("spans")->as_uint(), 1u);
  EXPECT_EQ(parsed.find("spans_dropped")->as_uint(), 0u);
  const JsonValue* counters = parsed.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("test.metric_a")->as_uint(), 11u);
  EXPECT_EQ(counters->find("test.metric_b")->as_uint(), 22u);
  EXPECT_EQ(parsed.dump(), dumped);
}

TEST_F(ObsTest, PoolStressRecordsRaceFree) {
  // Many threads record spans and bump one shared counter concurrently;
  // under TSan this doubles as the race check for the whole hot path.
  obs::set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.submit([] {
        for (int i = 0; i < kPerThread; ++i) {
          SB_OBS_SPAN("stress", "unit");
          SB_OBS_COUNT("stress.units", 1);
        }
      });
    }
  }
  EXPECT_EQ(obs::counter("stress.units").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<obs::SpanRecord> spans = obs::registry().snapshot_spans();
  std::uint64_t stress_spans = 0;
  for (const obs::SpanRecord& s : spans)
    if (std::string(s.cat) == "stress") ++stress_spans;
  // The pool's own instrumentation adds spans; ours must all be there.
  EXPECT_EQ(stress_spans, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Exporting concurrently with nothing else running is well-formed.
  const JsonValue trace = obs::trace_to_json();
  EXPECT_GE(trace.items().size(), stress_spans);
}

TEST_F(ObsTest, RefutationIdenticalWithTracingOnAndOff) {
  Prng rng_off(5);
  const RegisterNetwork net_off = random_shuffle_network(16, 5, rng_off);
  const RefutationResult off = refute(net_off);
  ASSERT_EQ(off.status, RefutationStatus::Refuted);
  ASSERT_TRUE(off.certificate.has_value());

  obs::set_enabled(true);
  Prng rng_on(5);
  const RegisterNetwork net_on = random_shuffle_network(16, 5, rng_on);
  const RefutationResult on = refute(net_on);
  ASSERT_EQ(on.status, RefutationStatus::Refuted);
  ASSERT_TRUE(on.certificate.has_value());

  // The serialized certificate covers pattern, survivors, pi, pi_prime,
  // w0/w1/m - byte equality means tracing perturbed nothing.
  EXPECT_EQ(to_text(*on.certificate), to_text(*off.certificate));
  EXPECT_GT(obs::registry().span_count(), 0u);
}

TEST_F(ObsTest, MinimalFailingVectorIdenticalWithTracingOnAndOff) {
  const ComparatorNetwork broken =
      drop_one_comparator(bitonic_sorting_network(16), 3);
  const ZeroOneReport off = zero_one_check(broken);
  ASSERT_FALSE(off.sorts_all);
  ASSERT_TRUE(off.failing_vector.has_value());

  obs::set_enabled(true);
  const ZeroOneReport on = zero_one_check(broken);
  ASSERT_FALSE(on.sorts_all);
  ASSERT_TRUE(on.failing_vector.has_value());
  EXPECT_EQ(*on.failing_vector, *off.failing_vector);
  EXPECT_EQ(on.vectors_checked, off.vectors_checked);
}

// kernel.vectors_evaluated must count the vectors the sweep actually
// ran through the kernel, not the full 2^n it would have needed without
// early exit: a complete pass over a sorter charges exactly 2^n, while
// a run that stops at the first failing block charges a whole number of
// lane blocks strictly below 2^n.
TEST_F(ObsTest, VectorsEvaluatedCountsOnlyEvaluatedBlocks) {
  obs::set_enabled(true);
  // Forced Sweep: under Auto the analyze engine certifies bitonic
  // statically and the kernel would evaluate nothing at all.
  CertifyOptions sweep_only;
  sweep_only.engine = CertifyEngine::Sweep;
  const ZeroOneReport sorted =
      zero_one_check(bitonic_sorting_network(16), sweep_only);
  ASSERT_TRUE(sorted.sorts_all);
  EXPECT_EQ(obs::counter("kernel.vectors_evaluated").value(),
            std::uint64_t{1} << 16);

  obs::reset();
  const ComparatorNetwork broken =
      drop_one_comparator(bitonic_sorting_network(16), 3);
  CertifyOptions sweep_serial;
  sweep_serial.engine = CertifyEngine::Sweep;
  const ZeroOneReport failed = zero_one_check(broken, sweep_serial);
  ASSERT_FALSE(failed.sorts_all);
  ASSERT_TRUE(failed.failing_vector.has_value());
  const std::uint64_t evaluated =
      obs::counter("kernel.vectors_evaluated").value();
  // The serial sweep scans blocks in ascending order and stops at the
  // block holding the minimal failing vector. Block size is the active
  // dispatch path's lane width.
  const std::uint64_t lane_bits = simd::active_kernel().lane_bits;
  EXPECT_EQ(evaluated,
            (*failed.failing_vector / lane_bits + 1) * lane_bits);
  EXPECT_LT(evaluated, std::uint64_t{1} << 16);
}

TEST_F(ObsTest, EngineTelemetryCarriesMetricsOnlyWhenEnabled) {
  const std::string net = to_text(bitonic_sorting_network(8));
  const auto run_certify = [&net] {
    std::vector<std::string> lines;
    EngineConfig config;
    config.workers = 2;
    JsonValue telemetry;
    {
      AnalysisEngine engine(std::move(config), [&](const JobResult& r) {
        lines.push_back(r.to_json_line());
      });
      JobSpec spec;
      spec.id = "a";
      spec.kind = JobKind::Certify;
      spec.network_text = net;
      EXPECT_TRUE(engine.submit(std::move(spec)));
      engine.finish();
      telemetry = engine.telemetry_to_json();
    }
    return std::pair<std::vector<std::string>, JsonValue>(std::move(lines),
                                                          std::move(telemetry));
  };

  const auto [lines_off, telemetry_off] = run_certify();
  EXPECT_EQ(telemetry_off.find("metrics"), nullptr);

  obs::set_enabled(true);
  const auto [lines_on, telemetry_on] = run_certify();
  const JsonValue* metrics = telemetry_on.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GT(metrics->find("spans")->as_uint(), 0u);
  ASSERT_NE(metrics->find("counters"), nullptr);
  EXPECT_EQ(metrics->find("counters")->find("service.jobs")->as_uint(), 1u);

  // Result lines are identical on/off: obs data never reaches results.
  ASSERT_EQ(lines_on.size(), 1u);
  EXPECT_EQ(lines_on, lines_off);

  // The cache-probe histogram is populated (the engine probed once) and
  // stays separate from the execute latency histogram.
  const JsonValue* certify = telemetry_on.find("jobs")->find("certify");
  ASSERT_NE(certify, nullptr);
  EXPECT_EQ(certify->find("cache_probe")->find("count")->as_uint(), 1u);
  EXPECT_EQ(certify->find("latency")->find("count")->as_uint(), 1u);
}

TEST_F(ObsTest, QueueWaitSpansComeFromEngineSubmission) {
  obs::set_enabled(true);
  const std::string net = to_text(bitonic_sorting_network(8));
  {
    EngineConfig config;
    config.workers = 1;
    AnalysisEngine engine(std::move(config), [](const JobResult&) {});
    JobSpec spec;
    spec.id = "q";
    spec.kind = JobKind::Info;
    spec.network_text = net;
    ASSERT_TRUE(engine.submit(std::move(spec)));
    engine.finish();
  }
  bool saw_queue_wait = false;
  bool saw_job_span = false;
  for (const obs::SpanRecord& s : obs::registry().snapshot_spans()) {
    if (std::string(s.cat) != "service") continue;
    const std::string name = s.name;
    saw_queue_wait = saw_queue_wait || name == "queue_wait";
    saw_job_span = saw_job_span || name == "info";
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_job_span);
}

// A cached refutation is replayed inside the probe span that served it:
// the second of two identical refute jobs records its witness check
// within service/cache_probe, and only the first job executes.
TEST_F(ObsTest, RefuteHitRevalidatesInsideTheCacheProbeSpan) {
  obs::set_enabled(true);
  Prng rng(7);
  const std::string net = to_text(random_shuffle_network(32, 8, rng));
  {
    EngineConfig config;
    config.workers = 1;
    AnalysisEngine engine(std::move(config), [](const JobResult&) {});
    for (const char* id : {"r0", "r1"}) {
      JobSpec spec;
      spec.id = id;
      spec.kind = JobKind::Refute;
      spec.network_text = net;
      ASSERT_TRUE(engine.submit(std::move(spec)));
    }
    engine.finish();
  }
  const std::vector<obs::SpanRecord> spans = obs::registry().snapshot_spans();
  const auto named = [](const obs::SpanRecord& s, const char* cat,
                        const char* name) {
    return std::string(s.cat) == cat && std::string(s.name) == name;
  };
  std::size_t probes = 0;
  std::size_t executes = 0;
  std::size_t checks_in_probe = 0;
  for (const obs::SpanRecord& probe : spans) {
    executes += named(probe, "service", "execute") ? 1 : 0;
    if (!named(probe, "service", "cache_probe")) continue;
    ++probes;
    for (const obs::SpanRecord& check : spans) {
      if (named(check, "refuter", "witness_check") && check.tid == probe.tid &&
          check.start_us >= probe.start_us &&
          check.start_us + check.dur_us <= probe.start_us + probe.dur_us)
        ++checks_in_probe;
    }
  }
  EXPECT_EQ(probes, 2u);
  EXPECT_EQ(executes, 1u);
  EXPECT_EQ(checks_in_probe, 1u);
}

// A traced exhaustive search spans each BFS level: expansion on every
// level it enters, dedup and subsumption on every level that does not
// end the search (n = 6 enters depths 3, 4 and accepts at 5).
TEST_F(ObsTest, SearchSpansEachBfsLevel) {
  obs::set_enabled(true);
  const SearchResult result = find_min_depth_network(6);
  ASSERT_EQ(result.status, SearchStatus::Optimal);
  ASSERT_EQ(result.optimal_depth, 5u);
  std::size_t find = 0;
  std::size_t expand = 0;
  std::size_t dedup = 0;
  std::size_t subsume = 0;
  for (const obs::SpanRecord& s : obs::registry().snapshot_spans()) {
    if (std::string(s.cat) != "search") continue;
    const std::string name = s.name;
    find += name == "find_min_depth" ? 1 : 0;
    expand += name == "expand" ? 1 : 0;
    dedup += name == "dedup" ? 1 : 0;
    subsume += name == "subsume" ? 1 : 0;
  }
  // The prefix generator builds depth 2; levels 3, 4 and 5 are BFS.
  EXPECT_EQ(find, 1u);
  EXPECT_EQ(expand, 3u);
  EXPECT_EQ(dedup, 2u);
  EXPECT_EQ(subsume, 2u);
}

// The phase spans account for a search: prefix generation plus every BFS
// level's expand, dedup and subsume cover at least 90% of find_min_depth
// (the rest is set-up and witness certification).
TEST_F(ObsTest, SearchPhaseSpansCoverTheSearch) {
  obs::set_enabled(true);
  const SearchResult result = find_min_depth_network(9);
  ASSERT_EQ(result.status, SearchStatus::Optimal);
  std::uint64_t total_us = 0;
  std::uint64_t phases_us = 0;
  for (const obs::SpanRecord& s : obs::registry().snapshot_spans()) {
    if (std::string(s.cat) != "search") continue;
    (std::string(s.name) == "find_min_depth" ? total_us : phases_us) +=
        s.dur_us;
  }
  ASSERT_GT(total_us, 0u);
  EXPECT_GE(phases_us * 10, total_us * 9)
      << phases_us << " of " << total_us << " us";
}

// Components own their counters; with tracing off nothing reaches the
// registry. An untraced engine run and an untraced server run of every
// job kind (cold and warm, so cache hits and refutation replays happen
// too) add no counter name and no count. Names earlier tests in this
// process registered stay registered, at zero after reset().
TEST_F(ObsTest, UntracedEngineAndServerRegisterNoCounter) {
  const auto before = obs::registry().snapshot_counters();
  const std::string sorter = to_text(bitonic_sorting_network(8));
  Prng rng(7);
  const std::string shuffle = to_text(random_shuffle_network(32, 8, rng));
  std::ostringstream stream;
  for (int pass = 0; pass < 2; ++pass) {
    for (const char* op :
         {"info", "certify", "count-sorted", "analyze", "lint"})
      stream << R"({"op":")" << op << R"(","network":)" << json_quote(sorter)
             << "}\n";
    stream << R"({"op":"refute","network":)" << json_quote(shuffle) << "}\n"
           << R"({"op":"search","n":4})" << "\nnot json\n";
  }
  {
    EngineConfig config;
    config.workers = 2;
    AnalysisEngine engine(std::move(config), [](const JobResult&) {});
    std::istringstream in(stream.str());
    std::string line;
    std::uint64_t line_number = 0;
    while (std::getline(in, line))
      ASSERT_TRUE(engine.submit(job_from_json_line(line, ++line_number)));
    engine.finish();
    EXPECT_EQ(engine.job_counters(JobKind::Refute).cache_hits.value(), 1u);
  }
  {
    ServerConfig config;
    config.workers = 2;
    config.cache_dir = ::testing::TempDir() + "sb_obs_untraced_server";
    Server server(std::move(config));
    server.listen();
    std::thread serving([&server] { server.run(); });
    std::istringstream in(stream.str() + R"({"op":"stats"})" + "\n");
    std::ostringstream out;
    const ClientConfig client{"127.0.0.1", server.bound_port()};
    EXPECT_EQ(run_client(client, in, out), 0);
    server.request_shutdown();
    serving.join();
  }
  EXPECT_EQ(obs::registry().snapshot_counters(), before);
}

}  // namespace
}  // namespace shufflebound
