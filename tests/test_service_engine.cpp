// The analysis job engine: JSONL job parsing, the pure execute() path for
// every job kind, deterministic results across worker counts (emitted as
// jobs finish, ordered here by seq), cache behavior (hits, coalesced
// concurrent misses, poisoned-entry re-validation), and timeouts.
#include "service/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "adversary/certificate.hpp"
#include "analysis/sortedness.hpp"
#include "core/io.hpp"
#include "networks/batcher.hpp"
#include "networks/shuffle.hpp"
#include "relabel_sorters.hpp"
#include "service/json.hpp"
#include "sim/batch.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

std::string sorter8_text() { return to_text(bitonic_sorting_network(8)); }

std::string broken16_text() {
  return to_text(drop_one_comparator(bitonic_sorting_network(16), 3));
}

std::string shallow_shuffle_text() {
  Prng rng(7);
  return to_text(random_shuffle_network(32, 8, rng));
}

/// The certificate the engine writes for `network_text`, which must be
/// refuted.
std::string certificate_of(const std::string& network_text) {
  JobSpec spec;
  spec.kind = JobKind::Refute;
  spec.network_text = network_text;
  const JobResult result = AnalysisEngine::execute(spec);
  EXPECT_EQ(result.payload.find("status")->as_string(), "refuted");
  return result.payload.find("certificate")->as_string();
}

/// A refuted shuffle network of shallow_shuffle_text's width whose
/// witness pair meets at a comparator of that network, so its
/// certificate parses but does not replay there.
std::string foreign_shuffle_text() {
  Prng rng(10);
  return to_text(random_shuffle_network(32, 8, rng));
}

JobSpec make_spec(JobKind kind, std::string network_text, std::string id = "j") {
  JobSpec spec;
  spec.id = std::move(id);
  spec.kind = kind;
  spec.network_text = std::move(network_text);
  return spec;
}

std::string job_line(const char* op, const std::string& network_text,
                     const std::string& id) {
  JsonValue o = JsonValue::object();
  o.set("id", id);
  o.set("op", op);
  o.set("network", network_text);
  return o.dump();
}

/// Feeds `lines` through a fresh engine and returns the emitted result
/// lines, ordered by seq, plus the telemetry document.
struct BatchRun {
  std::vector<std::string> lines;
  JsonValue telemetry;
};

BatchRun run_batch(const std::vector<std::string>& job_lines,
                   EngineConfig config) {
  BatchRun run;
  // The engine emits as jobs finish; order by seq as `batch` does.
  std::vector<std::pair<std::uint64_t, std::string>> emitted;
  {
    AnalysisEngine engine(std::move(config), [&](const JobResult& result) {
      emitted.emplace_back(result.seq, result.to_json_line());
    });
    std::uint64_t line_number = 0;
    for (const auto& line : job_lines)
      EXPECT_TRUE(engine.submit(job_from_json_line(line, ++line_number)));
    engine.finish();
    run.telemetry = engine.telemetry_to_json();
  }
  std::sort(emitted.begin(), emitted.end());
  for (auto& [seq, line] : emitted) run.lines.push_back(std::move(line));
  return run;
}

std::uint64_t telemetry_uint(const JsonValue& doc,
                             std::initializer_list<const char*> path) {
  const JsonValue* node = &doc;
  for (const char* key : path) {
    node = node->find(key);
    if (node == nullptr) ADD_FAILURE() << "missing telemetry key " << key;
    if (node == nullptr) return 0;
  }
  return node->as_uint();
}

// --- JSON layer ---------------------------------------------------------

TEST(ServiceJson, RoundTripsPreservingOrderAndIntegers) {
  const std::string text =
      "{\"seed\":1234567890123456789,\"big\":18446744073709551615,"
      "\"neg\":-7,\"frac\":0.5,\"s\":\"a\\n\\\"b\\\"\",\"arr\":[1,true,null],"
      "\"nested\":{\"z\":1,\"a\":2}}";
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.dump(), text);  // byte-stable round trip, insertion order kept
  EXPECT_EQ(doc.find("seed")->as_uint(), 1234567890123456789ull);
  EXPECT_EQ(doc.find("big")->as_uint(), 18446744073709551615ull);
  EXPECT_EQ(doc.find("neg")->as_int(), -7);
  EXPECT_DOUBLE_EQ(doc.find("frac")->as_double(), 0.5);
}

TEST(ServiceJson, RejectsMalformedAndTrailingGarbage) {
  EXPECT_THROW(JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("{\"a\":}"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("[1,2] trailing"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse(""), std::invalid_argument);
}

// The serializer's exact bytes: both 64-bit extremes, doubles in "%.17g",
// empty containers, every escape the writer emits (a raw control byte
// becomes \u00XX; UTF-8 passes through), and the result-line shapes.
TEST(ServiceJson, DumpAndResultLineBytesArePinned) {
  JsonValue empties = JsonValue::array();
  empties.push_back(JsonValue::array());
  empties.push_back(JsonValue::object());
  JsonValue deep = JsonValue::array();
  deep.push_back(JsonValue::array());
  empties.push_back(deep);
  JsonValue inner = JsonValue::object();
  inner.set("a", JsonValue::object());
  inner.set("b", JsonValue::array());
  empties.push_back(inner);

  JsonValue doc = JsonValue::object();
  doc.set("min", std::numeric_limits<std::int64_t>::min());
  doc.set("max", std::numeric_limits<std::uint64_t>::max());
  doc.set("zero", 0);
  doc.set("uzero", std::uint64_t{0});
  doc.set("neg", -42);
  doc.set("half", 0.5);
  doc.set("third", 1.0 / 3.0);
  doc.set("whole", 3.0);
  doc.set("negzero", -0.0);
  doc.set("tiny", 1e-300);
  doc.set("huge", 1.5e300);
  doc.set("flags", JsonValue(JsonValue::Array{true, false, nullptr}));
  doc.set("empties", empties);
  doc.set("esc", std::string("q\"b\\s/\b\f\n\r\t") + "\x01" + "\x1f" +
                     "\x7f" + "\xc3\xa9\xe2\x82\xac" + "end");
  doc.set("key \"q\"\n\x02", "");
  const std::string expected_doc =
      R"({"min":-9223372036854775808,"max":18446744073709551615,"zero":0,)"
      R"("uzero":0,"neg":-42,"half":0.5,"third":0.33333333333333331,)"
      R"("whole":3,"negzero":-0,"tiny":1e-300,)"
      R"("huge":1.5000000000000001e+300,"flags":[true,false,null],)"
      R"("empties":[[],{},[[]],{"a":{},"b":[]}],)"
      R"("esc":"q\"b\\s/\b\f\n\r\t\u0001\u001f)"
      "\x7f\xc3\xa9\xe2\x82\xac"
      R"(end","key \"q\"\n\u0002":""})";
  EXPECT_EQ(doc.dump(), expected_doc);
  // The parser reads every escaped byte back ("-0" reads back as 0).
  const JsonValue reread = JsonValue::parse(expected_doc);
  EXPECT_EQ(*reread.find("esc"), *doc.find("esc"));
  EXPECT_EQ(reread.members().back(), doc.members().back());
  EXPECT_EQ(json_quote("a\"\\\x01"), R"("a\"\\\u0001")");

  JsonValue payload = JsonValue::object();
  payload.set("status", "refuted");
  payload.set("out", JsonValue(JsonValue::Array{0, 1, 4294967295u}));

  JobResult ok;
  ok.id = "r\"1";
  ok.kind = JobKind::Refute;
  ok.ok = true;
  ok.payload = payload;
  EXPECT_EQ(ok.to_json_line(),
            R"({"id":"r\"1","op":"refute","ok":true,)"
            R"("result":{"status":"refuted","out":[0,1,4294967295]}})");

  JobResult error;
  error.id = "e";
  error.kind = JobKind::Certify;
  error.error = "network: bad\ttext";
  EXPECT_EQ(error.to_json_line(),
            R"({"id":"e","op":"certify","ok":false,)"
            R"("error":"network: bad\ttext"})");

  JobResult invalid;
  invalid.id = "line-3";
  invalid.error = "missing 'op' string";
  EXPECT_EQ(invalid.to_json_line(),
            R"({"id":"line-3","op":"invalid","ok":false,)"
            R"("error":"missing 'op' string"})");

  JobResult timeout;
  timeout.id = "t";
  timeout.kind = JobKind::CountSorted;
  timeout.timed_out = true;
  timeout.error = "timeout";
  EXPECT_EQ(timeout.to_json_line(),
            R"({"id":"t","op":"count-sorted","ok":false,"error":"timeout",)"
            R"("timeout":true})");

  JobResult lint;
  lint.id = "l";
  lint.kind = JobKind::Lint;
  lint.error = "lint: 1 error(s), 0 warning(s)";
  lint.payload = JsonValue::object();
  lint.payload.set("ok", false);
  lint.payload.set("errors", 1);
  EXPECT_EQ(lint.to_json_line(),
            R"({"id":"l","op":"lint","ok":false,)"
            "\"error\":\"lint: 1 error(s), 0 warning(s)\","
            R"("result":{"ok":false,"errors":1}})");
}

// --- Job line parsing ---------------------------------------------------

TEST(ServiceJob, ParsesLineWithDefaults) {
  const JobSpec spec =
      job_from_json_line(job_line("count-sorted", sorter8_text(), "mc"), 1);
  EXPECT_EQ(spec.kind, JobKind::CountSorted);
  EXPECT_EQ(spec.id, "mc");
  EXPECT_EQ(spec.trials, 4096u);
  EXPECT_EQ(spec.seed, 1u);
  EXPECT_EQ(spec.timeout_ms, 0u);
}

TEST(ServiceJob, DefaultsIdToLineNumber) {
  JsonValue o = JsonValue::object();
  o.set("op", "info");
  o.set("network", sorter8_text());
  EXPECT_EQ(job_from_json_line(o.dump(), 17).id, "line-17");
}

TEST(ServiceJob, MalformedLinesBecomeInvalidSpecsNotThrows) {
  const JobSpec garbage = job_from_json_line("not json at all", 1);
  EXPECT_EQ(garbage.kind, JobKind::Invalid);
  EXPECT_FALSE(garbage.parse_error.empty());

  const JobSpec unknown_op = job_from_json_line(
      "{\"op\":\"frobnicate\",\"network\":\"circuit 2\\nend\\n\"}", 2);
  EXPECT_EQ(unknown_op.kind, JobKind::Invalid);

  const JobSpec no_network = job_from_json_line("{\"op\":\"info\"}", 3);
  EXPECT_EQ(no_network.kind, JobKind::Invalid);

  // A width past 32 bits is rejected, not truncated to n = 4.
  const JobSpec huge_n =
      job_from_json_line("{\"op\":\"search\",\"n\":4294967300}", 4);
  EXPECT_EQ(huge_n.kind, JobKind::Invalid);
  EXPECT_EQ(huge_n.parse_error, "'n' must be at most 4294967295");
}

// The wire bounds a refute's 'k'. The seed's "k": 4294967298, which a
// 32-bit cast would read as k = 2, is one invalid-spec error. A k whose
// Lemma 4.1 set budget k^3 + lg(n) k^2 passes kMaxRefuteSetBudget fails
// its job before any set is allocated.
TEST(ServiceJob, RefuteKIsBoundedAtTheWire) {
  std::ifstream in(std::filesystem::path(SB_TEST_DATA_DIR) / "fuzz_seeds" /
                   "job_refute_k_beyond_u32.jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const JobSpec spec = job_from_json_line(line, 1);
  EXPECT_EQ(spec.kind, JobKind::Invalid);
  EXPECT_EQ(AnalysisEngine::execute(spec).to_json_line(),
            R"({"id":"huge-k","op":"invalid","ok":false,)"
            R"("error":"'k' must be at most 4294967295"})");

  // Width 16, lg n = 4: k = 100 asks for 1040000 sets, k = 102 for
  // 1102824 (the cap is 2^20 = 1048576).
  JsonValue doc = JsonValue::parse(line);
  const std::string network = doc.find("network")->as_string();
  JobSpec over = make_spec(JobKind::Refute, network);
  over.k = 102;
  const JobResult rejected = AnalysisEngine::execute(over);
  EXPECT_FALSE(rejected.ok);
  EXPECT_FALSE(rejected.timed_out);
  EXPECT_EQ(rejected.error,
            "refute: k = 102 at width 16 exceeds the set budget "
            "k^3 + lg(n) k^2 <= 1048576");
  JobSpec at_cap = make_spec(JobKind::Refute, network);
  at_cap.k = 100;
  const JobResult accepted = AnalysisEngine::execute(at_cap);
  EXPECT_TRUE(accepted.ok) << accepted.error;
}

// --- Pure execution per kind -------------------------------------------

TEST(ServiceEngine, ExecuteInfoReportsModelAndShape) {
  const JobResult result =
      AnalysisEngine::execute(make_spec(JobKind::Info, sorter8_text()));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.payload.find("model")->as_string(), "circuit");
  EXPECT_EQ(result.payload.find("width")->as_uint(), 8u);
  EXPECT_GT(result.payload.find("depth")->as_uint(), 0u);
}

TEST(ServiceEngine, ExecuteCertifySorterAndNonSorter) {
  const JobResult good =
      AnalysisEngine::execute(make_spec(JobKind::Certify, sorter8_text()));
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.payload.find("verdict")->as_string(), "sorting");

  const JobResult bad =
      AnalysisEngine::execute(make_spec(JobKind::Certify, broken16_text()));
  ASSERT_TRUE(bad.ok) << bad.error;
  EXPECT_EQ(bad.payload.find("verdict")->as_string(), "not-sorting");
  EXPECT_NE(bad.payload.find("failing_vector"), nullptr);
}

TEST(ServiceEngine, ExecuteRefuteReturnsCheckableWitness) {
  // n = 32 writes the flat v1 certificate, n = 1024 the chunked v2 one.
  Prng rng32(7);
  Prng rng1024(5);
  const RegisterNetwork networks[] = {
      random_shuffle_network(32, 8, rng32),
      random_shuffle_network(1024, 20, rng1024, {10, 5})};
  for (const RegisterNetwork& net : networks) {
    SCOPED_TRACE("n = " + std::to_string(net.width()));
    const JobResult result =
        AnalysisEngine::execute(make_spec(JobKind::Refute, to_text(net)));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.payload.find("status")->as_string(), "refuted");

    // The certificate is the only copy of the witness.
    std::vector<std::string> keys;
    for (const auto& [key, value] : result.payload.members())
      keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{"status", "detail", "output_pi",
                                              "output_pi_prime",
                                              "certificate"}));
    const JsonValue* text = result.payload.find("certificate");
    ASSERT_NE(text, nullptr);
    EXPECT_EQ(is_chunked_certificate_text(text->as_string()),
              net.width() >= 512);
    const Certificate cert = certificate_from_text(text->as_string());
    EXPECT_EQ(cert.n, net.width());
    EXPECT_NE(cert.witness.pi, cert.witness.pi_prime);
    EXPECT_TRUE(verify_certificate(net, cert).accepted());

    // Corollary 4.1.1: the outputs for pi and pi' differ exactly where the
    // values m and m+1 landed, so the network cannot sort both inputs.
    const JsonValue* out_pi = result.payload.find("output_pi");
    const JsonValue* out_pp = result.payload.find("output_pi_prime");
    ASSERT_NE(out_pi, nullptr);
    ASSERT_NE(out_pp, nullptr);
    const auto vec_of = [](const JsonValue& arr) {
      std::vector<wire_t> v;
      for (const JsonValue& x : arr.items())
        v.push_back(static_cast<wire_t>(x.as_uint()));
      return v;
    };
    const std::vector<wire_t> a = vec_of(*out_pi);
    const std::vector<wire_t> b = vec_of(*out_pp);
    ASSERT_EQ(a.size(), b.size());
    const wire_t m = cert.witness.m;
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] == b[i]) continue;
      ++diffs;
      EXPECT_TRUE((a[i] == m && b[i] == m + 1) ||
                  (a[i] == m + 1 && b[i] == m));
    }
    EXPECT_EQ(diffs, 2u);
    EXPECT_TRUE(!is_sorted_output(a) || !is_sorted_output(b));
  }
}

TEST(ServiceEngine, ExecuteCountSortedMatchesBatchEvaluator) {
  JobSpec spec = make_spec(JobKind::CountSorted, broken16_text());
  spec.trials = 500;
  spec.seed = 99;
  const JobResult result = AnalysisEngine::execute(spec);
  ASSERT_TRUE(result.ok) << result.error;

  BatchEvaluator evaluator(1);
  const auto expected = evaluator.count_sorted_outputs(
      drop_one_comparator(bitonic_sorting_network(16), 3), 500, 99);
  EXPECT_EQ(result.payload.find("sorted")->as_uint(), expected);
  EXPECT_EQ(result.payload.find("trials")->as_uint(), 500u);
}

TEST(ServiceEngine, ExecuteExpiredDeadlineTimesOutWithoutResult) {
  JobSpec spec = make_spec(JobKind::CountSorted, broken16_text());
  spec.trials = 50'000'000;  // would take far too long without the deadline
  const JobResult result =
      AnalysisEngine::execute(spec, std::chrono::steady_clock::now());
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.error, "timeout");
  EXPECT_NE(result.to_json_line().find("\"timeout\":true"), std::string::npos);
}

TEST(ServiceEngine, ExecuteRejectsMalformedNetworkText) {
  const JobResult result =
      AnalysisEngine::execute(make_spec(JobKind::Info, "circuit nonsense\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(ServiceEngine, ExecuteLintCleanNetworkSucceeds) {
  const JobResult result =
      AnalysisEngine::execute(make_spec(JobKind::Lint, sorter8_text()));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.payload.find("ok")->as_bool());
  EXPECT_EQ(result.payload.find("errors")->as_uint(), 0u);
  EXPECT_EQ(result.payload.find("model")->as_string(), "circuit");
}

TEST(ServiceEngine, ExecuteLintDirtyNetworkFailsWithDiagnosticsPayload) {
  const JobResult result = AnalysisEngine::execute(
      make_spec(JobKind::Lint, "circuit 4\nlevel 0+9\nend\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("lint:"), std::string::npos);
  // Unlike other kinds, a failed lint still carries its full report...
  ASSERT_FALSE(result.payload.is_null());
  EXPECT_GE(result.payload.find("errors")->as_uint(), 1u);
  // ...and the JSONL line exposes it alongside the error.
  const std::string line = result.to_json_line();
  EXPECT_NE(line.find("\"error\""), std::string::npos);
  EXPECT_NE(line.find("wire-out-of-range"), std::string::npos);
}

TEST(ServiceEngine, LintStrictFlagPromotesWarningsToFailure) {
  JobSpec spec = make_spec(JobKind::Lint, "circuit 4\nlevel 0+1\nend\n");
  EXPECT_TRUE(AnalysisEngine::execute(spec).ok);  // unused-wire is a warning
  spec.strict = true;
  const JobResult strict = AnalysisEngine::execute(spec);
  EXPECT_FALSE(strict.ok);
  EXPECT_FALSE(strict.payload.find("ok")->as_bool());
}

TEST(ServiceJob, LintLineParsesStrictFlag) {
  JsonValue o = JsonValue::object();
  o.set("op", "lint");
  o.set("network", sorter8_text());
  o.set("strict", true);
  const JobSpec spec = job_from_json_line(o.dump(), 1);
  EXPECT_EQ(spec.kind, JobKind::Lint);
  EXPECT_TRUE(spec.strict);
}

TEST(ServiceEngine, LintJobsAreCachedByTextAndStrictness) {
  const std::string sorter = sorter8_text();
  const std::vector<std::string> lines = {job_line("lint", sorter, "l0"),
                                          job_line("lint", sorter, "l1")};
  // One worker: the engine promises a hit only to a duplicate that runs
  // after its twin finished, not to one that runs concurrently with it.
  EngineConfig config;
  config.workers = 1;
  const BatchRun run = run_batch(lines, config);
  ASSERT_EQ(run.lines.size(), 2u);
  // Identical text + strictness: second job is a pure cache hit, and the
  // serialized results are byte-identical apart from the id.
  EXPECT_EQ(telemetry_uint(run.telemetry, {"jobs", "lint", "cache_hits"}), 1u);
  EXPECT_EQ(telemetry_uint(run.telemetry, {"jobs", "lint", "cache_misses"}),
            1u);

  JobSpec spec = make_spec(JobKind::Lint, sorter);
  const CacheKey relaxed = AnalysisEngine::lint_cache_key(spec);
  spec.strict = true;
  const CacheKey strict = AnalysisEngine::lint_cache_key(spec);
  EXPECT_FALSE(relaxed == strict);  // strictness changes the verdict
}

// --- Engine: ordering, determinism, cache ------------------------------

std::vector<std::string> mixed_job_lines() {
  std::vector<std::string> lines;
  const std::string sorter = sorter8_text();
  const std::string broken = broken16_text();
  const std::string shallow = shallow_shuffle_text();
  for (int round = 0; round < 2; ++round) {  // duplicates exercise the cache
    lines.push_back(job_line("info", sorter, "i" + std::to_string(round)));
    lines.push_back(job_line("certify", sorter, "c" + std::to_string(round)));
    lines.push_back(job_line("certify", broken, "b" + std::to_string(round)));
    lines.push_back(job_line("refute", shallow, "r" + std::to_string(round)));
    JsonValue mc = JsonValue::object();
    mc.set("id", "m" + std::to_string(round));
    mc.set("op", "count-sorted");
    mc.set("network", broken);
    mc.set("trials", 300);
    mc.set("seed", 5);
    lines.push_back(mc.dump());
  }
  lines.push_back("this line is not json");
  return lines;
}

TEST(ServiceEngine, ResultSeqIsTheSubmissionIndex) {
  const auto lines = mixed_job_lines();
  EngineConfig config;
  config.workers = 4;
  const BatchRun run = run_batch(lines, config);
  ASSERT_EQ(run.lines.size(), lines.size());
  // Ordered by seq, every result echoes its line's id: seq is the
  // submission index.
  for (std::size_t i = 0; i < lines.size() - 1; ++i) {
    const JsonValue line = JsonValue::parse(run.lines[i]);
    const JsonValue job = JsonValue::parse(lines[i]);
    EXPECT_EQ(line.find("id")->as_string(), job.find("id")->as_string());
  }
  // The malformed trailer produced an error result, not a crash.
  const JsonValue last = JsonValue::parse(run.lines.back());
  EXPECT_FALSE(last.find("ok")->as_bool());
}

/// A count-sorted job that runs for tens of milliseconds.
std::string slow_count_line(const std::string& id) {
  JsonValue o = JsonValue::object();
  o.set("id", id);
  o.set("op", "count-sorted");
  o.set("network", broken16_text());
  o.set("trials", 200'000);
  o.set("seed", 1);
  return o.dump();
}

TEST(ServiceEngine, FinishedJobIsNotHeldBehindASlowerOne) {
  EngineConfig config;
  config.workers = 2;
  std::vector<std::string> arrivals;  // result ids in sink order
  {
    AnalysisEngine engine(std::move(config), [&](const JobResult& result) {
      arrivals.push_back(result.id);
    });
    EXPECT_TRUE(engine.submit(job_from_json_line(slow_count_line("slow"), 1)));
    EXPECT_TRUE(engine.submit(make_spec(JobKind::Info, sorter8_text(), "fast")));
    engine.finish();
  }
  EXPECT_EQ(arrivals, (std::vector<std::string>{"fast", "slow"}));
}

TEST(ServiceEngine, ConcurrentMissesOfOneKeyComputeOnce) {
  const std::string line = slow_count_line("m");
  EngineConfig config;
  config.workers = 4;
  const BatchRun run = run_batch({line, line, line, line}, config);
  ASSERT_EQ(run.lines.size(), 4u);
  const JobResult expected = AnalysisEngine::execute(job_from_json_line(line, 1));
  for (const std::string& result : run.lines)
    EXPECT_EQ(result, expected.to_json_line());
  // One worker computed the key; the other three waited for its insert.
  EXPECT_EQ(telemetry_uint(run.telemetry, {"jobs", "count-sorted", "cache_misses"}),
            1u);
  EXPECT_EQ(telemetry_uint(run.telemetry, {"jobs", "count-sorted", "cache_hits"}),
            3u);
}

TEST(ServiceEngine, KeyWaitHonoursItsOwnDeadline) {
  const JobSpec owner = job_from_json_line(slow_count_line("owner"), 1);
  JobSpec twin = owner;
  twin.id = "twin";
  twin.timeout_ms = 1;  // not part of the key: the twin waits on the owner
  auto cache = std::make_shared<ResultCache>();
  EngineConfig config;
  config.workers = 2;
  config.cache = cache;
  std::vector<JobResult> arrivals;
  JsonValue telemetry;
  {
    AnalysisEngine engine(std::move(config), [&](const JobResult& result) {
      arrivals.push_back(result);
    });
    EXPECT_TRUE(engine.submit(owner));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // owner claims
    EXPECT_TRUE(engine.submit(twin));
    engine.finish();
    telemetry = engine.telemetry_to_json();
  }
  ASSERT_EQ(arrivals.size(), 2u);
  // The twin gave up at its own deadline, while the owner still ran.
  EXPECT_EQ(arrivals[0].id, "twin");
  EXPECT_TRUE(arrivals[0].timed_out);
  EXPECT_EQ(arrivals[0].error, "timeout");
  EXPECT_EQ(arrivals[1].id, "owner");
  ASSERT_TRUE(arrivals[1].ok) << arrivals[1].error;
  const JobResult expected = AnalysisEngine::execute(owner);
  EXPECT_EQ(arrivals[1].payload.dump(), expected.payload.dump());
  const auto cached = cache->lookup(
      AnalysisEngine::cache_key(owner, parse_any_network(owner.network_text)));
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->dump(), expected.payload.dump());
  EXPECT_EQ(telemetry_uint(telemetry, {"jobs", "count-sorted", "timed_out"}), 1u);
}

TEST(ServiceEngine, OutputIsByteIdenticalAcrossWorkerCountsAndCacheStates) {
  const auto lines = mixed_job_lines();
  EngineConfig one_worker;
  one_worker.workers = 1;
  EngineConfig two_workers;
  two_workers.workers = 2;
  two_workers.queue_capacity = 3;  // exercise backpressure too
  EngineConfig eight_no_cache;
  eight_no_cache.workers = 8;
  eight_no_cache.cache_enabled = false;

  const auto baseline = run_batch(lines, one_worker).lines;
  EXPECT_EQ(run_batch(lines, two_workers).lines, baseline);
  EXPECT_EQ(run_batch(lines, eight_no_cache).lines, baseline);
}

TEST(ServiceEngine, DuplicateJobsHitTheCache) {
  // One worker, so every duplicate runs after its twin finished: the
  // engine makes no hit promise for duplicates that run concurrently.
  EngineConfig config;
  config.workers = 1;
  const BatchRun run = run_batch(mixed_job_lines(), config);
  std::uint64_t hits = 0;
  for (const char* kind : {"info", "certify", "refute", "count-sorted"})
    hits += telemetry_uint(run.telemetry, {"jobs", kind, "cache_hits"});
  // Round two of the mixed stream repeats all 5 jobs; refute hits
  // additionally pass re-validation.
  EXPECT_EQ(hits, 5u);
  EXPECT_EQ(telemetry_uint(run.telemetry, {"witness_revalidations"}), 1u);
  EXPECT_EQ(telemetry_uint(run.telemetry, {"witness_revalidation_failures"}), 0u);
  EXPECT_GE(telemetry_uint(run.telemetry, {"cache", "hits"}), 5u);
}

/// Runs one refute job over `network_text` through an engine whose shared
/// cache holds the honest payload with `certificate` in place of its own,
/// and checks that the replay rejects it and the job is recomputed.
void expect_planted_certificate_recomputed(const std::string& network_text,
                                           const std::string& certificate) {
  const std::vector<std::string> lines = {
      job_line("refute", network_text, "r")};

  // What the honest engine says.
  const auto honest = run_batch(lines, EngineConfig{}).lines;

  auto cache = std::make_shared<ResultCache>();
  JobSpec spec = job_from_json_line(lines[0], 1);
  const CacheKey key =
      AnalysisEngine::cache_key(spec, parse_any_network(network_text));
  JsonValue planted = AnalysisEngine::execute(spec).payload;
  planted.set("certificate", certificate);
  cache->insert(key, planted);

  EngineConfig config;
  config.cache = cache;
  const BatchRun run = run_batch(lines, config);

  // The planted entry fails re-validation, is invalidated, and the job is
  // recomputed - so the output still matches the honest run byte for byte.
  EXPECT_EQ(run.lines, honest);
  EXPECT_EQ(telemetry_uint(run.telemetry, {"witness_revalidations"}), 1u);
  EXPECT_EQ(telemetry_uint(run.telemetry, {"witness_revalidation_failures"}),
            1u);
  EXPECT_GE(telemetry_uint(run.telemetry, {"cache", "invalidations"}), 1u);
  // The recomputed (valid) payload replaced the planted one.
  const auto entry = cache->lookup(key);
  ASSERT_TRUE(entry.has_value());
  ASSERT_NE(entry->find("certificate"), nullptr);
  EXPECT_EQ(entry->find("certificate")->as_string(),
            certificate_of(network_text));
  EXPECT_EQ(entry->find("witness"), nullptr);
}

TEST(ServiceEngine, PoisonedCachedRefutationIsRevalidatedAndRecomputed) {
  // A certificate of another network of the same width: it parses, and
  // the replay through this network rejects it.
  expect_planted_certificate_recomputed(
      shallow_shuffle_text(), certificate_of(foreign_shuffle_text()));
}

TEST(ServiceEngine, NarrowerCachedCertificateIsRecomputed) {
  // A width-8 certificate for a width-32 network: the replay must not run
  // its 8-entry permutations through 32 slots.
  Prng rng(1);
  const std::string narrow = to_text(random_shuffle_network(8, 2, rng));
  expect_planted_certificate_recomputed(shallow_shuffle_text(),
                                        certificate_of(narrow));
}

TEST(ServiceEngine, SharedCacheWarmsASecondEngine) {
  const auto lines = mixed_job_lines();
  auto cache = std::make_shared<ResultCache>();
  EngineConfig config;
  config.cache = cache;

  const auto cold = run_batch(lines, config);
  const auto warm = run_batch(lines, config);
  EXPECT_EQ(warm.lines, cold.lines);
  std::uint64_t warm_misses = 0;
  for (const char* kind : {"info", "certify", "refute", "count-sorted"})
    warm_misses += telemetry_uint(warm.telemetry, {"jobs", kind, "cache_misses"});
  EXPECT_EQ(warm_misses, 0u);  // every well-formed job served from cache
}

TEST(ServiceEngine, PerJobTimeoutProducesErrorResultAndTelemetry) {
  JsonValue o = JsonValue::object();
  o.set("id", "slow");
  o.set("op", "count-sorted");
  o.set("network", broken16_text());
  o.set("trials", 50'000'000);
  o.set("seed", 1);
  o.set("timeout_ms", 1);
  const BatchRun run = run_batch({o.dump()}, EngineConfig{});
  ASSERT_EQ(run.lines.size(), 1u);
  const JsonValue line = JsonValue::parse(run.lines[0]);
  EXPECT_FALSE(line.find("ok")->as_bool());
  EXPECT_EQ(line.find("error")->as_string(), "timeout");
  EXPECT_TRUE(line.find("timeout")->as_bool());
  EXPECT_EQ(telemetry_uint(run.telemetry, {"jobs", "count-sorted", "timed_out"}),
            1u);
  EXPECT_EQ(telemetry_uint(run.telemetry, {"cache", "entries"}), 0u);
}

TEST(ServiceEngine, CertifyTimesOutInsideTheRelabelSweep) {
  // The strict check fails on the first vector block (the final exchange
  // unsorts weight 1), nothing proves the relabel statically, and every
  // probe agrees: the job's time goes to the 2^24-vector relabel sweep,
  // which must honour the deadline.
  JsonValue o = JsonValue::object();
  o.set("id", "relabel");
  o.set("op", "certify");
  o.set("network", to_text(unprovable_relabel_sorter(24)));
  o.set("timeout_ms", 50);
  const BatchRun run = run_batch({o.dump()}, EngineConfig{});
  ASSERT_EQ(run.lines.size(), 1u);
  const JsonValue line = JsonValue::parse(run.lines[0]);
  EXPECT_FALSE(line.find("ok")->as_bool());
  EXPECT_EQ(line.find("error")->as_string(), "timeout");
}

TEST(ServiceEngine, SubmitAfterFinishIsRefused) {
  AnalysisEngine engine(EngineConfig{}, [](const JobResult&) {});
  engine.finish();
  EXPECT_FALSE(engine.submit(make_spec(JobKind::Info, sorter8_text())));
  engine.finish();  // idempotent
}

TEST(ServiceEngine, TelemetryCountsSubmissionsPerKind) {
  const BatchRun run = run_batch(mixed_job_lines(), EngineConfig{});
  EXPECT_EQ(telemetry_uint(run.telemetry, {"jobs", "info", "submitted"}), 2u);
  EXPECT_EQ(telemetry_uint(run.telemetry, {"jobs", "certify", "submitted"}), 4u);
  EXPECT_EQ(telemetry_uint(run.telemetry, {"jobs", "refute", "submitted"}), 2u);
  EXPECT_EQ(
      telemetry_uint(run.telemetry, {"jobs", "count-sorted", "submitted"}), 2u);
  EXPECT_EQ(telemetry_uint(run.telemetry, {"jobs", "invalid", "submitted"}), 1u);
  EXPECT_EQ(telemetry_uint(run.telemetry, {"jobs", "invalid", "failed"}), 1u);
}


// --- One path per job, pinned across entry points and cache states -----

/// A job stream touching every kind and every early exit: a malformed
/// line, an unknown op, a network parse error, a dirty lint, a search,
/// and duplicates (the second refute is a cache hit that revalidates).
std::vector<std::string> every_kind_job_lines() {
  const std::string sorter = sorter8_text();
  const std::string broken = broken16_text();
  const std::string shallow = shallow_shuffle_text();
  JsonValue count = JsonValue::object();
  count.set("id", "m");
  count.set("op", "count-sorted");
  count.set("network", broken);
  count.set("trials", 300);
  count.set("seed", 5);
  const std::string search = "{\"id\":\"s\",\"op\":\"search\",\"n\":4}";
  return {job_line("info", sorter, "i"),
          job_line("certify", sorter, "c"),
          job_line("certify", broken, "b"),
          job_line("refute", shallow, "r0"),
          job_line("refute", shallow, "r1"),
          count.dump(),
          job_line("lint", sorter, "l0"),
          job_line("lint", "circuit 4\nlevel 0+9\nend\n", "l1"),
          job_line("analyze", sorter, "a"),
          search,
          "this line is not json",
          job_line("certify", "circuit nonsense\n", "p"),
          job_line("frobnicate", sorter, "u"),
          job_line("lint", sorter, "l2"),
          search};
}

/// Per-kind telemetry counts: submitted, completed, failed, cache hits,
/// cache misses and cache_probe histogram samples.
struct KindCounts {
  const char* kind;
  std::uint64_t submitted, completed, failed, hits, misses, probes;
  bool operator==(const KindCounts&) const = default;
};

std::vector<KindCounts> kind_counts(const JsonValue& telemetry) {
  std::vector<KindCounts> out;
  for (const char* kind : {"info", "certify", "refute", "count-sorted", "lint",
                           "analyze", "search", "invalid"}) {
    const JsonValue* entry = telemetry.find("jobs")->find(kind);
    if (entry == nullptr) {
      out.push_back({kind, 0, 0, 0, 0, 0, 0});
      continue;
    }
    const JsonValue* probe = entry->find("cache_probe");
    out.push_back({kind, entry->find("submitted")->as_uint(),
                   entry->find("completed")->as_uint(),
                   entry->find("failed")->as_uint(),
                   entry->find("cache_hits")->as_uint(),
                   entry->find("cache_misses")->as_uint(),
                   probe == nullptr ? 0 : probe->find("count")->as_uint()});
  }
  return out;
}

void PrintTo(const KindCounts& c, std::ostream* os) {
  *os << c.kind << "{" << c.submitted << "," << c.completed << ","
      << c.failed << "," << c.hits << "," << c.misses << "," << c.probes
      << "}";
}

TEST(ServiceEngine, EveryKindGivesOneResultAcrossEntryPointsAndCacheStates) {
  const std::vector<std::string> lines = every_kind_job_lines();

  std::vector<std::string> isolated;
  std::uint64_t line_number = 0;
  for (const std::string& line : lines)
    isolated.push_back(
        AnalysisEngine::execute(job_from_json_line(line, ++line_number))
            .to_json_line());

  // One worker: a duplicate is promised a hit only once its twin finished.
  EngineConfig shared;
  shared.workers = 1;
  shared.cache = std::make_shared<ResultCache>();
  const BatchRun cold = run_batch(lines, shared);
  const BatchRun warm = run_batch(lines, shared);
  EngineConfig uncached;
  uncached.workers = 1;
  uncached.cache_enabled = false;
  const BatchRun off = run_batch(lines, uncached);

  ASSERT_EQ(isolated.size(), lines.size());
  EXPECT_EQ(cold.lines, isolated);
  EXPECT_EQ(warm.lines, isolated);
  EXPECT_EQ(off.lines, isolated);

  // Spot-check that the stream reaches each exit it is meant to.
  const auto error_of = [&](std::size_t i) {
    const JsonValue doc = JsonValue::parse(isolated[i]);
    const JsonValue* error = doc.find("error");
    return error == nullptr ? std::string() : error->as_string();
  };
  EXPECT_EQ(error_of(0), "");
  EXPECT_EQ(error_of(7).rfind("lint: ", 0), 0u);
  EXPECT_EQ(error_of(9), "");
  EXPECT_NE(error_of(10), "");
  EXPECT_EQ(error_of(11).rfind("network: ", 0), 0u);
  EXPECT_EQ(error_of(12), "unknown op 'frobnicate'");
  EXPECT_NE(isolated[4].find("\"status\":\"refuted\""), std::string::npos);

  const std::vector<KindCounts> cold_counts = {
      {"info", 1, 1, 0, 0, 1, 1},    {"certify", 3, 2, 1, 0, 2, 2},
      {"refute", 2, 2, 0, 1, 1, 2},  {"count-sorted", 1, 1, 0, 0, 1, 1},
      {"lint", 3, 2, 1, 1, 2, 3},    {"analyze", 1, 1, 0, 0, 1, 1},
      {"search", 2, 2, 0, 1, 1, 2},  {"invalid", 2, 0, 2, 0, 0, 0}};
  const std::vector<KindCounts> warm_counts = {
      {"info", 1, 1, 0, 1, 0, 1},    {"certify", 3, 2, 1, 2, 0, 2},
      {"refute", 2, 2, 0, 2, 0, 2},  {"count-sorted", 1, 1, 0, 1, 0, 1},
      {"lint", 3, 2, 1, 2, 1, 3},    {"analyze", 1, 1, 0, 1, 0, 1},
      {"search", 2, 2, 0, 2, 0, 2},  {"invalid", 2, 0, 2, 0, 0, 0}};
  const std::vector<KindCounts> off_counts = {
      {"info", 1, 1, 0, 0, 0, 0},    {"certify", 3, 2, 1, 0, 0, 0},
      {"refute", 2, 2, 0, 0, 0, 0},  {"count-sorted", 1, 1, 0, 0, 0, 0},
      {"lint", 3, 2, 1, 0, 0, 0},    {"analyze", 1, 1, 0, 0, 0, 0},
      {"search", 2, 2, 0, 0, 0, 0},  {"invalid", 2, 0, 2, 0, 0, 0}};
  EXPECT_EQ(kind_counts(cold.telemetry), cold_counts);
  EXPECT_EQ(kind_counts(warm.telemetry), warm_counts);
  EXPECT_EQ(kind_counts(off.telemetry), off_counts);

  // Every refute hit replays its witness before it is served.
  EXPECT_EQ(telemetry_uint(cold.telemetry, {"witness_revalidations"}), 1u);
  EXPECT_EQ(telemetry_uint(warm.telemetry, {"witness_revalidations"}), 2u);
  EXPECT_EQ(telemetry_uint(off.telemetry, {"witness_revalidations"}), 0u);
  for (const BatchRun* run : {&cold, &warm, &off})
    EXPECT_EQ(
        telemetry_uint(run->telemetry, {"witness_revalidation_failures"}), 0u);
}

/// Feeds `lines` the way the server feeds an idle connection: probe()
/// first, and only a miss goes to the queue - each waited for before the
/// next line, so a duplicate finds its twin in the cache.
BatchRun run_probe_first(const std::vector<std::string>& job_lines,
                         EngineConfig config) {
  BatchRun run;
  std::mutex mutex;
  std::condition_variable emitted;
  {
    AnalysisEngine engine(std::move(config), [&](const JobResult& result) {
      std::scoped_lock lock(mutex);
      run.lines.push_back(result.to_json_line());
      emitted.notify_all();
    });
    std::uint64_t line_number = 0;
    for (const auto& line : job_lines) {
      ProbedJob job(job_from_json_line(line, ++line_number));
      if (engine.probe(job)) {
        std::scoped_lock lock(mutex);
        run.lines.push_back(job.result->to_json_line());
        continue;
      }
      EXPECT_TRUE(job.probed);
      EXPECT_FALSE(job.result.has_value());
      std::unique_lock lock(mutex);
      const std::size_t before = run.lines.size();
      lock.unlock();
      EXPECT_EQ(engine.try_submit_for(std::move(job), std::chrono::hours(1)),
                AnalysisEngine::Admission::Accepted);
      lock.lock();
      emitted.wait(lock, [&] { return run.lines.size() > before; });
    }
    engine.finish();
    run.telemetry = engine.telemetry_to_json();
  }
  return run;
}

TEST(ServiceEngine, ProbeFirstEntryPointMatchesTheQueuedPath) {
  const std::vector<std::string> lines = every_kind_job_lines();
  const auto config = [](std::shared_ptr<ResultCache> cache) {
    EngineConfig c;
    c.workers = 1;
    c.cache = std::move(cache);
    return c;
  };
  const auto queued_cache = std::make_shared<ResultCache>();
  const auto probed_cache = std::make_shared<ResultCache>();
  const BatchRun queued_cold = run_batch(lines, config(queued_cache));
  const BatchRun probed_cold = run_probe_first(lines, config(probed_cache));
  const BatchRun queued_warm = run_batch(lines, config(queued_cache));
  const BatchRun probed_warm = run_probe_first(lines, config(probed_cache));

  // Same bytes, and every answer counted in the same telemetry whether a
  // worker or the caller's probe() produced it.
  EXPECT_EQ(probed_cold.lines, queued_cold.lines);
  EXPECT_EQ(probed_warm.lines, queued_warm.lines);
  EXPECT_EQ(kind_counts(probed_cold.telemetry), kind_counts(queued_cold.telemetry));
  EXPECT_EQ(kind_counts(probed_warm.telemetry), kind_counts(queued_warm.telemetry));
  for (const char* kind : {"certify", "refute", "lint", "invalid"})
    EXPECT_EQ(telemetry_uint(probed_warm.telemetry, {"jobs", kind, "latency", "count"}),
              telemetry_uint(probed_warm.telemetry, {"jobs", kind, "submitted"}))
        << kind;
  EXPECT_EQ(telemetry_uint(probed_warm.telemetry, {"witness_revalidations"}),
            telemetry_uint(queued_warm.telemetry, {"witness_revalidations"}));
}

}  // namespace
}  // namespace shufflebound
