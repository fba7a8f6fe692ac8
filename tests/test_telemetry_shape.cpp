// Pins the shape of the two operational documents: the engine telemetry
// that `batch --telemetry` writes (AnalysisEngine::telemetry_to_json) and
// the server's `stats` op. A fixed stream of every job kind runs cold,
// then warm with one poisoned cached refutation. Every key path of each
// document, in order, and every deterministic counter value must match
// the committed expectation in tests/data/telemetry_shape_*.txt.
//
// Left out of the comparison: latency sums and maxima and the bucket
// keys under them (timing), the queue high-water mark (scheduling), the
// kernel path (host), and byte sizes (they follow the payload and table
// formats, not the events counted). Their key paths still count.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/sortedness.hpp"
#include "core/io.hpp"
#include "networks/batcher.hpp"
#include "networks/shuffle.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "sim/arena.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

std::string refutable_text() {
  Prng rng(7);
  return to_text(random_shuffle_network(32, 8, rng));
}

std::string job_line(const char* op, const std::string& network_text,
                     const std::string& id) {
  JsonValue o = JsonValue::object();
  o.set("id", id);
  o.set("op", op);
  o.set("network", network_text);
  return o.dump();
}

/// One line of every kind, plus a failing certify, a dirty lint, an
/// unparseable network and a malformed line.
std::vector<std::string> job_stream() {
  const std::string sorter = to_text(bitonic_sorting_network(8));
  const std::string broken =
      to_text(drop_one_comparator(bitonic_sorting_network(16), 3));
  JsonValue count = JsonValue::object();
  count.set("id", "count");
  count.set("op", "count-sorted");
  count.set("network", sorter);
  count.set("trials", std::uint64_t{200});
  count.set("seed", std::uint64_t{3});
  JsonValue search = JsonValue::object();
  search.set("id", "search");
  search.set("op", "search");
  search.set("n", std::uint64_t{4});
  return {job_line("info", sorter, "info"),
          job_line("certify", sorter, "certify"),
          job_line("certify", broken, "certify-broken"),
          job_line("refute", refutable_text(), "refute"),
          count.dump(),
          job_line("analyze", sorter, "analyze"),
          job_line("lint", sorter, "lint"),
          job_line("lint", "circuit 4\nlevel 0+0\n", "lint-dirty"),
          search.dump(),
          job_line("certify", "circuit 4\nlevel 0+9\nend\n", "unparseable"),
          "not json"};
}

/// Replaces the cached refutation with one carrying the certificate of
/// another refuted network of the same width. It parses, but its witness
/// pair meets at a comparator of refutable_text's network, so the replay
/// fails and the job is recomputed.
void poison_refutation(ResultCache& cache) {
  JobSpec spec;
  spec.id = "refute";
  spec.kind = JobKind::Refute;
  Prng rng(10);
  spec.network_text = to_text(random_shuffle_network(32, 8, rng));
  const JobResult foreign = AnalysisEngine::execute(spec);
  ASSERT_EQ(foreign.payload.find("status")->as_string(), "refuted");
  spec.network_text = refutable_text();
  const JobResult correct = AnalysisEngine::execute(spec);
  ASSERT_EQ(correct.payload.find("status")->as_string(), "refuted");
  JsonValue poisoned = correct.payload;
  poisoned.set("certificate", *foreign.payload.find("certificate"));
  cache.insert(AnalysisEngine::cache_key(spec, parse_any_network(spec.network_text)),
               poisoned);
}

bool value_excluded(const std::string& path) {
  const auto ends_with = [&](const std::string& suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return ends_with(".sum_us") || ends_with(".max_us") || ends_with("bytes") ||
         path == "queue_high_water" || path.rfind("kernel.", 0) == 0;
}

/// One line per key path in document order: `path = value`, or the bare
/// path where the value is excluded. Bucket keys are dropped.
void flatten(const JsonValue& value, const std::string& path,
             std::ostringstream& out) {
  if (value.is_object()) {
    if (!path.empty()) out << path << "\n";
    if (path.size() >= 8 && path.compare(path.size() - 8, 8, ".buckets") == 0)
      return;
    for (const auto& [key, member] : value.members())
      flatten(member, path.empty() ? key : path + "." + key, out);
    return;
  }
  if (value_excluded(path))
    out << path << "\n";
  else
    out << path << " = " << value.dump() << "\n";
}

void expect_shape(const JsonValue& doc, const std::string& name) {
  std::ostringstream actual;
  flatten(doc, "", actual);
  const std::string expected_path =
      std::string(SB_TEST_DATA_DIR) + "/telemetry_shape_" + name + ".txt";
  std::ifstream in(expected_path);
  ASSERT_TRUE(in) << "cannot read " << expected_path;
  std::ostringstream expected;
  expected << in.rdbuf();
  if (actual.str() != expected.str()) {
    const std::string written =
        ::testing::TempDir() + "telemetry_shape_" + name + ".txt";
    std::ofstream(written) << actual.str();
    ADD_FAILURE() << "the " << name << " document differs from "
                  << expected_path << "; this run's document is in "
                  << written;
  }
  EXPECT_EQ(actual.str(), expected.str());
}

TEST(TelemetryShape, BatchTelemetryDocument) {
  // One worker and a private arena: every count is a function of the
  // stream alone.
  EngineConfig config;
  config.workers = 1;
  config.arena = std::make_shared<CompilationArena>();
  std::mutex mutex;
  std::condition_variable done;
  std::size_t results = 0;
  AnalysisEngine engine(config, [&](const JobResult&) {
    std::scoped_lock lock(mutex);
    ++results;
    done.notify_all();
  });
  const std::vector<std::string> stream = job_stream();
  std::uint64_t line_number = 0;
  const auto run_pass = [&] {
    for (const std::string& line : stream)
      ASSERT_TRUE(engine.submit(job_from_json_line(line, ++line_number)));
    std::unique_lock lock(mutex);
    done.wait(lock, [&] { return results == line_number; });
  };
  run_pass();
  poison_refutation(engine.cache());
  run_pass();
  engine.finish();
  expect_shape(engine.telemetry_to_json(), "batch");
}

/// A server on an ephemeral loopback port in a background thread.
struct RunningServer {
  std::unique_ptr<Server> server;
  std::thread thread;

  explicit RunningServer(ServerConfig config)
      : server(std::make_unique<Server>(std::move(config))) {
    server->listen();
    thread = std::thread([this] { server->run(); });
  }
  ~RunningServer() {
    server->request_shutdown();
    thread.join();
  }
};

/// Sends one line and reads its one response line.
std::string round_trip(int fd, std::string& buffer, const std::string& line) {
  const std::string framed = line + "\n";
  for (std::size_t off = 0; off < framed.size();) {
    const ssize_t n =
        ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return {};
    off += static_cast<std::size_t>(n);
  }
  for (;;) {
    const auto newline = buffer.find('\n');
    if (newline != std::string::npos) {
      std::string response = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return response;
    }
    pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, 60000) <= 0) return {};
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return {};
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(TelemetryShape, ServerStatsDocument) {
  const std::string dir = ::testing::TempDir() + "sb_telemetry_shape";
  ::unlink((dir + "/cache.log").c_str());
  ::unlink((dir + "/cache.idx").c_str());
  // The server compiles through the process-wide arena.
  CompilationArena::global().clear();
  ServerConfig config;
  config.workers = 1;
  config.cache_dir = dir;
  RunningServer rs(config);
  const int fd = client_connect(ClientConfig{"127.0.0.1", rs.server->bound_port()});
  ASSERT_GE(fd, 0);
  std::string buffer;
  // One request at a time, so each runs on the same path every run.
  const std::vector<std::string> stream = job_stream();
  for (const std::string& line : stream)
    ASSERT_FALSE(round_trip(fd, buffer, line).empty());
  poison_refutation(rs.server->engine().cache());
  for (const std::string& line : stream)
    ASSERT_FALSE(round_trip(fd, buffer, line).empty());
  const std::string stats = round_trip(fd, buffer, R"({"id":"s","op":"stats"})");
  ::close(fd);
  ASSERT_FALSE(stats.empty());
  expect_shape(*JsonValue::parse(stats).find("result"), "server");
}

}  // namespace
}  // namespace shufflebound
