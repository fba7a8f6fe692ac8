// End-to-end tests for the analysis server over loopback sockets:
// per-connection response ordering across mixed ops, structured
// admission-control rejections, graceful drain with no lost responses,
// witness re-validation of poisoned disk-cache entries on warm restart,
// and the full two-client / mid-run-restart acceptance scenario.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/sortedness.hpp"
#include "core/io.hpp"
#include "networks/batcher.hpp"
#include "networks/shuffle.hpp"
#include "server/client.hpp"
#include "server/diskcache.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

using namespace std::chrono_literals;

std::string sorter8_text() { return to_text(bitonic_sorting_network(8)); }

std::string broken16_text() {
  return to_text(drop_one_comparator(bitonic_sorting_network(16), 3));
}

/// A shallow shuffle-based register network the refuter actually refutes
/// (same family the engine tests use).
std::string refutable_shuffle_text() {
  Prng rng(7);
  return to_text(random_shuffle_network(32, 8, rng));
}

/// `payload` with the certificate of another refuted network of the same
/// width in place of its own: it parses, but its witness pair meets at a
/// comparator of refutable_shuffle_text's network, so the replay there
/// rejects it.
JsonValue with_foreign_certificate(JsonValue payload) {
  Prng rng(10);
  JobSpec spec;
  spec.kind = JobKind::Refute;
  spec.network_text = to_text(random_shuffle_network(32, 8, rng));
  const JobResult foreign = AnalysisEngine::execute(spec);
  EXPECT_EQ(foreign.payload.find("status")->as_string(), "refuted");
  payload.set("certificate", *foreign.payload.find("certificate"));
  return payload;
}

std::string job_line(const char* op, const std::string& network_text,
                     const std::string& id) {
  JsonValue o = JsonValue::object();
  o.set("id", id);
  o.set("op", op);
  o.set("network", network_text);
  return o.dump();
}

std::string count_sorted_line(const std::string& network_text,
                              std::uint64_t trials, std::uint64_t seed,
                              const std::string& id) {
  JsonValue o = JsonValue::object();
  o.set("id", id);
  o.set("op", "count-sorted");
  o.set("network", network_text);
  o.set("trials", trials);
  o.set("seed", seed);
  return o.dump();
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = std::string(::testing::TempDir()) + "sb_server_" +
                          tag + "_" +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name();
  // Start every test from a cold cache.
  ::unlink((dir + "/cache.log").c_str());
  ::unlink((dir + "/cache.idx").c_str());
  return dir;
}

/// A server running on an ephemeral loopback port in a background thread.
struct RunningServer {
  std::unique_ptr<Server> server;
  std::thread thread;
  int rc = -1;

  explicit RunningServer(ServerConfig config)
      : server(std::make_unique<Server>(std::move(config))) {
    server->listen();
    thread = std::thread([this] { rc = server->run(); });
  }

  std::uint16_t port() const { return server->bound_port(); }

  /// Drains and returns run()'s exit code.
  int stop() {
    server->request_shutdown();
    if (thread.joinable()) thread.join();
    return rc;
  }

  ~RunningServer() {
    if (thread.joinable()) {
      server->request_shutdown();
      thread.join();
    }
  }
};

/// A raw JSONL client socket with a bounded line reader.
class TestConn {
 public:
  explicit TestConn(std::uint16_t port) {
    fd_ = client_connect(ClientConfig{"127.0.0.1", port});
  }
  ~TestConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  TestConn(const TestConn&) = delete;
  TestConn& operator=(const TestConn&) = delete;

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed";
      off += static_cast<std::size_t>(n);
    }
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

  /// Next response line, or nullopt on EOF / timeout.
  std::optional<std::string> read_line(
      std::chrono::milliseconds timeout = 60s) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      if (eof_) return std::nullopt;
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) return std::nullopt;
      struct pollfd pfd = {fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (ready <= 0) return std::nullopt;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) {
        eof_ = true;
        continue;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool at_eof(std::chrono::milliseconds timeout = 60s) {
    return !read_line(timeout).has_value() && eof_;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  bool eof_ = false;
};

const JsonValue* find_path(const JsonValue& doc,
                           std::initializer_list<const char*> path) {
  const JsonValue* node = &doc;
  for (const char* key : path) {
    if (node == nullptr) return nullptr;
    node = node->find(key);
  }
  return node;
}

std::string response_id(const std::string& line) {
  const JsonValue doc = JsonValue::parse(line);
  const JsonValue* id = doc.find("id");
  return id != nullptr && id->is_string() ? id->as_string() : std::string();
}

// ---- ordering ---------------------------------------------------------

TEST(Server, MixedOpsComeBackInRequestOrder) {
  ServerConfig config;
  config.cache_dir = fresh_dir("order");
  config.workers = 2;
  config.queue_capacity = 16;
  RunningServer rs(config);

  TestConn conn(rs.port());
  ASSERT_TRUE(conn.connected());
  conn.send_line(job_line("info", sorter8_text(), "r0"));
  conn.send_line(job_line("certify", sorter8_text(), "r1"));
  conn.send_line(job_line("refute", refutable_shuffle_text(), "r2"));
  conn.send_line(count_sorted_line(broken16_text(), 256, 9, "r3"));
  conn.send_line(job_line("lint", sorter8_text(), "r4"));
  conn.send_line("{this is not json");  // 6th line -> default id "line-6"
  conn.send_line("{\"id\":\"r6\",\"op\":\"stats\"}");
  conn.send_line(job_line("certify", sorter8_text(), "r7"));  // cache hit
  conn.half_close();

  std::vector<std::string> lines;
  for (int i = 0; i < 8; ++i) {
    const auto line = conn.read_line();
    ASSERT_TRUE(line.has_value()) << "missing response " << i;
    lines.push_back(*line);
  }
  EXPECT_TRUE(conn.at_eof());

  const std::vector<std::string> want_ids = {"r0", "r1",     "r2", "r3",
                                             "r4", "line-6", "r6", "r7"};
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(response_id(lines[i]), want_ids[i]) << lines[i];

  const JsonValue certify = JsonValue::parse(lines[1]);
  EXPECT_TRUE(find_path(certify, {"ok"})->as_bool());
  EXPECT_EQ(find_path(certify, {"result", "verdict"})->as_string(), "sorting");

  const JsonValue refute = JsonValue::parse(lines[2]);
  EXPECT_TRUE(find_path(refute, {"ok"})->as_bool());
  EXPECT_EQ(find_path(refute, {"result", "status"})->as_string(), "refuted");

  const JsonValue malformed = JsonValue::parse(lines[5]);
  EXPECT_FALSE(find_path(malformed, {"ok"})->as_bool());

  // The stats line carries server state and the tiered cache document.
  const JsonValue stats = JsonValue::parse(lines[6]);
  EXPECT_TRUE(find_path(stats, {"ok"})->as_bool());
  // A single connection's lines are handled sequentially, so exactly the
  // 7 lines up to and including the stats request have been counted.
  EXPECT_EQ(find_path(stats, {"result", "server", "requests"})->as_uint(), 7u);
  EXPECT_FALSE(find_path(stats, {"result", "server", "draining"})->as_bool());
  EXPECT_NE(find_path(stats, {"result", "cache", "disk"}), nullptr);

  EXPECT_EQ(rs.stop(), 0);
}

TEST(Server, MultiMegabyteLineInSmallWritesGetsOneResponse) {
  ServerConfig config;
  config.workers = 1;
  RunningServer rs(config);

  // An info job whose network text carries ~4 MiB of comment lines.
  std::string text = "circuit 4\n";
  while (text.size() < (std::size_t{4} << 20))
    text += "# padding padding padding padding padding padding padding\n";
  text += "level 0+1 2+3\nend\n";
  const std::string framed = job_line("info", text, "big") + "\n";

  TestConn conn(rs.port());
  ASSERT_TRUE(conn.connected());
  for (std::size_t off = 0; off < framed.size(); off += 1024) {
    const std::string piece = framed.substr(off, 1024);
    std::size_t sent = 0;
    while (sent < piece.size()) {
      const ssize_t n = ::send(conn.fd(), piece.data() + sent,
                               piece.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed";
      sent += static_cast<std::size_t>(n);
    }
  }
  conn.half_close();

  const auto line = conn.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(response_id(*line), "big");
  const JsonValue doc = JsonValue::parse(*line);
  EXPECT_TRUE(find_path(doc, {"ok"})->as_bool()) << *line;
  EXPECT_EQ(find_path(doc, {"result", "width"})->as_uint(), 4u);
  EXPECT_TRUE(conn.at_eof());
  EXPECT_EQ(rs.stop(), 0);
}

TEST(Server, OverlongLineGetsOneTooLargeErrorAndConnectionKeepsServing) {
  ServerConfig config;
  config.workers = 1;
  RunningServer rs(config);

  // Over-long lines are generated here rather than stored as seeds: one
  // byte over the cap (its end and newline arrive in one read), and one
  // that passes the cap reads before its newline arrives.
  const auto overlong = [](std::size_t bytes) {
    std::string line = "{\"id\":\"huge\",\"op\":\"info\",\"pad\":\"";
    line.append(bytes - line.size(), 'x');
    return line + "\n";
  };

  TestConn conn(rs.port());
  ASSERT_TRUE(conn.connected());
  const auto send_raw = [&conn](const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(conn.fd(), data.data() + sent,
                               data.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed";
      sent += static_cast<std::size_t>(n);
    }
  };
  conn.send_line(job_line("info", sorter8_text(), "before"));
  send_raw(overlong(Server::kMaxLineBytes + 1));
  conn.send_line(job_line("info", sorter8_text(), "middle"));
  send_raw(overlong(Server::kMaxLineBytes + (64u << 10)));
  conn.send_line(job_line("info", sorter8_text(), "after"));
  conn.half_close();

  std::vector<std::string> lines;
  while (auto line = conn.read_line()) lines.push_back(*line);
  ASSERT_EQ(lines.size(), 5u);
  const std::vector<std::string> want_ids = {"before", "line-2", "middle",
                                             "line-4", "after"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(response_id(lines[i]), want_ids[i]) << lines[i].substr(0, 200);
    const JsonValue doc = JsonValue::parse(lines[i]);
    if (i % 2 == 1) {
      EXPECT_FALSE(find_path(doc, {"ok"})->as_bool());
      EXPECT_EQ(find_path(doc, {"code"})->as_string(), "too_large");
    } else {
      EXPECT_TRUE(find_path(doc, {"ok"})->as_bool()) << lines[i];
    }
  }
  EXPECT_EQ(rs.stop(), 0);
}

// ---- admission control ------------------------------------------------

// Enough trials that one count-sorted job pins a worker for a while.
constexpr std::uint64_t kSlowTrials = 800000;

std::vector<std::string> blast_slow_jobs(TestConn& conn, int count) {
  for (int i = 0; i < count; ++i)
    conn.send_line(count_sorted_line(to_text(bitonic_sorting_network(16)),
                                     kSlowTrials, 1,
                                     "s" + std::to_string(i)));
  conn.half_close();
  std::vector<std::string> lines;
  for (int i = 0; i < count; ++i) {
    const auto line = conn.read_line();
    if (!line.has_value()) break;
    lines.push_back(*line);
  }
  return lines;
}

void expect_ordered_with_overloads(const std::vector<std::string>& lines,
                                   int count) {
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(count));
  int overloaded = 0;
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(response_id(lines[static_cast<std::size_t>(i)]),
              "s" + std::to_string(i));
    const JsonValue doc = JsonValue::parse(lines[static_cast<std::size_t>(i)]);
    if (const JsonValue* code = doc.find("code")) {
      EXPECT_EQ(code->as_string(), "overloaded");
      EXPECT_FALSE(doc.find("ok")->as_bool());
      ++overloaded;
    } else {
      EXPECT_TRUE(doc.find("ok")->as_bool());
    }
  }
  // The first job is always admitted; under saturation at least one later
  // job must have been turned away instead of blocking the reader.
  EXPECT_TRUE(JsonValue::parse(lines[0]).find("ok")->as_bool());
  EXPECT_GE(overloaded, 1);
}

TEST(Server, InflightCapYieldsOverloadedInOrder) {
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.max_inflight_per_conn = 2;
  config.admission_wait_ms = 1;
  RunningServer rs(config);

  TestConn conn(rs.port());
  ASSERT_TRUE(conn.connected());
  const auto lines = blast_slow_jobs(conn, 6);
  expect_ordered_with_overloads(lines, 6);
  EXPECT_EQ(rs.stop(), 0);
}

TEST(Server, SaturatedQueueYieldsOverloadedInOrder) {
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.max_inflight_per_conn = 64;
  config.admission_wait_ms = 1;
  RunningServer rs(config);

  TestConn conn(rs.port());
  ASSERT_TRUE(conn.connected());
  const auto lines = blast_slow_jobs(conn, 8);
  expect_ordered_with_overloads(lines, 8);
  EXPECT_EQ(rs.stop(), 0);
}

// ---- cache hits on the reader thread ------------------------------------

std::string slow_count_line(const std::string& id) {
  return count_sorted_line(to_text(bitonic_sorting_network(16)), kSlowTrials,
                           1, id);
}

/// `line` with its "id" value `from` replaced by `to`.
std::string renamed(const std::string& line, const std::string& from,
                    const std::string& to) {
  std::string out = line;
  const std::string key = "\"id\":\"" + from + "\"";
  const auto pos = out.find(key);
  EXPECT_NE(pos, std::string::npos) << line;
  if (pos != std::string::npos)
    out.replace(pos, key.size(), "\"id\":\"" + to + "\"");
  return out;
}

/// Sends `line` and returns its response, leaving the connection idle.
std::string round_trip(TestConn& conn, const std::string& line) {
  conn.send_line(line);
  const auto response = conn.read_line();
  EXPECT_TRUE(response.has_value()) << line;
  return response.value_or("");
}

TEST(Server, HitIsAnsweredWhileAnotherConnectionRunsASlowMiss) {
  ServerConfig config;
  config.workers = 2;
  RunningServer rs(config);

  TestConn a(rs.port());
  TestConn b(rs.port());
  ASSERT_TRUE(a.connected() && b.connected());
  const std::string hit_line = job_line("certify", sorter8_text(), "a1");
  const std::string warm = round_trip(a, job_line("certify", sorter8_text(), "a0"));

  b.send_line(slow_count_line("b0"));
  std::this_thread::sleep_for(50ms);  // b0 is in the engine first
  const std::string hit = round_trip(a, hit_line);
  // Neither a worker nor any engine-wide result order sits between the
  // hit and its connection: it arrives while b0 is still computing.
  EXPECT_FALSE(b.read_line(20ms).has_value()) << "slow miss finished first";
  EXPECT_EQ(hit, renamed(warm, "a0", "a1"));
  const auto slow = b.read_line();
  ASSERT_TRUE(slow.has_value());
  EXPECT_EQ(response_id(*slow), "b0");
  EXPECT_EQ(rs.stop(), 0);
}

TEST(Server, TwoConnectionsShareOneComputationOfANewKey) {
  ServerConfig config;
  config.workers = 2;
  RunningServer rs(config);

  TestConn a(rs.port());
  TestConn b(rs.port());
  ASSERT_TRUE(a.connected() && b.connected());
  a.send_line(slow_count_line("a0"));
  b.send_line(slow_count_line("b0"));
  const auto from_a = a.read_line();
  const auto from_b = b.read_line();
  ASSERT_TRUE(from_a.has_value() && from_b.has_value());
  EXPECT_TRUE(JsonValue::parse(*from_a).find("ok")->as_bool()) << *from_a;
  EXPECT_EQ(*from_b, renamed(*from_a, "a0", "b0"));

  // One worker computed the key; the other job waited for its insert.
  const JsonValue stats =
      JsonValue::parse(round_trip(a, "{\"op\":\"stats\"}"));
  const JsonValue* misses =
      find_path(stats, {"result", "jobs", "count-sorted", "cache_misses"});
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(misses->as_uint(), 1u);
  EXPECT_EQ(rs.stop(), 0);
}

TEST(Server, PipelinedSlowMissThenHitsComeBackInRequestOrder) {
  ServerConfig config;
  config.workers = 2;
  RunningServer rs(config);

  TestConn conn(rs.port());
  ASSERT_TRUE(conn.connected());
  const std::string warm =
      round_trip(conn, job_line("certify", sorter8_text(), "w"));
  conn.send_line(slow_count_line("s"));
  conn.send_line(job_line("certify", sorter8_text(), "h1"));
  conn.send_line(job_line("certify", sorter8_text(), "h2"));
  conn.half_close();

  std::vector<std::string> lines;
  while (auto line = conn.read_line()) lines.push_back(*line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(response_id(lines[0]), "s");
  EXPECT_TRUE(JsonValue::parse(lines[0]).find("ok")->as_bool()) << lines[0];
  EXPECT_EQ(lines[1], renamed(warm, "w", "h1"));
  EXPECT_EQ(lines[2], renamed(warm, "w", "h2"));
  EXPECT_EQ(rs.stop(), 0);
}

TEST(Server, PoisonedMemoryRefutationIsRevalidatedAndRecomputed) {
  const std::string network = refutable_shuffle_text();
  JobSpec spec;
  spec.id = "m0";
  spec.kind = JobKind::Refute;
  spec.network_text = network;
  const JobResult correct = AnalysisEngine::execute(spec);
  ASSERT_EQ(correct.payload.find("status")->as_string(), "refuted");

  // The same poison as the disk-tier test, planted in the memory tier of
  // a server with no disk tier at all.
  const JsonValue poisoned = with_foreign_certificate(correct.payload);

  ServerConfig config;
  config.workers = 1;
  RunningServer rs(config);
  rs.server->engine().cache().insert(
      AnalysisEngine::cache_key(spec, parse_any_network(network)), poisoned);

  // The connection is idle, so the reader thread probes: the replay fails,
  // the entry is invalidated and the job is recomputed by a worker.
  TestConn conn(rs.port());
  ASSERT_TRUE(conn.connected());
  EXPECT_EQ(round_trip(conn, job_line("refute", network, "m0")),
            correct.to_json_line());
  // The recomputed payload replaced the poison: the next probe serves it.
  EXPECT_EQ(round_trip(conn, job_line("refute", network, "m0")),
            correct.to_json_line());

  const JsonValue telemetry = rs.server->engine().telemetry_to_json();
  EXPECT_EQ(telemetry.find("witness_revalidations")->as_uint(), 2u);
  EXPECT_EQ(telemetry.find("witness_revalidation_failures")->as_uint(), 1u);
  EXPECT_EQ(find_path(telemetry, {"cache", "invalidations"})->as_uint(), 1u);
  EXPECT_EQ(find_path(telemetry, {"jobs", "refute", "cache_hits"})->as_uint(), 1u);
  EXPECT_EQ(find_path(telemetry, {"jobs", "refute", "cache_misses"})->as_uint(), 1u);
  EXPECT_EQ(rs.stop(), 0);
}

TEST(Server, ReaderThreadHitsCountInEveryJobCounter) {
  ServerConfig config;
  config.workers = 1;
  RunningServer rs(config);

  TestConn conn(rs.port());
  ASSERT_TRUE(conn.connected());
  const std::string line = job_line("info", sorter8_text(), "i");
  round_trip(conn, line);  // the miss that fills the cache

  const auto counter = [&](const JsonValue& stats,
                           std::initializer_list<const char*> path) {
    const JsonValue* entry = find_path(stats, {"result", "jobs", "info"});
    EXPECT_NE(entry, nullptr);
    const JsonValue* node = entry == nullptr ? nullptr : find_path(*entry, path);
    EXPECT_NE(node, nullptr);
    return node == nullptr ? 0 : node->as_uint();
  };
  const std::string stats_line = "{\"op\":\"stats\"}";
  const JsonValue before = JsonValue::parse(round_trip(conn, stats_line));
  constexpr std::uint64_t kHits = 5;
  for (std::uint64_t i = 0; i < kHits; ++i) round_trip(conn, line);
  const JsonValue after = JsonValue::parse(round_trip(conn, stats_line));

  // Each hit is a whole job to every reader of `stats`: perfbench divides
  // engine time by latency.count, so a hit missing from it would inflate
  // the measured wire overhead.
  for (const std::initializer_list<const char*> path :
       {std::initializer_list<const char*>{"submitted"}, {"completed"},
        {"cache_hits"}, {"latency", "count"}, {"cache_probe", "count"}})
    EXPECT_EQ(counter(after, path) - counter(before, path), kHits)
        << *path.begin();
  EXPECT_EQ(counter(after, {"cache_misses"}), counter(before, {"cache_misses"}));
  EXPECT_EQ(counter(after, {"failed"}), 0u);
  EXPECT_EQ(rs.stop(), 0);
}

// ---- drain ------------------------------------------------------------

TEST(Server, ShutdownOpAcksThenDrains) {
  ServerConfig config;
  config.workers = 2;
  RunningServer rs(config);

  TestConn conn(rs.port());
  ASSERT_TRUE(conn.connected());
  conn.send_line(job_line("certify", sorter8_text(), "r0"));
  conn.send_line("{\"id\":\"r1\",\"op\":\"shutdown\"}");

  const auto first = conn.read_line();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(response_id(*first), "r0");
  const auto ack = conn.read_line();
  ASSERT_TRUE(ack.has_value());
  const JsonValue doc = JsonValue::parse(*ack);
  EXPECT_EQ(response_id(*ack), "r1");
  EXPECT_TRUE(find_path(doc, {"ok"})->as_bool());
  EXPECT_TRUE(find_path(doc, {"result", "draining"})->as_bool());
  EXPECT_TRUE(conn.at_eof());

  rs.thread.join();
  EXPECT_EQ(rs.rc, 0);
}

TEST(Server, DrainFlushesBufferedRequestsWithoutLosingResponses) {
  ServerConfig config;
  config.workers = 1;
  RunningServer rs(config);

  TestConn conn(rs.port());
  ASSERT_TRUE(conn.connected());
  // Buffer several requests, then trigger drain while they are (at best)
  // half-way through the engine. Every request must still get exactly one
  // response - a real result or a structured `draining` rejection - and
  // they must arrive in order.
  constexpr int kJobs = 6;
  for (int i = 0; i < kJobs; ++i)
    conn.send_line(job_line("certify", sorter8_text(), "d" + std::to_string(i)));
  rs.server->request_shutdown();

  std::vector<std::string> lines;
  while (auto line = conn.read_line()) lines.push_back(*line);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    const auto& line = lines[static_cast<std::size_t>(i)];
    EXPECT_EQ(response_id(line), "d" + std::to_string(i));
    const JsonValue doc = JsonValue::parse(line);
    if (!doc.find("ok")->as_bool()) {
      EXPECT_EQ(doc.find("code")->as_string(), "draining") << line;
    }
  }

  rs.thread.join();
  EXPECT_EQ(rs.rc, 0);
}

// ---- poisoned disk entries --------------------------------------------

TEST(Server, PoisonedDiskRefutationIsRevalidatedAndRecomputed) {
  const std::string dir = fresh_dir("poison");
  const std::string network = refutable_shuffle_text();

  JobSpec spec;
  spec.id = "p0";
  spec.kind = JobKind::Refute;
  spec.network_text = network;
  const JobResult correct = AnalysisEngine::execute(spec);
  ASSERT_TRUE(correct.ok);
  ASSERT_EQ(correct.payload.find("status")->as_string(), "refuted");

  // Poison the cached payload: another network's certificate parses, but
  // its refutation does not stand on this network.
  const JsonValue poisoned = with_foreign_certificate(correct.payload);

  const CacheKey key =
      AnalysisEngine::cache_key(spec, parse_any_network(network));
  {
    DiskCacheConfig cache_config;
    cache_config.directory = dir;
    DiskBackedCache cache(cache_config);
    cache.insert(key, poisoned);
  }  // destructor persists log + index

  ServerConfig config;
  config.cache_dir = dir;
  config.workers = 1;
  RunningServer rs(config);

  TestConn conn(rs.port());
  ASSERT_TRUE(conn.connected());
  conn.send_line(job_line("refute", network, "p0"));
  conn.half_close();
  const auto line = conn.read_line();
  ASSERT_TRUE(line.has_value());

  // The poisoned entry failed witness replay, was invalidated from both
  // tiers, and the job was recomputed - the response is byte-identical to
  // a cold execute().
  EXPECT_EQ(*line, correct.to_json_line());

  const DiskBackedCache::TierStats stats = rs.server->disk_cache()->tier_stats();
  EXPECT_GE(stats.disk_hits, 1u);
  EXPECT_GE(stats.invalidations, 1u);
  const JsonValue telemetry = rs.server->engine().telemetry_to_json();
  EXPECT_GE(telemetry.find("witness_revalidations")->as_uint(), 1u);
  EXPECT_GE(telemetry.find("witness_revalidation_failures")->as_uint(), 1u);

  EXPECT_EQ(rs.stop(), 0);
}

// ---- acceptance: two clients, mid-run restart -------------------------

struct OpTemplate {
  std::string line;      // with id placeholder "ID"
  std::string expected;  // expected response line, id placeholder "ID"
};

/// Builds the rotating job mix and precomputes each op's exact expected
/// response line via the engine's pure execute() path.
std::vector<OpTemplate> acceptance_mix() {
  const std::string sorter = sorter8_text();
  const std::string broken = broken16_text();
  const std::string shuffle = refutable_shuffle_text();

  std::vector<OpTemplate> mix;
  auto add = [&mix](const std::string& line, JobSpec spec) {
    spec.id = "ID";
    mix.push_back(OpTemplate{line, AnalysisEngine::execute(spec).to_json_line()});
  };

  JobSpec spec;
  spec.kind = JobKind::Certify;
  spec.network_text = sorter;
  add(job_line("certify", sorter, "ID"), spec);

  spec.kind = JobKind::Info;
  spec.network_text = broken;
  add(job_line("info", broken, "ID"), spec);

  spec.kind = JobKind::Refute;
  spec.network_text = shuffle;
  add(job_line("refute", shuffle, "ID"), spec);

  spec.kind = JobKind::CountSorted;
  spec.network_text = broken;
  spec.trials = 512;
  spec.seed = 42;
  add(count_sorted_line(broken, 512, 42, "ID"), spec);

  spec = JobSpec{};
  spec.kind = JobKind::Lint;
  spec.network_text = sorter;
  add(job_line("lint", sorter, "ID"), spec);

  spec = JobSpec{};
  spec.kind = JobKind::Certify;
  spec.network_text = broken;
  add(job_line("certify", broken, "ID"), spec);

  return mix;
}

std::string with_id(const std::string& templ, const std::string& id) {
  std::string out = templ;
  const std::string placeholder = "\"id\":\"ID\"";
  const auto pos = out.find(placeholder);
  EXPECT_NE(pos, std::string::npos) << templ;
  out.replace(pos, placeholder.size(), "\"id\":\"" + id + "\"");
  return out;
}

/// Runs `jobs` mixed jobs through one `connect`-style client and asserts
/// every response line is byte-exact and in request order.
void run_acceptance_client(std::uint16_t port,
                           const std::vector<OpTemplate>& mix, int client_index,
                           int jobs) {
  std::ostringstream request;
  std::vector<std::string> expected;
  for (int i = 0; i < jobs; ++i) {
    const OpTemplate& op = mix[static_cast<std::size_t>(i) % mix.size()];
    const std::string id =
        "c" + std::to_string(client_index) + "-" + std::to_string(i);
    request << with_id(op.line, id) << "\n";
    expected.push_back(with_id(op.expected, id));
  }

  std::istringstream in(request.str());
  std::ostringstream out;
  ASSERT_EQ(run_client(ClientConfig{"127.0.0.1", port}, in, out), 0);

  std::istringstream responses(out.str());
  std::string line;
  std::size_t index = 0;
  while (std::getline(responses, line)) {
    ASSERT_LT(index, expected.size());
    EXPECT_EQ(line, expected[index]) << "client " << client_index
                                     << " response " << index;
    ++index;
  }
  EXPECT_EQ(index, expected.size());
}

TEST(Server, TwoConcurrentClientsSurviveWarmRestartMidRun) {
  const std::string dir = fresh_dir("accept");
  const std::vector<OpTemplate> mix = acceptance_mix();
  constexpr int kJobsPerClient = 100;

  ServerConfig config;
  config.cache_dir = dir;
  config.workers = 2;
  config.queue_capacity = 32;
  // The clients blast their whole batch before reading; keep the
  // per-connection cap above the burst so nothing is turned away -
  // admission control has its own tests.
  config.max_inflight_per_conn = static_cast<std::uint32_t>(2 * kJobsPerClient);

  {
    RunningServer rs(config);
    std::thread first(run_acceptance_client, rs.port(), std::cref(mix), 0,
                      kJobsPerClient);
    std::thread second(run_acceptance_client, rs.port(), std::cref(mix), 1,
                       kJobsPerClient);
    first.join();
    second.join();
    EXPECT_EQ(rs.stop(), 0);
  }

  // Restart on the same cache directory: the same mix must now be served
  // with disk hits (fingerprints recovered from the log) and cached
  // refutations re-validated through witness replay.
  {
    RunningServer rs(config);
    std::thread first(run_acceptance_client, rs.port(), std::cref(mix), 0,
                      kJobsPerClient);
    std::thread second(run_acceptance_client, rs.port(), std::cref(mix), 1,
                       kJobsPerClient);
    first.join();
    second.join();

    const DiskBackedCache::TierStats stats =
        rs.server->disk_cache()->tier_stats();
    EXPECT_GT(stats.recovered, 0u);
    EXPECT_GT(stats.disk_hits, 0u);
    const JsonValue telemetry = rs.server->engine().telemetry_to_json();
    EXPECT_GT(telemetry.find("witness_revalidations")->as_uint(), 0u);
    EXPECT_EQ(telemetry.find("witness_revalidation_failures")->as_uint(), 0u);

    EXPECT_EQ(rs.stop(), 0);
  }
}

}  // namespace
}  // namespace shufflebound
