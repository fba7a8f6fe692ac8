// E19 - standalone analysis server: QPS and tail latency over loopback
// (infrastructure experiment).
//
// The server (src/server/) fronts the batch engine with a persistent
// disk-backed result cache, so a restarted server should answer repeated
// analyses from the log instead of recomputing them. This experiment
// drives a real TCP round trip per request (connect-mode wire format) in
// three phases:
//
//   cold          fresh cache directory, every job computed
//   warm-restart  new server process state, same directory: memory tier
//                 empty, every repeated fingerprint served from disk
//   hostile       malformed JSON, broken network text, failing lints,
//                 non-sorting certifies - the abuse mix must not stall
//                 the server or leak into later responses (full runs
//                 only; quick mode skips it)
//
// The headline metric is warm_restart_p50_speedup_certify: median certify
// round trip, cold compute vs disk hit. QPS numbers are serial (one
// request in flight - they bound per-request latency, not peak pipelined
// throughput).
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/sortedness.hpp"
#include "bench_util.hpp"
#include "core/io.hpp"
#include "networks/batcher.hpp"
#include "networks/shuffle.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "service/json.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

constexpr const char* kCacheDir = "bench_e19_cache";

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
  void stop() {
    server->request_shutdown();
    thread.join();
  }
};

ServerConfig server_config() {
  ServerConfig config;
  config.cache_dir = kCacheDir;
  config.workers = 2;
  config.queue_capacity = 64;
  return config;
}

void reset_cache_dir() {
  ::unlink((std::string(kCacheDir) + "/cache.log").c_str());
  ::unlink((std::string(kCacheDir) + "/cache.idx").c_str());
}

struct Request {
  std::string line;
  bool certify = false;
};

std::string job_line(const char* op, const std::string& network,
                     std::size_t index) {
  JsonValue o = JsonValue::object();
  o.set("id", "j" + std::to_string(index));
  o.set("op", op);
  o.set("network", network);
  return o.dump();
}

constexpr wire_t kSourceWidth = 32;
constexpr wire_t kCertifyWidth = 20;

/// Wires [lo, lo + kCertifyWidth) of the all-ascending bitonic sorter on
/// kSourceWidth wires. With -infinity below the window and +infinity
/// above it, every cut comparator is a no-op, so a window sorts; the
/// static analyzer cannot prove one, so certifying it runs the full
/// 2^20-vector sweep.
ComparatorNetwork ascending_window(wire_t lo) {
  ComparatorNetwork net(kCertifyWidth);
  const auto keep = [lo](Level& kept, wire_t a, wire_t b) {
    if (a >= lo && b < lo + kCertifyWidth)
      kept.gates.emplace_back(a - lo, b - lo, GateOp::CompareAsc);
  };
  for (wire_t k = 2; k <= kSourceWidth; k *= 2) {
    Level flip;
    for (wire_t b = 0; b < kSourceWidth; b += k)
      for (wire_t i = 0; i < k / 2; ++i) keep(flip, b + i, b + k - 1 - i);
    if (!flip.empty()) net.add_level(std::move(flip));
    for (wire_t j = k / 4; j >= 1; j /= 2) {
      Level clean;
      for (wire_t b = 0; b < kSourceWidth; b += 2 * j)
        for (wire_t i = 0; i < j; ++i) keep(clean, b + i, b + i + j);
      if (!clean.empty()) net.add_level(std::move(clean));
    }
  }
  return net;
}

/// Distinct sorting networks, one per certify request, that a cold
/// certify must really compute: a window at one of 13 offsets plus one
/// redundant comparator on its sorted output. Every variant has its own
/// canonical fingerprint, so the cold phase computes each certify and
/// the warm-restart phase serves each from the disk log, instead of both
/// hitting the memory tier after the first repeat.
std::vector<std::string> certify_variants(std::size_t count) {
  constexpr wire_t kOffsets = kSourceWidth - kCertifyWidth + 1;
  std::vector<std::string> texts;
  texts.reserve(count);
  wire_t a = 0;
  wire_t b = 1;
  for (std::size_t i = 0; i < count; ++i) {
    const auto lo = static_cast<wire_t>(i % kOffsets);
    ComparatorNetwork net = ascending_window(lo);
    net.add_level({Gate(a, b, GateOp::CompareAsc)});
    texts.push_back(to_text(net));
    if (lo + 1 < kOffsets) continue;
    if (++b >= kCertifyWidth) {
      ++a;
      b = static_cast<wire_t>(a + 1);
    }
  }
  return texts;
}

/// The measured mix: every other request a distinct-fingerprint certify
/// (the disk tier's showcase), with refute / count-sorted / info riding
/// along on repeated fingerprints as in a sweep workload.
std::vector<Request> make_mix(std::size_t jobs) {
  const auto sorters = certify_variants(jobs / 2 + 1);
  Prng rng(1919);
  const std::string shuffle32 = to_text(random_shuffle_network(32, 8, rng));
  const std::string small16 = to_text(bitonic_sorting_network(16));

  std::vector<Request> mix;
  mix.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    Request request;
    if (i % 2 == 0) {
      request.line = job_line("certify", sorters[i / 2], i);
      request.certify = true;
    } else {
      switch ((i / 2) % 3) {
        case 0: request.line = job_line("refute", shuffle32, i); break;
        case 1: {
          JsonValue o = JsonValue::object();
          o.set("id", "j" + std::to_string(i));
          o.set("op", "count-sorted");
          o.set("network", small16);
          o.set("trials", std::uint64_t{4096});
          o.set("seed", std::uint64_t{19});
          request.line = o.dump();
          break;
        }
        default: request.line = job_line("info", small16, i); break;
      }
    }
    mix.push_back(std::move(request));
  }
  return mix;
}

/// Abuse stream: malformed JSON, unparseable networks, failing lints,
/// non-sorting certifies. Every line must still get exactly one response.
std::vector<Request> make_hostile_mix(std::size_t jobs) {
  const std::string broken32 =
      to_text(drop_one_comparator(bitonic_sorting_network(32), 7));
  std::vector<Request> mix;
  mix.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    Request request;
    switch (i % 5) {
      case 0: request.line = "{\"id\":\"h\",\"op\":"; break;  // cut JSON
      case 1:
        request.line = job_line("certify", "circuit 4\nlevel 0+9\nend\n", i);
        break;  // wire out of range
      case 2:
        request.line = job_line("lint", "circuit 4\nlevel 0+0\n", i);
        break;  // self-loop + missing end
      case 3:
        request.line = job_line("certify", broken32, i);
        break;  // genuinely not sorting
      default:
        request.line = job_line("frobnicate", broken32, i);
        break;  // unknown op
    }
    mix.push_back(std::move(request));
  }
  return mix;
}

struct DriveStats {
  double seconds = 0;
  std::size_t responses = 0;
  std::vector<double> latency_us;          // per request
  std::vector<double> certify_latency_us;  // certify subset
};

class LineConn {
 public:
  explicit LineConn(std::uint16_t port) {
    fd_ = client_connect(ClientConfig{"127.0.0.1", port});
  }
  ~LineConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool round_trip(const std::string& line, std::string& response) {
    std::string framed = line;
    framed.push_back('\n');
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        response = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One request in flight at a time: wall-per-request IS the round-trip
/// latency, and QPS is its reciprocal.
DriveStats drive_serial(std::uint16_t port, const std::vector<Request>& mix) {
  DriveStats stats;
  LineConn conn(port);
  if (!conn.ok()) return stats;
  std::string response;
  const auto start = std::chrono::steady_clock::now();
  for (const Request& request : mix) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!conn.round_trip(request.line, response)) break;
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ++stats.responses;
    stats.latency_us.push_back(us);
    if (request.certify) stats.certify_latency_us.push_back(us);
  }
  stats.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return stats;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double qps(const DriveStats& stats) {
  return stats.seconds > 0 ? static_cast<double>(stats.responses) /
                                 stats.seconds
                           : 0;
}

void print_phase(const char* name, const DriveStats& stats) {
  std::printf("%-14s | %8.0f qps | p50 %8.0f us | p99 %8.0f us | %4zu responses\n",
              name, qps(stats), percentile(stats.latency_us, 0.50),
              percentile(stats.latency_us, 0.99), stats.responses);
}

void print_table() {
  benchutil::header(
      "E19: standalone server round-trip throughput",
      "a warm-restarted server answers repeated analyses from the disk "
      "cache tier; hostile input costs error-path latency, never "
      "correctness or uptime");
  const std::size_t jobs = benchutil::quick() ? 120 : 600;
  const auto mix = make_mix(jobs);

  reset_cache_dir();
  DriveStats cold;
  {
    RunningServer server(server_config());
    cold = drive_serial(server.port(), mix);
    server.stop();  // persists the cache log + index
  }

  DriveStats warm;
  std::uint64_t disk_hits = 0;
  {
    RunningServer server(server_config());
    warm = drive_serial(server.port(), mix);
    disk_hits = server.server->disk_cache()->tier_stats().disk_hits;
    server.stop();
  }

  std::printf("%zu serial jobs, %zu distinct certify fingerprints (n=20 "
              "windows of the ascending bitonic sorter, each swept) + refute "
              "/ count-sorted / info\n\n",
              jobs, jobs / 2 + 1);
  print_phase("cold", cold);
  print_phase("warm-restart", warm);
  std::printf("warm restart served %llu disk hits\n",
              static_cast<unsigned long long>(disk_hits));

  const double cold_certify_p50 = percentile(cold.certify_latency_us, 0.50);
  const double warm_certify_p50 = percentile(warm.certify_latency_us, 0.50);
  const double certify_speedup =
      warm_certify_p50 > 0 ? cold_certify_p50 / warm_certify_p50 : 0;
  std::printf("certify p50: cold %.0f us -> warm restart %.0f us (%.1fx)\n",
              cold_certify_p50, warm_certify_p50, certify_speedup);

  benchutil::metric("cold_qps", qps(cold));
  benchutil::metric("warm_restart_qps", qps(warm));
  benchutil::metric("warm_restart_p50_speedup_certify", certify_speedup);

  if (!benchutil::quick()) {
    // ------------------------------------------------ hostile input --
    const auto hostile = make_hostile_mix(jobs);
    DriveStats abuse;
    DriveStats after;
    {
      RunningServer server(server_config());
      abuse = drive_serial(server.port(), hostile);
      // The server must still answer the normal mix afterwards.
      after = drive_serial(server.port(), mix);
      server.stop();
    }
    benchutil::rule();
    print_phase("hostile", abuse);
    print_phase("post-hostile", after);
    benchutil::metric("hostile_qps", qps(abuse));
  }

  benchutil::rule();
  std::printf(
      "shape check: every phase answers one response per request; the\n"
      "warm-restart certify p50 collapses to parse + fingerprint + disk\n"
      "read (>= ~5x under the cold compute), and the hostile mix ends\n"
      "with the server still serving the normal mix at full rate.\n");
}

void BM_ServerWarmCertifyRoundTrip(benchmark::State& state) {
  const std::string sorter32 = to_text(bitonic_sorting_network(32));
  RunningServer server(server_config());
  LineConn conn(server.port());
  std::string response;
  std::size_t index = 0;
  for (auto _ : state) {
    if (!conn.round_trip(job_line("certify", sorter32, index++), response))
      state.SkipWithError("round trip failed");
    benchmark::DoNotOptimize(response);
  }
  server.stop();
}
BENCHMARK(BM_ServerWarmCertifyRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace shufflebound

SHUFFLEBOUND_BENCH_MAIN(shufflebound::print_table)
