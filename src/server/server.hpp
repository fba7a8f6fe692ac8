// The standalone analysis server: a long-lived TCP front end that
// multiplexes many concurrent JSONL clients onto one AnalysisEngine.
//
// Protocol - the batch wire format, newline-delimited, request/response:
// every request line produces exactly one response line, and responses
// come back in request order per connection. Job lines are exactly those
// of `shufflebound_cli batch` (src/service/job.hpp); two server-side ops
// are added:
//
//   {"op":"stats"}      -> engine telemetry + cache tiers + server state
//   {"op":"shutdown"}   -> acks, then drains the whole server (as SIGTERM)
//
// Shape:
//
//   accept loop (poll: listener + wake pipe)
//     -> reader thread per connection -- line cap, parse (one JSON parse
//        per line), admission-check
//          -> idle connection: the engine's probe step, on the reader
//             -- hit / invalid / unparseable: answered here
//          -> submit (a probed miss carries its parse and key)
//               -> AnalysisEngine (shared; results leave as jobs finish)
//               -> shared result sink -- route by JobSpec::client_tag
//     -> per-connection ticket reorder buffer -> socket write
//
//   `stats` <-- the engine's telemetry document (its disk-backed cache
//        adds the tier counters under cache.disk) + the server's own
//        obs counters (connections, requests, rejections)
//
// Hit path. When a connection has nothing in flight, its reader thread
// runs AnalysisEngine::probe itself: spec check, network parse, cache
// key, lookup and (for refute) the witness replay - the same step a
// worker runs. A cache hit, invalid spec or unparseable network is
// delivered at once under its ticket: it consumes no engine seq, no
// queue slot and no worker wake-up. (A queued job does not wait behind
// another connection's slow job either: the engine keeps no global
// order and hands each result over as its job finishes.) A miss is
// submitted with its parsed network and key, so nothing is parsed or
// probed twice. Behind an in-flight job a request queues unprobed, so
// the reorder buffer never holds more than max_inflight_per_conn
// responses.
//
// Line cap. A request line longer than kMaxLineBytes is answered with one
// `too_large` error under its ticket and discarded through its newline,
// without being parsed; the connection keeps serving.
//
// Ordering. The reader assigns each request line a per-connection ticket
// (0,1,2,...) and packs (connection id, ticket) into the job's
// client_tag. Every response - engine result, inline `overloaded` or
// `draining` rejection, stats, shutdown ack - enters the connection's
// reorder buffer under its ticket and is written strictly in ticket
// order, so per-connection ordering holds even though the engine
// finishes jobs from all connections in whatever order they complete.
//
// Admission control. The engine's BoundedQueue is the backpressure
// signal: submits use try_submit_for with a bounded wait, and a queue
// that stays saturated for the whole window yields a structured
// `overloaded` error response (the client's cue to back off) instead of
// blocking the reader. A per-connection in-flight cap bounds how much of
// the queue one client can own; past it the connection gets `overloaded`
// without touching the queue at all.
//
// Drain. SIGTERM (via the wake pipe - install_sigterm_wake_pipe installs
// an async-signal-safe one-byte-write handler) or a `shutdown` op stops
// the accept loop, half-closes every connection for reading (new requests
// get EOF), flushes all in-flight jobs through the engine, writes their
// responses, and returns from run() - exit 0, no lost responses. The
// drain deadline bounds waiting on stuck clients: past it, sockets are
// force-closed and remaining writes discarded (job compute itself is
// bounded by the engine's cooperative timeouts).
//
// A dead client never stalls the server: sockets are written with a
// bounded poll, and a connection whose writes time out or fail is marked
// dead and its remaining responses discarded.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "server/diskcache.hpp"
#include "service/engine.hpp"

namespace shufflebound {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        // 0 = ephemeral (see Server::bound_port)
  std::size_t workers = 0;       // 0 = hardware concurrency
  std::size_t queue_capacity = 64;
  std::uint64_t default_timeout_ms = 0;
  /// Directory for the persistent cache tier; empty = memory-only.
  std::string cache_dir;
  std::uint64_t cache_max_bytes = 256ull << 20;
  /// Requests a connection may have in the engine at once; more get an
  /// inline `overloaded` response.
  std::uint32_t max_inflight_per_conn = 64;
  /// How long a submit may wait for queue space before `overloaded`.
  std::uint64_t admission_wait_ms = 100;
  /// Drain budget for flushing responses to slow clients.
  std::uint64_t drain_deadline_ms = 10000;
  /// Socket-write stall budget before a connection is declared dead.
  std::uint64_t write_stall_ms = 10000;
  /// If set, the bound port is written here once listening (atomically,
  /// tmp+rename) - how scripts find an ephemeral port.
  std::string port_file;
  /// Read end of a wake pipe: one readable byte triggers drain. -1 = none.
  int wake_fd = -1;
};

class Server {
 public:
  /// Longest request line accepted, in bytes before its newline. A longer
  /// line gets one `too_large` error response and is discarded through
  /// its newline; the connection keeps serving.
  static constexpr std::size_t kMaxLineBytes = std::size_t{64} << 20;

  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens; throws std::runtime_error on socket failure.
  /// Separate from run() so tests can learn the port before serving.
  void listen();

  /// Serves until drain completes (SIGTERM via wake_fd, `shutdown` op, or
  /// request_shutdown()). Returns 0 on clean drain. Calls listen() if it
  /// has not been called.
  int run();

  /// The actual port (after listen(); meaningful with config port 0).
  std::uint16_t bound_port() const noexcept { return bound_port_; }

  /// Thread-safe, idempotent drain trigger (what the `shutdown` op uses).
  void request_shutdown() noexcept;

  bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  /// The disk tier, when cache_dir is configured (tests inspect stats).
  const DiskBackedCache* disk_cache() const noexcept { return disk_cache_.get(); }

  const AnalysisEngine& engine() const noexcept { return *engine_; }
  /// Mutable access lets tests seed or poison the memory cache tier.
  AnalysisEngine& engine() noexcept { return *engine_; }

 private:
  struct Connection {
    std::uint32_t id = 0;
    int fd = -1;
    std::thread reader;
    std::mutex mutex;  // guards everything below
    std::map<std::uint32_t, std::string> pending;  // ticket -> response line
    std::uint32_t next_write = 0;   // next ticket to flush
    std::uint32_t inflight = 0;     // jobs currently in the engine
    bool reader_done = false;
    bool dead = false;              // write failed / stalled / force-closed
    bool closed = false;            // fd has been closed
  };

  void reader_loop(const std::shared_ptr<Connection>& conn);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line, std::uint64_t line_number,
                   std::uint32_t ticket);
  /// Queues `line` under `ticket` and flushes the in-order prefix.
  void deliver(const std::shared_ptr<Connection>& conn, std::uint32_t ticket,
               std::string line, bool engine_result);
  void route_result(const JobResult& result);
  JsonValue stats_json();
  void accept_connection();
  void reap_connections(bool join_all);
  void begin_drain();
  void force_close_connections();
  /// write() with a bounded poll; false = connection is dead.
  bool write_all(Connection& conn, const char* data, std::size_t size);

  ServerConfig config_;
  std::shared_ptr<DiskBackedCache> disk_cache_;
  std::unique_ptr<AnalysisEngine> engine_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  int shutdown_pipe_[2] = {-1, -1};  // internal wake for request_shutdown

  std::mutex conn_mutex_;  // guards conns_ and next_conn_id_
  std::map<std::uint32_t, std::shared_ptr<Connection>> conns_;
  std::uint32_t next_conn_id_ = 1;

  std::atomic<bool> draining_{false};
  obs::Counter conns_accepted_{"server.conns_accepted"};
  obs::Counter requests_{"server.requests"};
  obs::Counter overloaded_{"server.overloaded"};
  obs::Counter rejected_draining_;
};

/// Creates a self-pipe and installs a SIGTERM (and SIGINT) handler that
/// writes one byte to it - async-signal-safe. Returns the read end to put
/// in ServerConfig::wake_fd, or -1 on failure.
int install_sigterm_wake_pipe();

}  // namespace shufflebound
