#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/obs.hpp"
#include "service/job.hpp"

namespace shufflebound {
namespace {

constexpr std::uint32_t kTagConnShift = 32;

std::uint64_t pack_tag(std::uint32_t conn_id, std::uint32_t ticket) noexcept {
  return (static_cast<std::uint64_t>(conn_id) << kTagConnShift) | ticket;
}

/// Inline rejection line, mirroring JobResult::to_json_line's field order
/// plus a machine-readable "code" clients key their backoff on.
std::string error_line(const std::string& id, const std::string& op,
                       const std::string& code, const std::string& detail) {
  JsonValue out = JsonValue::object();
  out.set("id", id);
  out.set("op", op);
  out.set("ok", false);
  out.set("error", code + ": " + detail);
  out.set("code", code);
  return out.dump();
}

void set_send_timeout(int fd, std::uint64_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// Wake-pipe write end the SIGTERM/SIGINT handler targets. Installed once
// per process; -1 until install_sigterm_wake_pipe succeeds.
std::atomic<int> g_wake_write_fd{-1};

extern "C" void sigterm_wake_handler(int) {
  const int fd = g_wake_write_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    // Async-signal-safe; a full pipe already means a pending wakeup.
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

}  // namespace

int install_sigterm_wake_pipe() {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
  g_wake_write_fd.store(fds[1], std::memory_order_relaxed);
  struct sigaction action {};
  action.sa_handler = sigterm_wake_handler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  return fds[0];
}

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (!config_.cache_dir.empty()) {
    DiskCacheConfig cache_config;
    cache_config.directory = config_.cache_dir;
    cache_config.max_bytes = config_.cache_max_bytes;
    disk_cache_ = std::make_shared<DiskBackedCache>(cache_config);
  }
  EngineConfig engine_config;
  engine_config.workers = config_.workers;
  engine_config.queue_capacity = config_.queue_capacity;
  engine_config.default_timeout_ms = config_.default_timeout_ms;
  engine_config.cache = disk_cache_;
  engine_ = std::make_unique<AnalysisEngine>(
      engine_config, [this](const JobResult& result) { route_result(result); });
  if (::pipe(shutdown_pipe_) != 0)
    throw std::runtime_error("server: cannot create shutdown pipe");
  ::fcntl(shutdown_pipe_[1], F_SETFL, O_NONBLOCK);
}

Server::~Server() {
  // Normal lifecycle is run()-to-completion; this is the abnormal path
  // (listen() threw, or the server object is dropped without serving).
  draining_.store(true, std::memory_order_relaxed);
  force_close_connections();
  reap_connections(/*join_all=*/true);
  engine_.reset();  // joins workers; routes any stragglers to dead conns
  reap_connections(/*join_all=*/true);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const int fd : shutdown_pipe_)
    if (fd >= 0) ::close(fd);
  if (disk_cache_) disk_cache_->save_index();
}

void Server::listen() {
  if (listen_fd_ >= 0) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("server: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("server: bad host " + config_.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("server: cannot bind " + config_.host + ":" +
                             std::to_string(config_.port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("server: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  listen_fd_ = fd;
  bound_port_ = ntohs(bound.sin_port);

  if (!config_.port_file.empty()) {
    // tmp+rename so a polling script never reads a half-written port.
    const std::string tmp = config_.port_file + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    out << bound_port_ << "\n";
    out.close();
    if (std::rename(tmp.c_str(), config_.port_file.c_str()) != 0)
      std::remove(tmp.c_str());
  }
}

void Server::request_shutdown() noexcept {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(shutdown_pipe_[1], &byte, 1);
}

int Server::run() {
  listen();
  SB_OBS_GAUGE("server.draining", 0);

  std::vector<pollfd> fds;
  fds.push_back({listen_fd_, POLLIN, 0});
  fds.push_back({shutdown_pipe_[0], POLLIN, 0});
  if (config_.wake_fd >= 0) fds.push_back({config_.wake_fd, POLLIN, 0});

  bool drain = false;
  while (!drain) {
    for (pollfd& p : fds) p.revents = 0;
    const int ready = ::poll(fds.data(), fds.size(), 500);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) accept_connection();
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) != 0) drain = true;
    }
    reap_connections(/*join_all=*/false);
  }

  begin_drain();
  return 0;
}

void Server::accept_connection() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  set_send_timeout(fd, config_.write_stall_ms);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  {
    std::scoped_lock lock(conn_mutex_);
    conn->id = next_conn_id_++;
    conns_.emplace(conn->id, conn);
  }
  conns_accepted_.add(1);
  conn->reader = std::thread([this, conn] { reader_loop(conn); });
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  SB_OBS_SPAN("server", "connection");
  std::string buffer;
  std::size_t scanned = 0;  // buffer[0, scanned) holds no '\n'
  bool discarding = false;  // dropping an over-long line through its '\n'
  std::uint64_t line_number = 0;
  const auto ticket = [&line_number] {
    return static_cast<std::uint32_t>(line_number - 1);
  };
  // An over-long line is answered once, under its own ticket, and never
  // parsed; the connection keeps serving the lines after it.
  const auto reject_too_large = [&] {
    ++line_number;
    requests_.add(1);
    deliver(conn, ticket(),
            error_line("line-" + std::to_string(line_number), "invalid",
                       "too_large",
                       "request line exceeds " +
                           std::to_string(kMaxLineBytes) + " bytes"),
            /*engine_result=*/false);
  };
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR)) continue;
      break;  // EOF, SHUT_RD during drain, or a dead peer
    }
    std::string_view data(chunk, static_cast<std::size_t>(n));
    if (discarding) {
      const std::size_t nl = data.find('\n');
      if (nl == std::string_view::npos) continue;
      data.remove_prefix(nl + 1);
      discarding = false;
    }
    buffer.append(data);
    // Each received byte is searched once, so a long line arriving in
    // many small reads costs linear time, not quadratic.
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', scanned); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      if (nl - start > kMaxLineBytes) {
        start = nl + 1;
        reject_too_large();
        continue;
      }
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      start = nl + 1;
      if (line.empty()) continue;
      ++line_number;
      handle_line(conn, line, line_number, ticket());
    }
    buffer.erase(0, start);
    scanned = buffer.size();
    if (buffer.size() > kMaxLineBytes) {
      // Over the cap before its newline arrived: answer it now and drop
      // the rest of it as it comes, so the buffer stays bounded.
      reject_too_large();
      buffer.clear();
      scanned = 0;
      discarding = true;
    }
  }
  if (!buffer.empty()) {
    // Final unterminated line counts, as in batch mode.
    ++line_number;
    handle_line(conn, buffer, line_number, ticket());
  }
  std::scoped_lock lock(conn->mutex);
  conn->reader_done = true;
  if (conn->inflight == 0 && conn->pending.empty() && !conn->closed) {
    ::close(conn->fd);
    conn->closed = true;
  }
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line, std::uint64_t line_number,
                         std::uint32_t ticket) {
  requests_.add(1);
  SB_OBS_SPAN("server", "request");
  // One JSON parse per line: the server-answered ops, the rejection
  // lines and the job spec all read this document.
  JobLine parsed(line);
  const std::string id = parsed.id(line_number);
  const std::string op = parsed.op();

  if (op == "stats" || op == "shutdown") {
    JsonValue result = op == "stats" ? stats_json() : JsonValue::object();
    if (op == "shutdown") result.set("draining", true);
    JsonValue out = JsonValue::object();
    out.set("id", id);
    out.set("op", op);
    out.set("ok", true);
    out.set("result", std::move(result));
    deliver(conn, ticket, out.dump(), /*engine_result=*/false);
    if (op == "shutdown") request_shutdown();
    return;
  }

  const std::string reject_op = op.empty() ? "invalid" : op;
  if (draining_.load(std::memory_order_relaxed)) {
    rejected_draining_.add(1);
    deliver(conn, ticket,
            error_line(id, reject_op, "draining", "server is shutting down"),
            /*engine_result=*/false);
    return;
  }

  // Per-connection in-flight cap: reserve a slot before touching the
  // queue so one chatty client cannot own the whole engine. The rejection
  // is delivered outside the lock - deliver() takes conn->mutex itself.
  bool over_cap = false;
  bool idle = false;
  {
    std::scoped_lock lock(conn->mutex);
    if (conn->inflight >= config_.max_inflight_per_conn) {
      over_cap = true;
    } else {
      idle = conn->inflight == 0;
      ++conn->inflight;
    }
  }
  if (over_cap) {
    overloaded_.add(1);
    deliver(conn, ticket,
            error_line(id, reject_op, "overloaded",
                       "connection in-flight limit reached"),
            /*engine_result=*/false);
    return;
  }

  ProbedJob job{job_from_json(std::move(parsed), line_number)};
  job.spec.client_tag = pack_tag(conn->id, ticket);
  // With nothing in flight on this connection the probe step runs here:
  // a cache hit, invalid spec or unparseable network is written at once,
  // with no seq, queue slot or wait behind other connections' jobs.
  // Behind an in-flight job the request queues unprobed, so the reorder
  // buffer never holds more responses than the in-flight cap.
  if (idle && engine_->probe(job)) {
    deliver(conn, ticket, job.result->to_json_line(), /*engine_result=*/true);
    return;
  }
  const AnalysisEngine::Admission admission = engine_->try_submit_for(
      std::move(job), std::chrono::milliseconds(config_.admission_wait_ms));
  if (admission == AnalysisEngine::Admission::Accepted) return;

  {
    std::scoped_lock lock(conn->mutex);
    --conn->inflight;  // the reserved slot was never used
  }
  if (admission == AnalysisEngine::Admission::QueueFull) {
    overloaded_.add(1);
    deliver(conn, ticket,
            error_line(id, reject_op, "overloaded", "engine queue saturated"),
            /*engine_result=*/false);
  } else {
    rejected_draining_.add(1);
    deliver(conn, ticket,
            error_line(id, reject_op, "draining", "server is shutting down"),
            /*engine_result=*/false);
  }
}

void Server::route_result(const JobResult& result) {
  const auto conn_id = static_cast<std::uint32_t>(result.client_tag >> kTagConnShift);
  const auto ticket = static_cast<std::uint32_t>(result.client_tag);
  std::shared_ptr<Connection> conn;
  {
    std::scoped_lock lock(conn_mutex_);
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;  // connection already reaped
    conn = it->second;
  }
  deliver(conn, ticket, result.to_json_line(), /*engine_result=*/true);
}

void Server::deliver(const std::shared_ptr<Connection>& conn,
                     std::uint32_t ticket, std::string line,
                     bool engine_result) {
  std::scoped_lock lock(conn->mutex);
  if (engine_result && conn->inflight > 0) --conn->inflight;
  conn->pending.emplace(ticket, std::move(line));
  // Flush the in-order prefix; later tickets wait for the earlier ones.
  auto it = conn->pending.begin();
  while (it != conn->pending.end() && it->first == conn->next_write) {
    if (!conn->dead && !conn->closed) {
      std::string out = it->second;
      out.push_back('\n');
      if (!write_all(*conn, out.data(), out.size())) conn->dead = true;
    }
    ++conn->next_write;
    it = conn->pending.erase(it);
  }
  if (conn->reader_done && conn->inflight == 0 && conn->pending.empty() &&
      !conn->closed) {
    ::close(conn->fd);
    conn->closed = true;
  }
}

bool Server::write_all(Connection& conn, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(conn.fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN here is the SO_SNDTIMEO stall budget expiring: the client
    // has not drained its socket for write_stall_ms - declare it dead
    // rather than let one stuck peer block every connection's results.
    return false;
  }
  return true;
}

JsonValue Server::stats_json() {
  JsonValue out = engine_->telemetry_to_json();
  JsonValue server = JsonValue::object();
  {
    std::scoped_lock lock(conn_mutex_);
    server.set("connections", conns_.size());
  }
  server.set("conns_accepted", conns_accepted_.value());
  server.set("requests", requests_.value());
  server.set("overloaded", overloaded_.value());
  server.set("rejected_draining", rejected_draining_.value());
  server.set("draining", draining_.load(std::memory_order_relaxed));
  out.set("server", std::move(server));
  return out;
}

void Server::begin_drain() {
  draining_.store(true, std::memory_order_relaxed);
  SB_OBS_GAUGE("server.draining", 1);
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Half-close every connection: readers see EOF once the already-buffered
  // requests are consumed, so nothing accepted is lost and nothing new
  // gets in (buffered lines that miss the engine get `draining` lines).
  {
    std::scoped_lock lock(conn_mutex_);
    for (const auto& [id, conn] : conns_) {
      std::scoped_lock conn_lock(conn->mutex);
      if (!conn->closed) ::shutdown(conn->fd, SHUT_RD);
    }
  }

  // The drain deadline bounds waiting on stuck clients, not on compute:
  // past it, sockets are force-closed so pending writes fail fast. Job
  // compute is bounded separately by the engine's cooperative timeouts.
  std::mutex watchdog_mutex;
  std::condition_variable watchdog_cv;
  bool drained = false;
  std::thread watchdog([&] {
    std::unique_lock lock(watchdog_mutex);
    if (!watchdog_cv.wait_for(
            lock, std::chrono::milliseconds(config_.drain_deadline_ms),
            [&] { return drained; })) {
      force_close_connections();
    }
  });

  reap_connections(/*join_all=*/true);  // readers exit on EOF
  engine_->finish();                    // flushes every accepted job's result
  {
    std::scoped_lock lock(watchdog_mutex);
    drained = true;
  }
  watchdog_cv.notify_all();
  watchdog.join();
  force_close_connections();
  reap_connections(/*join_all=*/true);
  if (disk_cache_) disk_cache_->save_index();
  SB_OBS_GAUGE("server.draining", 0);
}

void Server::force_close_connections() {
  std::scoped_lock lock(conn_mutex_);
  for (const auto& [id, conn] : conns_) {
    std::scoped_lock conn_lock(conn->mutex);
    if (!conn->closed) {
      conn->dead = true;
      ::close(conn->fd);
      conn->closed = true;
    }
  }
}

void Server::reap_connections(bool join_all) {
  std::vector<std::shared_ptr<Connection>> finished;
  {
    std::scoped_lock lock(conn_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      const std::shared_ptr<Connection>& conn = it->second;
      bool done;
      {
        std::scoped_lock conn_lock(conn->mutex);
        done = conn->reader_done && conn->inflight == 0 &&
               conn->pending.empty();
      }
      if (done || join_all) {
        if (done) {
          finished.push_back(conn);
          it = conns_.erase(it);
          continue;
        }
        // join_all && !done: join the reader (blocked readers were
        // unblocked by SHUT_RD / close) but keep the entry so in-flight
        // results can still be routed and delivered.
        if (conn->reader.joinable()) conn->reader.join();
      }
      ++it;
    }
  }
  // Join outside conn_mutex_ - the reader may be inside route_result.
  for (const std::shared_ptr<Connection>& conn : finished) {
    if (conn->reader.joinable()) conn->reader.join();
    std::scoped_lock conn_lock(conn->mutex);
    if (!conn->closed) {
      ::close(conn->fd);
      conn->closed = true;
    }
  }
}

}  // namespace shufflebound
