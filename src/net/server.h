// AigsServer — the epoll-based TCP front end that puts an Engine on the
// network. One acceptor thread distributes connections round-robin across
// N worker event loops; each worker owns its connections outright (their
// fds, read/write buffers, and idle clocks), so no per-request lock is
// shared between workers — the Engine's own thread safety is the only
// synchronization on the hot path. A worker polls its epoll set for a
// short adaptive window before it parks (server.cc), so back-to-back
// requests on a busy worker skip the sleep and the wake-up.
//
// Protocol: aigs-wire/1 (net/wire.h), one request frame in, one response
// frame out, pipelining allowed (a client may send several requests before
// reading). Malformed frames that can still be attributed to a request
// (valid framing, bad payload) get an error response; corrupt framing
// (CRC mismatch, absurd length) closes the connection — frame boundaries
// are length-derived, so there is nothing to resynchronize on.
//
// Shutdown: Stop() wakes every loop, closes all connections, joins the
// threads, and then flushes the durable store (the PR-7 SIGTERM seam) —
// an orderly stop loses nothing even under fsync=interval.
#ifndef AIGS_NET_SERVER_H_
#define AIGS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/net_util.h"
#include "net/wire.h"
#include "service/engine.h"
#include "util/status.h"

namespace aigs::net {

struct ServerOptions {
  /// Bind address; port 0 picks an ephemeral port (read it back via
  /// port() — the tests' and bench's no-collision loopback setup).
  Endpoint listen{"127.0.0.1", 0};
  /// Worker event loops. 0 = min(4, hardware_concurrency).
  std::size_t workers = 0;
  /// Connections idle longer than this are closed (0 = never). Idle scans
  /// piggyback on the epoll timeout, so enforcement granularity is
  /// ~idle_timeout_ms/2.
  std::uint32_t idle_timeout_ms = 60'000;
  /// Per-frame payload cap handed to ExtractFrame.
  std::size_t max_payload = kMaxFramePayload;
  int backlog = 128;
};

/// Maps one decoded request onto the Engine's session API and packages the
/// result (or its Status) as the response. Shared by the server's workers
/// and the in-process transcript-equivalence checks in the network bench.
WireResponse HandleRequest(Engine& engine, const WireRequest& request);

class AigsServer {
 public:
  /// The engine must outlive the server.
  AigsServer(Engine& engine, ServerOptions options);
  ~AigsServer();

  AigsServer(const AigsServer&) = delete;
  AigsServer& operator=(const AigsServer&) = delete;

  /// Binds, listens, and starts the acceptor + worker threads. Once OK the
  /// server is reachable on port().
  Status Start();

  /// Graceful shutdown (idempotent): stop accepting, close every
  /// connection, join all threads, flush the durable store.
  void Stop();

  /// The bound port (resolves ephemeral binds); 0 before Start().
  std::uint16_t port() const { return port_; }
  Endpoint endpoint() const { return {options_.listen.host, port_}; }

  /// Connections accepted over the server's lifetime / open right now.
  std::uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_open() const {
    return open_.load(std::memory_order_relaxed);
  }

  /// Poll-window counters, summed over the workers since Start() (read
  /// them while the server runs, not concurrently with Start/Stop): waits
  /// whose events arrived while the worker was still polling, waits that
  /// parked in a blocking epoll_wait, and total time spent polling.
  std::uint64_t polled_waits() const;
  std::uint64_t parked_waits() const;
  std::uint64_t poll_ns() const;

 private:
  struct Connection;
  struct Worker;

  void AcceptLoop();
  void WorkerLoop(Worker& worker);
  /// Drains the connection's read buffer of complete frames: dispatch,
  /// respond, or (on corrupt framing) mark the connection for close.
  void ServeConnection(Worker& worker, int fd, Connection& conn);
  /// Sends as much of the write buffer as the socket accepts, keeping
  /// EPOLLOUT armed exactly while bytes are pending. False means the
  /// connection died (or finished a condemned flush) and was closed.
  bool Flush(Worker& worker, int fd, Connection& conn);
  void CloseConnection(Worker& worker, int fd);
  std::uint64_t SumOverWorkers(
      std::atomic<std::uint64_t> Worker::*counter) const;

  Engine& engine_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;
  // Created by Start() on the caller, so the acceptor thread needs no fd of
  // its own: it may first run after the process has hit its fd limit.
  int accept_epoll_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  bool started_ = false;

  std::thread acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> open_{0};
};

}  // namespace aigs::net

#endif  // AIGS_NET_SERVER_H_
