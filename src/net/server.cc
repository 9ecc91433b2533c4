#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace aigs::net {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::nanoseconds;
using namespace std::chrono_literals;

}  // namespace

/// One accepted connection, owned by exactly one worker.
struct AigsServer::Connection {
  std::string read_buffer;
  std::string write_buffer;
  Clock::time_point last_active = Clock::now();
  /// Whether EPOLLOUT is armed (a previous flush left bytes pending).
  bool want_write = false;
  /// Set when corrupt framing (or a write error) condemns the connection;
  /// pending response bytes are still flushed best-effort first.
  bool close_after_flush = false;
};

/// One worker event loop: an epoll set, a wake eventfd, a handoff queue of
/// freshly accepted fds, the connections it owns, and its poll counters.
struct AigsServer::Worker {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::mutex mutex;               // guards pending only
  std::vector<int> pending;       // fds handed off by the acceptor
  std::unordered_map<int, Connection> connections;
  std::atomic<std::uint64_t> polled_waits{0};
  std::atomic<std::uint64_t> parked_waits{0};
  std::atomic<std::uint64_t> poll_ns{0};
};

WireResponse HandleRequest(Engine& engine, const WireRequest& request) {
  WireResponse response;
  response.op = request.op;
  Status status = Status::OK();
  switch (request.op) {
    case WireOp::kOpen: {
      auto id = engine.Open(request.text, request.id);
      if (id.ok()) {
        response.id = *id;
      }
      status = id.status();
      break;
    }
    case WireOp::kAsk: {
      auto query = engine.Ask(request.id);
      if (query.ok()) {
        response.query = *query;
      }
      status = query.status();
      break;
    }
    case WireOp::kAnswer:
      status = engine.Answer(request.id, request.answer);
      break;
    case WireOp::kSave: {
      auto blob = engine.Save(request.id);
      if (blob.ok()) {
        response.text = *std::move(blob);
      }
      status = blob.status();
      break;
    }
    case WireOp::kResume: {
      auto id = engine.Resume(request.text, request.id);
      if (id.ok()) {
        response.id = *id;
      }
      status = id.status();
      break;
    }
    case WireOp::kMigrate: {
      // Empty blob = migrate the live session `id` in place; a blob
      // migrates saved state under the proposed id.
      auto result = request.text.empty()
                        ? engine.Migrate(request.id)
                        : engine.Migrate(request.text, request.id);
      if (result.ok()) {
        response.migrate = *result;
        response.id = result->id;
      }
      status = result.status();
      break;
    }
    case WireOp::kClose:
      status = engine.Close(request.id);
      break;
    case WireOp::kStats: {
      const EngineStats stats = engine.Stats();
      response.stats.epoch = stats.epoch;
      response.stats.live_sessions = stats.live_sessions;
      response.stats.ops = stats.ops;
      break;
    }
  }
  if (!status.ok()) {
    return ErrorResponse(request.op, status);
  }
  return response;
}

AigsServer::AigsServer(Engine& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

AigsServer::~AigsServer() { Stop(); }

Status AigsServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  IgnoreSigpipe();
  std::size_t workers = options_.workers;
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = std::min<std::size_t>(4, hw == 0 ? 1 : hw);
  }

  AIGS_ASSIGN_OR_RETURN(
      listen_fd_, ListenTcp(options_.listen, options_.backlog, &port_));
  AIGS_RETURN_NOT_OK(SetNonBlocking(listen_fd_));
  accept_wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  accept_epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (accept_wake_fd_ < 0 || accept_epoll_fd_ < 0) {
    const Status status = Status::IOError(std::string("acceptor setup: ") +
                                          std::strerror(errno));
    CloseFd(listen_fd_);
    CloseFd(accept_wake_fd_);
    CloseFd(accept_epoll_fd_);
    listen_fd_ = accept_wake_fd_ = accept_epoll_fd_ = -1;
    return status;
  }
  epoll_event accept_event{};
  accept_event.events = EPOLLIN;
  accept_event.data.fd = listen_fd_;
  (void)::epoll_ctl(accept_epoll_fd_, EPOLL_CTL_ADD, listen_fd_,
                    &accept_event);
  accept_event.data.fd = accept_wake_fd_;
  (void)::epoll_ctl(accept_epoll_fd_, EPOLL_CTL_ADD, accept_wake_fd_,
                    &accept_event);

  running_.store(true, std::memory_order_release);
  started_ = true;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    worker->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (worker->epoll_fd < 0 || worker->wake_fd < 0) {
      const Status status =
          Status::IOError(std::string("worker setup: ") +
                          std::strerror(errno));
      CloseFd(worker->epoll_fd);
      CloseFd(worker->wake_fd);
      Stop();
      return status;
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = worker->wake_fd;
    (void)::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd,
                      &event);
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(*w); });
    workers_.push_back(std::move(worker));
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void AigsServer::Stop() {
  if (!started_) {
    return;
  }
  running_.store(false, std::memory_order_release);
  const std::uint64_t one = 1;
  if (accept_wake_fd_ >= 0) {
    (void)!::write(accept_wake_fd_, &one, sizeof(one));
  }
  for (const auto& worker : workers_) {
    if (worker->wake_fd >= 0) {
      (void)!::write(worker->wake_fd, &one, sizeof(one));
    }
  }
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
    for (auto& [fd, conn] : worker->connections) {
      CloseFd(fd);
    }
    worker->connections.clear();
    CloseFd(worker->epoll_fd);
    CloseFd(worker->wake_fd);
  }
  workers_.clear();
  CloseFd(listen_fd_);
  CloseFd(accept_wake_fd_);
  CloseFd(accept_epoll_fd_);
  listen_fd_ = -1;
  accept_wake_fd_ = -1;
  accept_epoll_fd_ = -1;
  started_ = false;
  open_.store(0, std::memory_order_relaxed);
  // The PR-7 graceful-shutdown seam: an orderly stop leaves every acked
  // answer on disk regardless of the fsync policy.
  if (engine_.durable()) {
    (void)engine_.FlushDurable();
  }
}

std::uint64_t AigsServer::SumOverWorkers(
    std::atomic<std::uint64_t> Worker::*counter) const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += ((*worker).*counter).load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t AigsServer::polled_waits() const {
  return SumOverWorkers(&Worker::polled_waits);
}
std::uint64_t AigsServer::parked_waits() const {
  return SumOverWorkers(&Worker::parked_waits);
}
std::uint64_t AigsServer::poll_ns() const {
  return SumOverWorkers(&Worker::poll_ns);
}

void AigsServer::AcceptLoop() {
  std::size_t next_worker = 0;
  while (running_.load(std::memory_order_acquire)) {
    epoll_event events[16];
    const int n = ::epoll_wait(accept_epoll_fd_, events, 16, 500);
    if (n < 0 && errno != EINTR) {
      break;
    }
    bool exhausted = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd != listen_fd_) {
        continue;  // wake fd — the loop condition re-checks running_
      }
      for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          // EAGAIN (drained) or a transient error — epoll re-arms. Out of
          // fds or kernel memory, though, accept4 fails again at once.
          exhausted = errno == EMFILE || errno == ENFILE ||
                      errno == ENOBUFS || errno == ENOMEM;
          break;
        }
        (void)SetNoDelay(fd);
        accepted_.fetch_add(1, std::memory_order_relaxed);
        open_.fetch_add(1, std::memory_order_relaxed);
        Worker& worker = *workers_[next_worker];
        next_worker = (next_worker + 1) % workers_.size();
        {
          std::lock_guard<std::mutex> lock(worker.mutex);
          worker.pending.push_back(fd);
        }
        const std::uint64_t one = 1;
        (void)!::write(worker.wake_fd, &one, sizeof(one));
      }
    }
    if (exhausted) {
      // The refused connection stays queued, so the level-triggered listen
      // socket stays readable: back off rather than spin until fds free up.
      std::this_thread::sleep_for(10ms);
    }
  }
}

void AigsServer::WorkerLoop(Worker& worker) {
  const std::uint32_t idle_ms = options_.idle_timeout_ms;
  const int wait_ms =
      idle_ms == 0 ? 500 : static_cast<int>(std::min<std::uint32_t>(
                               500, std::max<std::uint32_t>(idle_ms / 2, 1)));
  auto last_idle_scan = Clock::now();
  nanoseconds poll_window = 0ns;

  while (running_.load(std::memory_order_acquire)) {
    epoll_event events[64];
    int n = 0;
    const PollWait wait = PollThenPark(
        &poll_window,
        [&] {
          n = ::epoll_wait(worker.epoll_fd, events, 64, 0);
          return n > 0;
        },
        [&] { n = ::epoll_wait(worker.epoll_fd, events, 64, wait_ms); });
    worker.poll_ns.fetch_add(static_cast<std::uint64_t>(wait.poll_time.count()),
                             std::memory_order_relaxed);
    (wait.polled ? worker.polled_waits : worker.parked_waits)
        .fetch_add(1, std::memory_order_relaxed);
    if (n < 0 && errno != EINTR) {
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == worker.wake_fd) {
        std::uint64_t drained = 0;
        (void)!::read(worker.wake_fd, &drained, sizeof(drained));
        std::vector<int> fresh;
        {
          std::lock_guard<std::mutex> lock(worker.mutex);
          fresh.swap(worker.pending);
        }
        for (const int new_fd : fresh) {
          epoll_event event{};
          event.events = EPOLLIN;
          event.data.fd = new_fd;
          if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, new_fd, &event) !=
              0) {
            CloseFd(new_fd);
            open_.fetch_sub(1, std::memory_order_relaxed);
            continue;
          }
          worker.connections.emplace(new_fd, Connection{});
        }
        continue;
      }
      auto it = worker.connections.find(fd);
      if (it == worker.connections.end()) {
        continue;
      }
      Connection& conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(worker, fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!Flush(worker, fd, conn)) {
          continue;
        }
      }
      if ((events[i].events & EPOLLIN) != 0) {
        conn.last_active = wait.woke;
        bool closed = false;
        char buffer[16384];
        for (;;) {
          const ssize_t r = ::recv(fd, buffer, sizeof(buffer), 0);
          if (r > 0) {
            conn.read_buffer.append(buffer, static_cast<std::size_t>(r));
            // A short read emptied the socket: the set is level-triggered,
            // so later bytes (or EOF) show on the next wait, and a second
            // recv that only fails with EAGAIN would cost a syscall per
            // request.
            if (static_cast<std::size_t>(r) < sizeof(buffer)) {
              break;
            }
            continue;
          }
          if (r == 0) {
            closed = true;  // orderly EOF — mid-frame leftovers just drop
            break;
          }
          if (errno == EINTR) {
            continue;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            break;
          }
          closed = true;
          break;
        }
        if (closed) {
          CloseConnection(worker, fd);
          continue;
        }
        ServeConnection(worker, fd, conn);
      }
    }
    if (idle_ms != 0) {
      const auto now = Clock::now();
      if (now - last_idle_scan >= std::chrono::milliseconds(wait_ms)) {
        last_idle_scan = now;
        const auto deadline = now - std::chrono::milliseconds(idle_ms);
        std::vector<int> stale;
        for (const auto& [fd, conn] : worker.connections) {
          if (conn.last_active < deadline) {
            stale.push_back(fd);
          }
        }
        for (const int fd : stale) {
          CloseConnection(worker, fd);
        }
      }
    }
  }
}

void AigsServer::ServeConnection(Worker& worker, int fd, Connection& conn) {
  std::size_t offset = 0;
  while (!conn.close_after_flush) {
    std::string_view payload;
    std::size_t consumed = 0;
    const std::string_view rest =
        std::string_view(conn.read_buffer).substr(offset);
    const FrameStatus frame = ExtractFrame(rest, &payload, &consumed,
                                           nullptr, options_.max_payload);
    if (frame == FrameStatus::kNeedMore) {
      break;
    }
    if (frame == FrameStatus::kCorrupt) {
      // Length-derived frame boundaries cannot be resynchronized after a
      // corrupt header; flush whatever is owed, then close.
      conn.close_after_flush = true;
      break;
    }
    WireRequest request;
    const Status decoded = DecodeRequestPayload(payload, &request);
    const WireResponse response =
        decoded.ok() ? HandleRequest(engine_, request)
                     : ErrorResponse(request.op, decoded);
    conn.write_buffer += EncodeResponse(response);
    offset += consumed;
  }
  if (offset > 0) {
    conn.read_buffer.erase(0, offset);
  }
  (void)Flush(worker, fd, conn);
}

bool AigsServer::Flush(Worker& worker, int fd, Connection& conn) {
  const auto set_want_write = [&](bool enable) {
    if (conn.want_write == enable) {
      return;
    }
    conn.want_write = enable;
    epoll_event event{};
    event.events = EPOLLIN | (enable ? EPOLLOUT : 0u);
    event.data.fd = fd;
    (void)::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, fd, &event);
  };
  while (!conn.write_buffer.empty()) {
    const ssize_t n = ::send(fd, conn.write_buffer.data(),
                             conn.write_buffer.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        set_want_write(true);
        return true;
      }
      CloseConnection(worker, fd);  // EPIPE/ECONNRESET: peer is gone
      return false;
    }
    conn.write_buffer.erase(0, static_cast<std::size_t>(n));
  }
  if (conn.close_after_flush) {
    CloseConnection(worker, fd);
    return false;
  }
  set_want_write(false);
  return true;
}

void AigsServer::CloseConnection(Worker& worker, int fd) {
  (void)::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  CloseFd(fd);
  worker.connections.erase(fd);
  open_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace aigs::net
