// Thin POSIX socket helpers shared by the server, the blocking client, and
// the load generator: endpoint parsing, EINTR-safe I/O, fd options, and the
// poll-before-park rule both ends of a round trip wait by.
// Everything returns Status — a refused connection or a dropped peer is a
// typed error, never an abort (and never a SIGPIPE: all sends pass
// MSG_NOSIGNAL, and the entry points also call IgnoreSigpipe()).
#ifndef AIGS_NET_NET_UTIL_H_
#define AIGS_NET_NET_UTIL_H_

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace aigs::net {

/// The poll window both ends of a round trip use: before parking in a
/// blocking call, a waiter polls for up to this long, so a reply or request
/// that lands within the window never pays a sleep and a wake-up. kSpinMax
/// must cover the other end's turnaround (its work plus, when it parked,
/// its own wake-up).
inline constexpr std::chrono::nanoseconds kSpinStart{8'000};
inline constexpr std::chrono::nanoseconds kSpinMax{64'000};

/// Sizes the next window from how long the last wait lasted, as the
/// kernel's cpuidle haltpoll governor does: a wait longer than kSpinMax
/// halves the window (to 0 below kSpinStart, so an idle or slow peer's
/// waiter parks at once); a wait that outlasted the window but not
/// kSpinMax doubles it.
std::chrono::nanoseconds NextPollWindow(std::chrono::nanoseconds window,
                                        std::chrono::nanoseconds waited);

/// How one PollThenPark wait ended.
struct PollWait {
  /// Whether `try_ready` succeeded inside the window (else the wait parked).
  bool polled = false;
  /// Time spent polling, at most the window (0 when the window was 0): a
  /// yield that hands the CPU to another thread past the window's end
  /// gives that time away rather than polling through it.
  std::chrono::nanoseconds poll_time{0};
  /// When the wait ended.
  std::chrono::steady_clock::time_point woke;
};

/// One wait: retries the non-blocking probe `try_ready()` (true = ready)
/// until `*window` ends, giving the CPU away with sched_yield() after every
/// empty try, so a peer sharing the core gets to answer; if nothing came,
/// calls the blocking `park()`. Then sets `*window` by NextPollWindow.
template <typename TryReady, typename Park>
PollWait PollThenPark(std::chrono::nanoseconds* window, TryReady&& try_ready,
                      Park&& park) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  PollWait wait;
  wait.woke = start;
  if (window->count() > 0) {
    const Clock::time_point end = start + *window;
    for (;;) {
      wait.polled = try_ready();
      wait.woke = Clock::now();
      if (wait.polled || wait.woke >= end) {
        break;
      }
      sched_yield();
    }
    wait.poll_time = std::min<std::chrono::nanoseconds>(wait.woke - start,
                                                        *window);
  }
  if (!wait.polled) {
    park();
    wait.woke = Clock::now();
  }
  *window = NextPollWindow(*window, wait.woke - start);
  return wait;
}

/// A "host:port" pair. Only IPv4 dotted quads and "localhost" are resolved
/// — the loopback bench and shard configs never need DNS.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  std::string ToString() const { return host + ":" + std::to_string(port); }
};

/// Parses "host:port" ("8400" alone means 127.0.0.1:8400).
StatusOr<Endpoint> ParseEndpoint(std::string_view text);

/// Opens a listening TCP socket on `endpoint` (SO_REUSEADDR; port 0 binds
/// an ephemeral port). Returns the fd; `*bound_port` (optional) receives
/// the actual port.
StatusOr<int> ListenTcp(const Endpoint& endpoint, int backlog,
                        std::uint16_t* bound_port);

/// Blocking connect with a timeout (nonblocking connect + poll, then the
/// fd is switched back to blocking). TCP_NODELAY is set — every frame is
/// one request/response and must not sit in Nagle's buffer.
StatusOr<int> DialTcp(const Endpoint& endpoint, int timeout_ms);

/// Writes all of `data`, retrying EINTR and briefly polling out EAGAIN.
/// A dropped peer surfaces as IOError (EPIPE/ECONNRESET), never a signal.
Status SendAll(int fd, std::string_view data);

/// Reads up to `capacity` bytes, retrying EINTR. Returns 0 on orderly EOF.
StatusOr<std::size_t> RecvSome(int fd, char* buffer, std::size_t capacity);

Status SetNonBlocking(int fd);
Status SetNoDelay(int fd);

/// close(2) that retries EINTR and ignores errors (shutdown paths).
void CloseFd(int fd);

}  // namespace aigs::net

#endif  // AIGS_NET_NET_UTIL_H_
