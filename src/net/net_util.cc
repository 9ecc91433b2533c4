#include "net/net_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace aigs::net {

std::chrono::nanoseconds NextPollWindow(std::chrono::nanoseconds window,
                                        std::chrono::nanoseconds waited) {
  if (waited > kSpinMax) {
    window /= 2;
    return window < kSpinStart ? std::chrono::nanoseconds(0) : window;
  }
  if (waited > window) {
    return std::clamp(window * 2, kSpinStart, kSpinMax);
  }
  return window;
}

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

StatusOr<sockaddr_in> ToSockaddr(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  const std::string host =
      endpoint.host == "localhost" ? "127.0.0.1" : endpoint.host;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 address '" + host +
                                   "' (only dotted quads and 'localhost' "
                                   "are supported)");
  }
  return addr;
}

}  // namespace

StatusOr<Endpoint> ParseEndpoint(std::string_view text) {
  Endpoint endpoint;
  const std::size_t colon = text.rfind(':');
  std::string_view port_text = text;
  if (colon != std::string_view::npos) {
    endpoint.host = std::string(text.substr(0, colon));
    port_text = text.substr(colon + 1);
  }
  if (endpoint.host.empty() || port_text.empty()) {
    return Status::InvalidArgument("endpoint '" + std::string(text) +
                                   "' is not host:port");
  }
  std::uint32_t port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("endpoint '" + std::string(text) +
                                     "' has a non-numeric port");
    }
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("endpoint '" + std::string(text) +
                                     "' port is out of range");
    }
  }
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

StatusOr<int> ListenTcp(const Endpoint& endpoint, int backlog,
                        std::uint16_t* bound_port) {
  AIGS_ASSIGN_OR_RETURN(sockaddr_in addr, ToSockaddr(endpoint));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Errno("socket");
  }
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("bind " + endpoint.ToString());
    CloseFd(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    const Status status = Errno("listen");
    CloseFd(fd);
    return status;
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
      const Status status = Errno("getsockname");
      CloseFd(fd);
      return status;
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

StatusOr<int> DialTcp(const Endpoint& endpoint, int timeout_ms) {
  AIGS_ASSIGN_OR_RETURN(sockaddr_in addr, ToSockaddr(endpoint));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Errno("socket");
  }
  AIGS_RETURN_NOT_OK(SetNonBlocking(fd));
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const Status status = Errno("connect " + endpoint.ToString());
    CloseFd(fd);
    return status;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      CloseFd(fd);
      return Status::IOError("connect " + endpoint.ToString() +
                             " timed out after " +
                             std::to_string(timeout_ms) + " ms");
    }
    if (rc < 0) {
      const Status status = Errno("poll");
      CloseFd(fd);
      return status;
    }
    int error = 0;
    socklen_t len = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0 ||
        error != 0) {
      CloseFd(fd);
      return Status::IOError("connect " + endpoint.ToString() + ": " +
                             std::strerror(error != 0 ? error : errno));
    }
  }
  // Back to blocking for the simple call/response client.
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    const Status status = Errno("fcntl");
    CloseFd(fd);
    return status;
  }
  AIGS_RETURN_NOT_OK(SetNoDelay(fd));
  return fd;
}

Status SendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd, POLLOUT, 0};
        int rc;
        do {
          rc = ::poll(&pfd, 1, 1000);
        } while (rc < 0 && errno == EINTR);
        if (rc <= 0) {
          return Status::IOError("send stalled: peer not draining");
        }
        continue;
      }
      return Errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

StatusOr<std::size_t> RecvSome(int fd, char* buffer, std::size_t capacity) {
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, capacity, 0);
    if (n >= 0) {
      return static_cast<std::size_t>(n);
    }
    if (errno == EINTR) {
      continue;
    }
    return Errno("recv");
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl O_NONBLOCK");
  }
  return Status::OK();
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Errno("setsockopt TCP_NODELAY");
  }
  return Status::OK();
}

void CloseFd(int fd) {
  if (fd < 0) {
    return;
  }
  int rc;
  do {
    rc = ::close(fd);
  } while (rc != 0 && errno == EINTR);
}

}  // namespace aigs::net
