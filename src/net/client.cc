#include "net/client.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace aigs::net {

AigsClient& AigsClient::operator=(AigsClient&& other) noexcept {
  if (this != &other) {
    Disconnect();
    fd_ = std::exchange(other.fd_, -1);
    endpoint_ = std::move(other.endpoint_);
    options_ = other.options_;
    read_buffer_ = std::move(other.read_buffer_);
    poll_window_ = other.poll_window_;
    polled_waits_ = other.polled_waits_;
    parked_waits_ = other.parked_waits_;
    poll_ns_ = other.poll_ns_;
  }
  return *this;
}

Status AigsClient::Connect(const Endpoint& endpoint, ClientOptions options) {
  Disconnect();
  IgnoreSigpipe();
  AIGS_ASSIGN_OR_RETURN(fd_, DialTcp(endpoint, options.connect_timeout_ms));
  endpoint_ = endpoint;
  options_ = options;
  poll_window_ = std::chrono::nanoseconds(0);
  return Status::OK();
}

void AigsClient::Disconnect() {
  CloseFd(fd_);
  fd_ = -1;
  read_buffer_.clear();
}

StatusOr<WireResponse> AigsClient::Call(const WireRequest& request) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client is not connected");
  }
  const Status sent = SendAll(fd_, EncodeRequest(request));
  if (!sent.ok()) {
    Disconnect();
    return sent;
  }
  for (;;) {
    std::string_view payload;
    std::size_t consumed = 0;
    std::string error;
    const FrameStatus frame =
        ExtractFrame(read_buffer_, &payload, &consumed, &error,
                     options_.max_payload);
    if (frame == FrameStatus::kCorrupt) {
      Disconnect();
      return Status::IOError("corrupt response frame from " +
                             endpoint_.ToString() + ": " + error);
    }
    if (frame == FrameStatus::kFrame) {
      WireResponse response;
      const Status decoded = DecodeResponsePayload(payload, &response);
      read_buffer_.erase(0, consumed);
      if (!decoded.ok()) {
        Disconnect();
        return Status::IOError("malformed response from " +
                               endpoint_.ToString() + ": " +
                               decoded.message());
      }
      if (response.op != request.op) {
        Disconnect();
        return Status::IOError("response opcode mismatch: sent " +
                               std::string(WireOpName(request.op)) +
                               ", got " + WireOpName(response.op));
      }
      return response;
    }
    char buffer[16384];
    StatusOr<std::size_t> received = std::size_t{0};
    const PollWait wait = PollThenPark(
        &poll_window_,
        [&] {
          const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
          if (n >= 0) {
            received = static_cast<std::size_t>(n);
            return true;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
            return false;
          }
          received = Status::IOError(std::string("recv: ") +
                                     std::strerror(errno));
          return true;
        },
        [&] { received = RecvSome(fd_, buffer, sizeof(buffer)); });
    poll_ns_ += static_cast<std::uint64_t>(wait.poll_time.count());
    ++(wait.polled ? polled_waits_ : parked_waits_);
    if (!received.ok()) {
      Disconnect();
      return received.status();
    }
    if (*received == 0) {
      Disconnect();
      return Status::IOError("connection to " + endpoint_.ToString() +
                             " closed mid-response");
    }
    read_buffer_.append(buffer, *received);
  }
}

StatusOr<SessionId> AigsClient::Open(const std::string& policy_spec,
                                     SessionId proposed_id) {
  WireRequest request;
  request.op = WireOp::kOpen;
  request.id = proposed_id;
  request.text = policy_spec;
  AIGS_ASSIGN_OR_RETURN(const WireResponse response, Call(request));
  AIGS_RETURN_NOT_OK(response.ToStatus());
  return response.id;
}

StatusOr<Query> AigsClient::Ask(SessionId id) {
  WireRequest request;
  request.op = WireOp::kAsk;
  request.id = id;
  AIGS_ASSIGN_OR_RETURN(const WireResponse response, Call(request));
  AIGS_RETURN_NOT_OK(response.ToStatus());
  return response.query;
}

Status AigsClient::Answer(SessionId id, const SessionAnswer& answer) {
  WireRequest request;
  request.op = WireOp::kAnswer;
  request.id = id;
  request.answer = answer;
  AIGS_ASSIGN_OR_RETURN(const WireResponse response, Call(request));
  return response.ToStatus();
}

StatusOr<std::string> AigsClient::Save(SessionId id) {
  WireRequest request;
  request.op = WireOp::kSave;
  request.id = id;
  AIGS_ASSIGN_OR_RETURN(WireResponse response, Call(request));
  AIGS_RETURN_NOT_OK(response.ToStatus());
  return std::move(response.text);
}

StatusOr<SessionId> AigsClient::Resume(const std::string& blob,
                                       SessionId proposed_id) {
  WireRequest request;
  request.op = WireOp::kResume;
  request.id = proposed_id;
  request.text = blob;
  AIGS_ASSIGN_OR_RETURN(const WireResponse response, Call(request));
  AIGS_RETURN_NOT_OK(response.ToStatus());
  return response.id;
}

StatusOr<MigrateResult> AigsClient::Migrate(SessionId id) {
  WireRequest request;
  request.op = WireOp::kMigrate;
  request.id = id;
  AIGS_ASSIGN_OR_RETURN(const WireResponse response, Call(request));
  AIGS_RETURN_NOT_OK(response.ToStatus());
  return response.migrate;
}

StatusOr<MigrateResult> AigsClient::MigrateBlob(const std::string& blob,
                                                SessionId proposed_id) {
  WireRequest request;
  request.op = WireOp::kMigrate;
  request.id = proposed_id;
  request.text = blob;
  AIGS_ASSIGN_OR_RETURN(const WireResponse response, Call(request));
  AIGS_RETURN_NOT_OK(response.ToStatus());
  return response.migrate;
}

Status AigsClient::Close(SessionId id) {
  WireRequest request;
  request.op = WireOp::kClose;
  request.id = id;
  AIGS_ASSIGN_OR_RETURN(const WireResponse response, Call(request));
  return response.ToStatus();
}

StatusOr<WireStats> AigsClient::Stats() {
  WireRequest request;
  request.op = WireOp::kStats;
  AIGS_ASSIGN_OR_RETURN(const WireResponse response, Call(request));
  AIGS_RETURN_NOT_OK(response.ToStatus());
  return response.stats;
}

}  // namespace aigs::net
