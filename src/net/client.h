// AigsClient — the blocking aigs-wire/1 client: one TCP connection, one
// in-flight request, an Engine-shaped method per opcode. Status codes the
// server sends come back as the exact Status the remote Engine returned,
// so a caller cannot tell (by error contract) whether the engine is in
// process or across the network. Not thread-safe; one client per thread
// (the ShardRouter and loadgen own their pools).
#ifndef AIGS_NET_CLIENT_H_
#define AIGS_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "net/net_util.h"
#include "net/wire.h"
#include "service/engine.h"
#include "util/status.h"

namespace aigs::net {

struct ClientOptions {
  int connect_timeout_ms = 5'000;
  std::size_t max_payload = kMaxFramePayload;
};

class AigsClient {
 public:
  AigsClient() = default;
  ~AigsClient() { Disconnect(); }

  AigsClient(AigsClient&& other) noexcept { *this = std::move(other); }
  AigsClient& operator=(AigsClient&& other) noexcept;
  AigsClient(const AigsClient&) = delete;
  AigsClient& operator=(const AigsClient&) = delete;

  /// Dials `endpoint` (closing any previous connection first).
  Status Connect(const Endpoint& endpoint, ClientOptions options = {});
  void Disconnect();
  bool connected() const { return fd_ >= 0; }
  const Endpoint& endpoint() const { return endpoint_; }

  // ---- the Engine session API over the wire ---------------------------------

  /// `proposed_id` as in Engine::Open — 0 lets the server assign.
  StatusOr<SessionId> Open(const std::string& policy_spec,
                           SessionId proposed_id = 0);
  StatusOr<Query> Ask(SessionId id);
  Status Answer(SessionId id, const SessionAnswer& answer);
  StatusOr<std::string> Save(SessionId id);
  StatusOr<SessionId> Resume(const std::string& blob,
                             SessionId proposed_id = 0);
  /// Live in-place migration of session `id` on the server.
  StatusOr<MigrateResult> Migrate(SessionId id);
  /// Blob migration under `proposed_id` (0 = server assigns).
  StatusOr<MigrateResult> MigrateBlob(const std::string& blob,
                                      SessionId proposed_id = 0);
  Status Close(SessionId id);
  StatusOr<WireStats> Stats();

  /// One raw round trip: send the request frame, then wait for the response
  /// frame the way the server waits for requests (net_util.h's
  /// PollThenPark): poll a non-blocking recv for an adaptive window,
  /// yielding the CPU between tries, then block in recv. A peer that takes
  /// longer than kSpinMax to reply shrinks the window to 0, so a client of
  /// a slow server parks at once. Transport and framing failures are
  /// IOError (and poison the connection); a service error arrives as an OK
  /// round trip whose response carries the non-OK code.
  StatusOr<WireResponse> Call(const WireRequest& request);

  /// Poll-window counters since construction, counted as AigsServer
  /// counts its own: waits whose bytes arrived while the client was still
  /// polling, waits that parked in a blocking recv, and total time spent
  /// polling.
  std::uint64_t polled_waits() const { return polled_waits_; }
  std::uint64_t parked_waits() const { return parked_waits_; }
  std::uint64_t poll_ns() const { return poll_ns_; }

 private:
  int fd_ = -1;
  Endpoint endpoint_;
  ClientOptions options_;
  /// Bytes received past the last extracted frame (pipelined leftovers).
  std::string read_buffer_;
  std::chrono::nanoseconds poll_window_{0};
  std::uint64_t polled_waits_ = 0;
  std::uint64_t parked_waits_ = 0;
  std::uint64_t poll_ns_ = 0;
};

}  // namespace aigs::net

#endif  // AIGS_NET_CLIENT_H_
