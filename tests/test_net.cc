// Network front end (src/net): aigs-wire/1 codec robustness (adversarial
// inputs — truncation, oversized lengths, bit flips, garbage, mid-frame
// disconnects), the epoll server + blocking client end to end, the
// consistent-hash ShardRouter's placement properties, the per-op Engine
// traffic counters, and the loadgen driver.
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/builtin.h"
#include "eval/runner.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "net/wire.h"
#include "oracle/oracle.h"
#include "prob/distribution.h"
#include "service/engine.h"
#include "tests/test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aigs::net {
namespace {

using aigs::testing::MustBuild;
using namespace std::chrono_literals;

// ---- fixtures --------------------------------------------------------------

Hierarchy TestHierarchy() {
  Rng rng(11);
  return MustBuild(RandomTree(64, rng));
}

CatalogConfig ConfigFor(const Hierarchy& h,
                        std::vector<std::string> specs = {"greedy"}) {
  CatalogConfig config;
  config.hierarchy = UnownedHierarchy(h);
  config.distribution = EqualDistribution(h.NumNodes());
  config.policy_specs = std::move(specs);
  return config;
}

/// An engine with one published epoch plus its running server.
struct Backend {
  explicit Backend(const Hierarchy& h,
                   std::vector<std::string> specs = {"greedy"},
                   ServerOptions options = {})
      : server(engine, options) {
    EXPECT_TRUE(engine.Publish(ConfigFor(h, std::move(specs))).ok());
    EXPECT_TRUE(server.Start().ok());
  }
  Engine engine;
  AigsServer server;
};

/// Drives the remote session `id` to completion through `call` objects
/// that mirror the client API (AigsClient or ShardRouter).
template <typename Api>
NodeId DriveToDone(Api& api, const Hierarchy& h, SessionId id,
                   NodeId target) {
  ExactOracle oracle(h.reach(), target);
  for (int step = 0; step < 10'000; ++step) {
    auto query = api.Ask(id);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (!query.ok()) {
      return kInvalidNode;
    }
    if (query->kind == Query::Kind::kDone) {
      return query->node;
    }
    const Status answered =
        api.Answer(id, AnswerFromOracle(*query, oracle));
    EXPECT_TRUE(answered.ok()) << answered.ToString();
    if (!answered.ok()) {
      return kInvalidNode;
    }
  }
  ADD_FAILURE() << "session never finished";
  return kInvalidNode;
}

// ---- wire codec round trips ------------------------------------------------

TEST(Wire, RequestRoundTripEveryOp) {
  std::vector<WireRequest> requests;
  {
    WireRequest r;
    r.op = WireOp::kOpen;
    r.id = 0xDEADBEEFCAFE1234ull;
    r.text = "batched:k=3";
    requests.push_back(r);
  }
  {
    WireRequest r;
    r.op = WireOp::kAnswer;
    r.id = 42;
    r.answer = SessionAnswer::Reach(true);
    requests.push_back(r);
    r.answer = SessionAnswer::Batch({true, false, false, true});
    requests.push_back(r);
    r.answer = SessionAnswer::Choice(-1);
    requests.push_back(r);
    r.answer = SessionAnswer::Choice(3);
    requests.push_back(r);
  }
  for (const WireOp op : {WireOp::kAsk, WireOp::kSave, WireOp::kClose,
                          WireOp::kStats}) {
    WireRequest r;
    r.op = op;
    r.id = 7;
    requests.push_back(r);
  }
  {
    WireRequest r;
    r.op = WireOp::kResume;
    r.id = 99;
    r.text = std::string("blob with \0 bytes", 17);
    requests.push_back(r);
    r.op = WireOp::kMigrate;
    requests.push_back(r);
    r.text.clear();  // live-migrate form
    requests.push_back(r);
  }

  for (const WireRequest& original : requests) {
    const std::string frame = EncodeRequest(original);
    std::string_view payload;
    std::size_t consumed = 0;
    ASSERT_EQ(ExtractFrame(frame, &payload, &consumed, nullptr),
              FrameStatus::kFrame);
    EXPECT_EQ(consumed, frame.size());
    WireRequest decoded;
    ASSERT_TRUE(DecodeRequestPayload(payload, &decoded).ok());
    EXPECT_EQ(decoded.op, original.op);
    EXPECT_EQ(decoded.id, original.id);
    EXPECT_EQ(decoded.text, original.text);
    if (original.op == WireOp::kAnswer) {
      EXPECT_EQ(decoded.answer.kind, original.answer.kind);
      EXPECT_EQ(decoded.answer.yes, original.answer.yes);
      EXPECT_EQ(decoded.answer.batch, original.answer.batch);
      EXPECT_EQ(decoded.answer.choice, original.answer.choice);
    }
  }
}

TEST(Wire, ResponseRoundTripEveryShape) {
  std::vector<WireResponse> responses;
  {
    WireResponse r;
    r.op = WireOp::kOpen;
    r.id = 0x1122334455667788ull;
    responses.push_back(r);
  }
  {
    WireResponse r;
    r.op = WireOp::kAsk;
    r.query.kind = Query::Kind::kChoice;
    r.query.node = 17;
    r.query.choices = {3, 9, 27};
    responses.push_back(r);
    r.query = Query{};
    r.query.kind = Query::Kind::kDone;
    r.query.node = 5;
    responses.push_back(r);
  }
  {
    WireResponse r;
    r.op = WireOp::kSave;
    r.text = std::string("v2\0binary", 9);
    responses.push_back(r);
  }
  {
    WireResponse r;
    r.op = WireOp::kMigrate;
    r.migrate = {1234, 3, 9, 17, 2};
    responses.push_back(r);
  }
  {
    WireResponse r;
    r.op = WireOp::kStats;
    r.stats.epoch = 4;
    r.stats.live_sessions = 12;
    r.stats.ops.opens = 100;
    r.stats.ops.asks = 900;
    r.stats.ops.answers = 800;
    r.stats.ops.closes = 90;
    r.stats.ops.rejected = 7;
    r.stats.ops.rejected_by_code[static_cast<int>(StatusCode::kNotFound)] =
        7;
    responses.push_back(r);
  }
  responses.push_back(
      ErrorResponse(WireOp::kAnswer,
                    Status::InvalidArgument("kind mismatch: want reach")));

  for (const WireResponse& original : responses) {
    const std::string frame = EncodeResponse(original);
    std::string_view payload;
    std::size_t consumed = 0;
    ASSERT_EQ(ExtractFrame(frame, &payload, &consumed, nullptr),
              FrameStatus::kFrame);
    WireResponse decoded;
    ASSERT_TRUE(DecodeResponsePayload(payload, &decoded).ok());
    EXPECT_EQ(decoded.op, original.op);
    EXPECT_EQ(decoded.code, original.code);
    EXPECT_EQ(decoded.message, original.message);
    if (!original.ok()) {
      const Status rebuilt = decoded.ToStatus();
      EXPECT_EQ(rebuilt.code(), original.code);
      EXPECT_EQ(rebuilt.message(), original.message);
      continue;
    }
    EXPECT_EQ(decoded.id, original.id);
    EXPECT_EQ(decoded.text, original.text);
    EXPECT_EQ(decoded.query.kind, original.query.kind);
    EXPECT_EQ(decoded.query.node, original.query.node);
    EXPECT_EQ(decoded.query.choices, original.query.choices);
    EXPECT_EQ(decoded.migrate.id, original.migrate.id);
    EXPECT_EQ(decoded.migrate.divergent_steps,
              original.migrate.divergent_steps);
    EXPECT_EQ(decoded.stats.epoch, original.stats.epoch);
    EXPECT_EQ(decoded.stats.ops.opens, original.stats.ops.opens);
    EXPECT_EQ(decoded.stats.ops.rejected, original.stats.ops.rejected);
  }
}

TEST(Wire, BackToBackFramesExtractSequentially) {
  WireRequest a;
  a.op = WireOp::kAsk;
  a.id = 1;
  WireRequest b;
  b.op = WireOp::kClose;
  b.id = 2;
  std::string stream = EncodeRequest(a) + EncodeRequest(b);

  std::string_view payload;
  std::size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(stream, &payload, &consumed, nullptr),
            FrameStatus::kFrame);
  WireRequest first;
  ASSERT_TRUE(DecodeRequestPayload(payload, &first).ok());
  EXPECT_EQ(first.op, WireOp::kAsk);
  stream.erase(0, consumed);
  ASSERT_EQ(ExtractFrame(stream, &payload, &consumed, nullptr),
            FrameStatus::kFrame);
  WireRequest second;
  ASSERT_TRUE(DecodeRequestPayload(payload, &second).ok());
  EXPECT_EQ(second.op, WireOp::kClose);
  EXPECT_EQ(consumed, stream.size());
}

// ---- adversarial decode ----------------------------------------------------

TEST(Wire, TruncatedFramesAlwaysNeedMore) {
  WireRequest request;
  request.op = WireOp::kOpen;
  request.id = 7;
  request.text = "greedy";
  const std::string frame = EncodeRequest(request);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    std::string_view payload;
    std::size_t consumed = 0;
    EXPECT_EQ(ExtractFrame(frame.substr(0, len), &payload, &consumed,
                           nullptr),
              FrameStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(Wire, OversizedLengthPrefixIsCorruptImmediately) {
  // 8 header bytes claiming a 512 MiB payload: the scanner must reject
  // without waiting for (or trying to buffer) the body.
  std::string header;
  const std::uint32_t absurd = 512u << 20;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((absurd >> (8 * i)) & 0xff));
  }
  header.append(4, '\0');  // CRC — irrelevant, length is checked first
  std::string_view payload;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ExtractFrame(header, &payload, &consumed, &error),
            FrameStatus::kCorrupt);
  EXPECT_NE(error.find("exceeds"), std::string::npos);
  // A tighter explicit cap applies the same way.
  EXPECT_EQ(ExtractFrame(header, &payload, &consumed, &error, 1024),
            FrameStatus::kCorrupt);
}

TEST(Wire, EverysingleBitFlipIsRejected) {
  WireRequest request;
  request.op = WireOp::kAnswer;
  request.id = 1;
  request.answer = SessionAnswer::Batch({true, false, true});
  const std::string frame = EncodeRequest(request);
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string mutated = frame;
    mutated[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(mutated[bit / 8]) ^ (1u << (bit % 8)));
    std::string_view payload;
    std::size_t consumed = 0;
    // A flipped length field may leave the scanner waiting (kNeedMore) or
    // trip the oversize/CRC checks (kCorrupt); a flip anywhere else is a
    // guaranteed CRC mismatch. What must NEVER happen is a valid frame.
    EXPECT_NE(ExtractFrame(mutated, &payload, &consumed, nullptr),
              FrameStatus::kFrame)
        << "bit " << bit;
  }
}

TEST(Wire, GarbagePayloadsNeverCrashTheDecoder) {
  Rng rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string garbage(rng.UniformInt(64), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformInt(256));
    }
    WireRequest request;
    WireResponse response;
    (void)DecodeRequestPayload(garbage, &request);
    (void)DecodeResponsePayload(garbage, &response);
  }
  // Structured near-misses: right version + opcode, then truncated or
  // trailing bytes.
  WireRequest valid;
  valid.op = WireOp::kResume;
  valid.id = 5;
  valid.text = "0123456789";
  const std::string frame = EncodeRequest(valid);
  const std::string_view payload(frame.data() + kFrameHeaderBytes,
                                 frame.size() - kFrameHeaderBytes);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    WireRequest out;
    EXPECT_FALSE(
        DecodeRequestPayload(payload.substr(0, len), &out).ok())
        << "truncated payload length " << len;
  }
  WireRequest out;
  EXPECT_FALSE(
      DecodeRequestPayload(std::string(payload) + "x", &out).ok());
  // A declared byte-string length far past the buffer must not over-read.
  std::string lying(payload);
  lying[10] = '\xff';  // low byte of the Bytes length field
  lying[11] = '\xff';
  (void)DecodeRequestPayload(lying, &out);
}

// ---- engine satellites: per-op counters and proposed ids -------------------

TEST(EngineOps, CountersTrackTrafficAndRejections) {
  const Hierarchy h = TestHierarchy();
  Engine engine;
  ASSERT_TRUE(engine.Publish(ConfigFor(h)).ok());

  auto id = engine.Open("greedy");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.Ask(*id).ok());
  EXPECT_FALSE(engine.Ask(999'999).ok());  // NotFound → rejected
  auto blob = engine.Save(*id);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(engine.Close(*id).ok());

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.ops.opens, 1u);
  EXPECT_EQ(stats.ops.asks, 2u);
  EXPECT_EQ(stats.ops.saves, 1u);
  EXPECT_EQ(stats.ops.closes, 1u);
  EXPECT_EQ(stats.ops.answers, 0u);
  EXPECT_EQ(stats.ops.total(), 5u);
  EXPECT_EQ(stats.ops.rejected, 1u);
  EXPECT_EQ(
      stats.ops.rejected_by_code[static_cast<int>(StatusCode::kNotFound)],
      1u);
}

TEST(EngineOps, ProposedIdsPlaceExactlyOrReject) {
  const Hierarchy h = TestHierarchy();
  Engine engine;
  ASSERT_TRUE(engine.Publish(ConfigFor(h)).ok());

  const SessionId wanted = 0xAB54A98CEB1F0AD2ull;
  auto id = engine.Open("greedy", wanted);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, wanted);
  // The same id again is a collision, not a silent reassignment.
  auto clash = engine.Open("greedy", wanted);
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kFailedPrecondition);

  auto blob = engine.Save(wanted);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(engine.Close(wanted).ok());
  auto resumed = engine.Resume(*blob, wanted + 1);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(*resumed, wanted + 1);
}

// ---- server + client end to end --------------------------------------------

TEST(ServerClient, FullSessionLifecycleOverTheWire) {
  const Hierarchy h = TestHierarchy();
  Backend backend(h, {"greedy", "batched:k=3"});

  AigsClient client;
  ASSERT_TRUE(client.Connect(backend.server.endpoint()).ok());

  auto id = client.Open("greedy");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const NodeId target = 29;
  EXPECT_EQ(DriveToDone(client, h, *id, target), target);

  // Save → close → resume round trip, then finish again (idempotent ask).
  auto blob = client.Save(*id);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(client.Close(*id).ok());
  auto resumed = client.Resume(*blob);
  ASSERT_TRUE(resumed.ok());
  auto done = client.Ask(*resumed);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->kind, Query::Kind::kDone);
  EXPECT_EQ(done->node, target);

  // Remote blob migration under a proposed id.
  auto migrated = client.MigrateBlob(*blob, 777);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  EXPECT_EQ(migrated->id, 777u);
  // And a live in-place migration (same epoch → trivially OK).
  auto live = client.Migrate(777);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->from_epoch, live->to_epoch);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, 1u);
  EXPECT_GT(stats->ops.asks, 0u);
  EXPECT_GT(stats->ops.answers, 0u);

  // Service errors arrive as the engine's exact Status, not IOError.
  auto missing = client.Ask(123456789);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto bad_spec = client.Open("no_such_policy");
  EXPECT_FALSE(bad_spec.ok());
  auto open2 = client.Open("batched:k=3");
  ASSERT_TRUE(open2.ok());
  auto pending = client.Ask(*open2);
  ASSERT_TRUE(pending.ok());
  ASSERT_EQ(pending->kind, Query::Kind::kReachBatch);
  const Status wrong_kind = client.Answer(*open2, SessionAnswer::Reach(true));
  EXPECT_EQ(wrong_kind.code(), StatusCode::kInvalidArgument);
  // The connection survives every rejected request.
  EXPECT_TRUE(client.Close(*open2).ok());
}

/// Reads response frames from `fd` until `want` have arrived, failing on
/// EOF or error; returns how many arrived.
int ReadResponses(int fd, int want, WireOp op) {
  std::string received;
  char buffer[4096];
  int frames = 0;
  while (frames < want) {
    auto n = RecvSome(fd, buffer, sizeof(buffer));
    EXPECT_TRUE(n.ok());
    if (!n.ok() || *n == 0) {
      ADD_FAILURE() << "server closed before all responses arrived";
      return frames;
    }
    received.append(buffer, *n);
    std::string_view payload;
    std::size_t consumed = 0;
    while (ExtractFrame(received, &payload, &consumed, nullptr) ==
           FrameStatus::kFrame) {
      WireResponse response;
      EXPECT_TRUE(DecodeResponsePayload(payload, &response).ok());
      EXPECT_EQ(response.op, op);
      EXPECT_TRUE(response.ok());
      received.erase(0, consumed);
      ++frames;
    }
  }
  EXPECT_TRUE(received.empty()) << "bytes past the last frame";
  return frames;
}

/// Whether `fd` has bytes to read within `timeout`.
bool ReadableWithin(int fd, std::chrono::milliseconds timeout) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, static_cast<int>(timeout.count())) > 0;
}

TEST(ServerClient, PipelinedRequestsAnswerInOrder) {
  const Hierarchy h = TestHierarchy();
  Backend backend(h);

  AigsClient client;
  ASSERT_TRUE(client.Connect(backend.server.endpoint()).ok());
  auto id = client.Open("greedy");
  ASSERT_TRUE(id.ok());
  client.Disconnect();

  // Raw socket: three asks in one write, three responses back.
  auto fd = DialTcp(backend.server.endpoint(), 2000);
  ASSERT_TRUE(fd.ok());
  WireRequest ask;
  ask.op = WireOp::kAsk;
  ask.id = *id;
  std::string burst;
  for (int i = 0; i < 3; ++i) {
    burst += EncodeRequest(ask);
  }
  ASSERT_TRUE(SendAll(*fd, burst).ok());
  EXPECT_EQ(ReadResponses(*fd, 3, WireOp::kAsk), 3);
  CloseFd(*fd);
}

TEST(ServerClient, FrameSplitAcrossTwoSendsIsAnsweredOnce) {
  const Hierarchy h = TestHierarchy();
  Backend backend(h);

  AigsClient client;
  ASSERT_TRUE(client.Connect(backend.server.endpoint()).ok());
  auto id = client.Open("greedy");
  ASSERT_TRUE(id.ok());
  client.Disconnect();

  // The worker reads the first half with a short recv and stops; the
  // second half re-arms the level-triggered EPOLLIN and completes it.
  auto fd = DialTcp(backend.server.endpoint(), 2000);
  ASSERT_TRUE(fd.ok());
  // A lost second half fails the read instead of hanging it.
  timeval timeout{};
  timeout.tv_sec = 5;
  ASSERT_EQ(::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  WireRequest ask;
  ask.op = WireOp::kAsk;
  ask.id = *id;
  const std::string frame = EncodeRequest(ask);
  const std::size_t half = frame.size() / 2;
  ASSERT_TRUE(SendAll(*fd, frame.substr(0, half)).ok());
  std::this_thread::sleep_for(5ms);
  ASSERT_TRUE(SendAll(*fd, frame.substr(half)).ok());
  EXPECT_EQ(ReadResponses(*fd, 1, WireOp::kAsk), 1);
  EXPECT_FALSE(ReadableWithin(*fd, 50ms)) << "answered more than once";
  // The connection still serves whole frames after the split one.
  ASSERT_TRUE(SendAll(*fd, frame).ok());
  EXPECT_EQ(ReadResponses(*fd, 1, WireOp::kAsk), 1);
  CloseFd(*fd);
}

TEST(ServerClient, GarbageBytesCloseTheConnectionNotTheServer) {
  const Hierarchy h = TestHierarchy();
  Backend backend(h);

  // (1) pure garbage — the CRC (or oversize) check condemns the stream.
  {
    auto fd = DialTcp(backend.server.endpoint(), 2000);
    ASSERT_TRUE(fd.ok());
    std::string garbage(256, '\xff');
    ASSERT_TRUE(SendAll(*fd, garbage).ok());
    char buffer[256];
    // The server replies nothing and closes; recv drains to EOF.
    for (;;) {
      auto n = RecvSome(*fd, buffer, sizeof(buffer));
      ASSERT_TRUE(n.ok());
      if (*n == 0) {
        break;
      }
    }
    CloseFd(*fd);
  }
  // (2) valid frame whose payload is garbage — an error RESPONSE, the
  // connection stays up.
  {
    auto fd = DialTcp(backend.server.endpoint(), 2000);
    ASSERT_TRUE(fd.ok());
    std::string frame;
    AppendFrame(&frame, "\x01\xEE garbage-after-a-bad-opcode");
    ASSERT_TRUE(SendAll(*fd, frame).ok());
    std::string received;
    char buffer[4096];
    for (;;) {
      auto n = RecvSome(*fd, buffer, sizeof(buffer));
      ASSERT_TRUE(n.ok());
      ASSERT_GT(*n, 0u);
      received.append(buffer, *n);
      std::string_view payload;
      std::size_t consumed = 0;
      if (ExtractFrame(received, &payload, &consumed, nullptr) ==
          FrameStatus::kFrame) {
        WireResponse response;
        ASSERT_TRUE(DecodeResponsePayload(payload, &response).ok());
        EXPECT_FALSE(response.ok());
        EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
        break;
      }
    }
    CloseFd(*fd);
  }
  // (3) mid-frame disconnect — half a header, then half a payload.
  for (const std::size_t cut : {4u, 12u}) {
    auto fd = DialTcp(backend.server.endpoint(), 2000);
    ASSERT_TRUE(fd.ok());
    WireRequest request;
    request.op = WireOp::kOpen;
    request.text = "greedy";
    const std::string frame = EncodeRequest(request);
    ASSERT_TRUE(SendAll(*fd, frame.substr(0, cut)).ok());
    CloseFd(*fd);  // vanish mid-frame
  }
  // (4) an oversized length prefix is dropped without buffering.
  {
    auto fd = DialTcp(backend.server.endpoint(), 2000);
    ASSERT_TRUE(fd.ok());
    std::string header("\xff\xff\xff\x7f\0\0\0\0", 8);
    ASSERT_TRUE(SendAll(*fd, header).ok());
    char buffer[64];
    for (;;) {
      auto n = RecvSome(*fd, buffer, sizeof(buffer));
      ASSERT_TRUE(n.ok());
      if (*n == 0) {
        break;  // closed, as promised
      }
    }
    CloseFd(*fd);
  }
  // After all of that, the server still serves.
  AigsClient client;
  ASSERT_TRUE(client.Connect(backend.server.endpoint()).ok());
  auto id = client.Open("greedy");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(client.Close(*id).ok());
}

TEST(ServerClient, IdleConnectionsAreReaped) {
  const Hierarchy h = TestHierarchy();
  ServerOptions options;
  options.idle_timeout_ms = 150;
  Backend backend(h, {"greedy"}, options);

  auto fd = DialTcp(backend.server.endpoint(), 2000);
  ASSERT_TRUE(fd.ok());
  // Do nothing. The reaper should close us within a few timeout periods.
  char buffer[16];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "idle connection was never reaped";
    auto n = RecvSome(*fd, buffer, sizeof(buffer));
    ASSERT_TRUE(n.ok());
    if (*n == 0) {
      break;
    }
  }
  CloseFd(*fd);
}

TEST(ServerClient, ConcurrentClientsCompleteTheirSessions) {
  const Hierarchy h = TestHierarchy();
  Backend backend(h);

  constexpr int kThreads = 4;
  constexpr int kSessionsEach = 8;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      AigsClient client;
      ASSERT_TRUE(client.Connect(backend.server.endpoint()).ok());
      Rng rng(100 + t);
      for (int s = 0; s < kSessionsEach; ++s) {
        auto id = client.Open("greedy");
        ASSERT_TRUE(id.ok());
        const NodeId target =
            static_cast<NodeId>(rng.UniformInt(h.NumNodes()));
        if (DriveToDone(client, h, *id, target) == target &&
            client.Close(*id).ok()) {
          completed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(completed.load(), kThreads * kSessionsEach);
  const EngineStats stats = backend.engine.Stats();
  EXPECT_EQ(stats.ops.opens, static_cast<std::uint64_t>(kThreads) *
                                 kSessionsEach);
  EXPECT_EQ(stats.ops.closes, stats.ops.opens);
}

TEST(ServerClient, StopFlushesTheDurableStore) {
  const Hierarchy h = TestHierarchy();
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("aigs_net_durable_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  SessionId id = 0;
  {
    Engine engine;
    ASSERT_TRUE(engine.Publish(ConfigFor(h)).ok());
    DurabilityOptions durability;
    durability.dir = dir;
    durability.sync.policy = FsyncPolicy::kNone;  // flush must cover this
    ASSERT_TRUE(engine.EnableDurability(durability).ok());

    AigsServer server(engine, {});
    ASSERT_TRUE(server.Start().ok());
    AigsClient client;
    ASSERT_TRUE(client.Connect(server.endpoint()).ok());
    auto opened = client.Open("greedy");
    ASSERT_TRUE(opened.ok());
    id = *opened;
    auto query = client.Ask(id);
    ASSERT_TRUE(query.ok());
    ExactOracle oracle(h.reach(), 3);
    ASSERT_TRUE(client.Answer(id, AnswerFromOracle(*query, oracle)).ok());
    server.Stop();  // graceful shutdown: joins workers, flushes the WAL
  }
  // A second engine recovers the session from the flushed store.
  Engine recovered;
  ASSERT_TRUE(recovered.Publish(ConfigFor(h)).ok());
  DurabilityOptions durability;
  durability.dir = dir;
  auto stats = recovered.Recover(durability);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->recovered, 1u);
  EXPECT_TRUE(recovered.Ask(id).ok());
  std::filesystem::remove_all(dir);
}

// ---- worker poll window + acceptor backoff: CPU bounds ----------------------

/// kSpinStart, the shortest nonzero poll window, in nanoseconds.
constexpr std::uint64_t kSpinStartNs =
    static_cast<std::uint64_t>(kSpinStart.count());

/// User + system CPU time of the whole process, every server thread
/// included.
std::chrono::microseconds ProcessCpu() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto micros = [](const timeval& t) {
    return std::chrono::seconds(t.tv_sec) +
           std::chrono::microseconds(t.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

/// Process CPU burnt over `window` of wall time while the test sleeps.
std::chrono::microseconds CpuOver(std::chrono::milliseconds window) {
  const auto before = ProcessCpu();
  std::this_thread::sleep_for(window);
  return ProcessCpu() - before;
}

TEST(PollWindow, IdleServerParksAfterABurst) {
  const Hierarchy h = TestHierarchy();
  Backend backend(h);

  LoadgenOptions options;
  options.targets = {backend.server.endpoint()};
  options.connections = 2;
  options.max_requests = 4000;
  options.hierarchy = &h;
  auto result = RunLoadgen(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->errors, 0u);
#ifndef AIGS_TEST_SANITIZED
  // A closed loop's next request lands while the worker still polls.
  EXPECT_GT(backend.server.polled_waits(), 0u);
#endif
  // Once the burst ends the workers park: no poll window survives a wait
  // longer than kSpinMax.
  EXPECT_LT(CpuOver(300ms), 15ms);
}

TEST(PollWindow, PacedRequestsParkAndPollBriefly) {
  const Hierarchy h = TestHierarchy();
  ServerOptions options;
  options.workers = 1;
  Backend backend(h, {"greedy"}, options);

  AigsClient client;
  ASSERT_TRUE(client.Connect(backend.server.endpoint()).ok());
  auto id = client.Open("greedy");
  ASSERT_TRUE(id.ok());
  const std::uint64_t polled = backend.server.polled_waits();
  const std::uint64_t parked = backend.server.parked_waits();
  const std::uint64_t poll_ns = backend.server.poll_ns();
  constexpr std::uint64_t kRequests = 100;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    std::this_thread::sleep_for(2ms);
    ASSERT_TRUE(client.Ask(*id).ok());
  }
  const std::uint64_t polled_waits = backend.server.polled_waits() - polled;
  const std::uint64_t parked_waits = backend.server.parked_waits() - parked;
  // Every request ended a wait of its own.
  EXPECT_GE(polled_waits + parked_waits, kRequests);
#ifndef AIGS_TEST_SANITIZED
  // Each 2 ms wait halves the window, so it is 0 within a few requests: the
  // polling per request stays far below kSpinMax (64 µs), which a window
  // that never shrank would spend on every request.
  EXPECT_LE((backend.server.poll_ns() - poll_ns) / kRequests, kSpinStartNs);
  EXPECT_GT(parked_waits, polled_waits);
#else
  (void)poll_ns;
#endif
}

/// A raw-socket peer that answers each request frame with an empty OK
/// response of the same op, `delay` after the frame arrived: a slow server.
class SlowPeer {
 public:
  explicit SlowPeer(std::chrono::milliseconds delay) {
    auto fd = ListenTcp({"127.0.0.1", 0}, 4, &port_);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    listen_fd_ = fd.ok() ? *fd : -1;
    thread_ = std::thread([this, delay] { Serve(delay); });
  }
  ~SlowPeer() {
    // Wakes an accept that never got a connection; a served peer has
    // already left when its client disconnected.
    (void)::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    CloseFd(listen_fd_);
  }
  SlowPeer(const SlowPeer&) = delete;
  SlowPeer& operator=(const SlowPeer&) = delete;

  Endpoint endpoint() const { return {"127.0.0.1", port_}; }

 private:
  void Serve(std::chrono::milliseconds delay) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    std::string received;
    char buffer[4096];
    for (;;) {
      auto n = RecvSome(fd, buffer, sizeof(buffer));
      if (!n.ok() || *n == 0) {
        break;
      }
      received.append(buffer, *n);
      std::string_view payload;
      std::size_t consumed = 0;
      while (ExtractFrame(received, &payload, &consumed, nullptr) ==
             FrameStatus::kFrame) {
        WireRequest request;
        (void)DecodeRequestPayload(payload, &request);
        received.erase(0, consumed);
        std::this_thread::sleep_for(delay);
        WireResponse response;
        response.op = request.op;
        (void)SendAll(fd, EncodeResponse(response));
      }
    }
    CloseFd(fd);
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(PollWindow, ClientParksOnASlowServer) {
  SlowPeer peer(2ms);
  AigsClient client;
  ASSERT_TRUE(client.Connect(peer.endpoint()).ok());
  constexpr std::uint64_t kCalls = 100;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(client.Ask(1).ok());
  }
  // Every call ended a wait of its own.
  EXPECT_GE(client.polled_waits() + client.parked_waits(), kCalls);
  // A 2 ms reply halves the window on every call, so it stays 0 and the
  // client parks at once: far below the kSpinMax (64 µs) a fixed window
  // would poll away on every call.
  EXPECT_LE(client.poll_ns() / kCalls, kSpinStartNs);
  EXPECT_GT(client.parked_waits(), client.polled_waits());
  client.Disconnect();
}

TEST(PollWindow, ClientPollsInAClosedLoop) {
#ifdef AIGS_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer slowdowns stretch replies past the window";
#endif
  const Hierarchy h = TestHierarchy();
  Backend backend(h);

  AigsClient client;
  ASSERT_TRUE(client.Connect(backend.server.endpoint()).ok());
  auto id = client.Open("greedy");
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(client.Ask(*id).ok());
  }
  // A polling server answers within the client's window.
  EXPECT_GT(client.polled_waits(), 0u);
}

/// Pins the calling thread, and every thread it starts, to the first CPU
/// in its affinity mask; the destructor restores the mask.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    CPU_ZERO(&saved_);
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        cpu_set_t one{};
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
        return;
      }
    }
  }
  ~PinnedToOneCpu() {
    if (pinned_) {
      (void)::sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// On a 4-vCPU VM the best round read 15–28 ms under ctest -j4, and
/// 114–124 ms with a client that polls without yielding.
constexpr std::chrono::milliseconds kOneCpuBound{60};

TEST(PollWindow, PollingEndsGiveWayOnOneCpu) {
#ifdef AIGS_TEST_SANITIZED
  GTEST_SKIP() << "a wall-time bound";
#endif
  const Hierarchy h = TestHierarchy();
  // The default pool lives for the whole binary: create it unpinned.
  (void)ThreadPool::Default();
  std::chrono::steady_clock::duration took{};
  {
    PinnedToOneCpu pin;
    ASSERT_TRUE(pin.pinned());
    // Started pinned, so the server's threads share the client's CPU.
    Backend backend(h);
    AigsClient client;
    ASSERT_TRUE(client.Connect(backend.server.endpoint()).ok());
    auto id = client.Open("greedy");
    ASSERT_TRUE(id.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(client.Ask(*id).ok());
    }
    // Best of a few rounds: a test process that lands on the same CPU for
    // a while (ctest -j) slows a round without saying anything about the
    // two ends, and a yield hands such a process a whole time slice.
    took = std::chrono::steady_clock::duration::max();
    for (int round = 0; round < 5; ++round) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(client.Ask(*id).ok());
      }
      took = std::min(took, std::chrono::steady_clock::now() - start);
    }
  }
  // Each end yields between polls, so the other runs at once; a client
  // that spun through its window would hold the only CPU the server could
  // answer on.
  EXPECT_LT(took, kOneCpuBound)
      << std::chrono::duration_cast<std::chrono::microseconds>(took).count()
      << " us";
}

TEST(PollWindow, StopReturnsPromptlyMidBurst) {
  const Hierarchy h = TestHierarchy();
  Backend backend(h);

  AigsClient client;
  ASSERT_TRUE(client.Connect(backend.server.endpoint()).ok());
  auto id = client.Open("greedy");
  ASSERT_TRUE(id.ok());
  const SessionId session = *id;
  std::atomic<int> served{0};
  // The burst ends when Stop() closes the connection under it.
  std::thread burst([&client, &served, session] {
    while (client.Ask(session).ok()) {
      served.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (served.load(std::memory_order_relaxed) < 200 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const auto start = std::chrono::steady_clock::now();
  backend.server.Stop();
  const auto took = std::chrono::steady_clock::now() - start;
  burst.join();
  EXPECT_GE(served.load(), 200);
  EXPECT_LT(took, 100ms);
}

/// Lowers the soft RLIMIT_NOFILE to `limit` and opens fds until none is
/// left below it; the destructor frees them and restores the limit.
class FdTableFull {
 public:
  explicit FdTableFull(rlim_t limit) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min(saved_.rlim_cur, limit);
    ::setrlimit(RLIMIT_NOFILE, &lowered);
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        full_ = errno == EMFILE;
        break;
      }
      fds_.push_back(fd);
    }
  }
  ~FdTableFull() {
    for (const int fd : fds_) {
      CloseFd(fd);
    }
    ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  FdTableFull(const FdTableFull&) = delete;
  FdTableFull& operator=(const FdTableFull&) = delete;

  bool full() const { return full_; }

 private:
  rlimit saved_{};
  std::vector<int> fds_;
  bool full_ = false;
};

bool ConnectLoopback(int fd, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0;
}

TEST(ServerClient, AcceptorBacksOffAtTheFdLimit) {
  const Hierarchy h = TestHierarchy();
  Backend backend(h);

  // Client sockets take their fds before the table fills and connect
  // after, so every connection waits in the backlog on an accept4 that
  // fails with EMFILE.
  std::vector<int> clients;
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    clients.push_back(fd);
  }
  {
    FdTableFull table(256);
    ASSERT_TRUE(table.full());
    for (const int fd : clients) {
      ASSERT_TRUE(ConnectLoopback(fd, backend.server.port()));
    }
    EXPECT_LT(CpuOver(300ms), 30ms);  // < 10% of a core
    EXPECT_EQ(backend.server.connections_accepted(), 0u);
  }

  // With fds free again the queued connections are accepted and served.
  timeval timeout{};
  timeout.tv_sec = 5;
  ASSERT_EQ(::setsockopt(clients[0], SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  WireRequest open;
  open.op = WireOp::kOpen;
  open.text = "greedy";
  ASSERT_TRUE(SendAll(clients[0], EncodeRequest(open)).ok());
  std::string received;
  std::string_view payload;
  std::size_t consumed = 0;
  while (ExtractFrame(received, &payload, &consumed, nullptr) ==
         FrameStatus::kNeedMore) {
    char buffer[4096];
    auto n = RecvSome(clients[0], buffer, sizeof(buffer));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(*n, 0u) << "server closed the connection";
    received.append(buffer, *n);
  }
  WireResponse response;
  ASSERT_TRUE(DecodeResponsePayload(payload, &response).ok());
  EXPECT_TRUE(response.ok()) << response.message;
  EXPECT_EQ(response.op, WireOp::kOpen);
  // The reply proves client 0 was accepted; the others may still be in
  // flight to the acceptor.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (backend.server.connections_accepted() < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(backend.server.connections_accepted(), 4u);
  for (const int fd : clients) {
    CloseFd(fd);
  }
}

// ---- consistent-hash ring + router ----------------------------------------

std::vector<Endpoint> FakeEndpoints(std::size_t n) {
  std::vector<Endpoint> endpoints;
  for (std::size_t i = 0; i < n; ++i) {
    endpoints.push_back({"10.0.0." + std::to_string(i + 1), 8400});
  }
  return endpoints;
}

TEST(ShardRing, DeterministicAcrossInstancesAndBalanced) {
  const auto endpoints = FakeEndpoints(3);
  const ShardRing a(endpoints, 64);
  const ShardRing b(endpoints, 64);
  std::vector<std::size_t> hits(3, 0);
  Rng rng(5);
  for (int i = 0; i < 30'000; ++i) {
    const std::uint64_t id = rng.Next();
    const std::size_t shard = a.ShardFor(id);
    EXPECT_EQ(shard, b.ShardFor(id));  // any replica places identically
    ++hits[shard];
  }
  for (const std::size_t count : hits) {
    EXPECT_GT(count, 30'000u * 15 / 100)
        << "a shard owns under 15% of the keyspace";
  }
}

TEST(ShardRing, RemovingOneEndpointOnlyMovesItsOwnSessions) {
  const auto three = FakeEndpoints(3);
  const std::vector<Endpoint> two = {three[0], three[1]};
  const ShardRing full(three, 64);
  const ShardRing reduced(two, 64);
  Rng rng(6);
  std::size_t moved = 0, kept = 0;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t id = rng.Next();
    const std::size_t before = full.ShardFor(id);
    const std::size_t after = reduced.ShardFor(id);
    if (before == 2) {
      ++moved;  // orphaned arc — lands wherever
    } else {
      EXPECT_EQ(after, before) << "id not owned by the removed endpoint "
                                  "changed shards";
      ++kept;
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(kept, 0u);
}

TEST(ShardRouter, RoutesSessionsAcrossThreeBackendsWithNoCrossTalk) {
  const Hierarchy h = TestHierarchy();
  Backend s0(h), s1(h), s2(h);
  std::vector<Engine*> engines = {&s0.engine, &s1.engine, &s2.engine};
  std::vector<Endpoint> endpoints = {s0.server.endpoint(),
                                     s1.server.endpoint(),
                                     s2.server.endpoint()};
  ShardRouter router(endpoints);

  constexpr int kSessions = 24;
  Rng rng(9);
  std::vector<SessionId> ids;
  for (int i = 0; i < kSessions; ++i) {
    auto id = router.Open("greedy");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
    // The id alone names the owning shard — verify it really lives there
    // and nowhere else.
    const std::size_t shard = router.ring().ShardFor(*id);
    EXPECT_TRUE(engines[shard]->Ask(*id).ok());
    for (std::size_t other = 0; other < engines.size(); ++other) {
      if (other != shard) {
        EXPECT_FALSE(engines[other]->Ask(*id).ok());
      }
    }
  }
  // Ordinary traffic routes without any session→shard table.
  for (const SessionId id : ids) {
    const NodeId target = static_cast<NodeId>(rng.UniformInt(h.NumNodes()));
    EXPECT_EQ(DriveToDone(router, h, id, target), target);
  }
  // Save on one shard, resume (fresh id, possibly another shard).
  auto blob = router.Save(ids[0]);
  ASSERT_TRUE(blob.ok());
  auto resumed = router.Resume(*blob);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(
      engines[router.ring().ShardFor(*resumed)]->Ask(*resumed).ok());

  // Aggregated stats see the whole fleet's traffic.
  auto stats = router.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->ops.opens, static_cast<std::uint64_t>(kSessions));
  EXPECT_EQ(stats->ops.resumes, 1u);
  std::uint64_t direct_opens = 0;
  for (Engine* engine : engines) {
    const EngineStats es = engine->Stats();
    direct_opens += es.ops.opens;
    EXPECT_GT(es.ops.opens, 0u) << "a shard received no sessions";
  }
  EXPECT_EQ(direct_opens, stats->ops.opens);
}

TEST(ShardRouter, RedrawsOnProposedIdCollision) {
  const Hierarchy h = TestHierarchy();
  Backend backend(h);
  const std::vector<Endpoint> endpoints = {backend.server.endpoint()};

  ShardRouterOptions options;
  options.salt = 42;
  // The router's id stream is deterministic: occupy its FIRST draw
  // directly on the backend, forcing a FailedPrecondition and a redraw.
  SessionId first = Mix64(options.salt ^ 1);
  if (first == 0) {
    first = 1;
  }
  ASSERT_TRUE(backend.engine.Open("greedy", first).ok());

  ShardRouter router(endpoints, options);
  auto id = router.Open("greedy");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_NE(*id, first);
  EXPECT_TRUE(backend.engine.Ask(*id).ok());
}

TEST(ShardRouter, ConcurrentCallersShareOneRouter) {
  // 4 threads drive full sessions through ONE shared router against a
  // 3-shard fleet: every op leases a pooled connection, so callers never
  // serialize on each other's socket I/O and never corrupt each other's
  // framing. All ids must stay distinct, every search must find its
  // target, and the fleet must see exactly the expected op counts.
  const Hierarchy h = TestHierarchy();
  Backend s0(h), s1(h), s2(h);
  ShardRouter router({s0.server.endpoint(), s1.server.endpoint(),
                      s2.server.endpoint()});

  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::vector<SessionId>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kSessionsPerThread; ++i) {
        auto id = router.Open("greedy");
        if (!id.ok()) {
          ++failures;
          return;
        }
        ids[t].push_back(*id);
        const NodeId target =
            static_cast<NodeId>(rng.UniformInt(h.NumNodes()));
        if (DriveToDone(router, h, *id, target) != target) {
          ++failures;
          return;
        }
        // Half the sessions also exercise Save + Close concurrently.
        if (i % 2 == 0) {
          if (!router.Save(*id).ok() || !router.Close(*id).ok()) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ASSERT_EQ(failures.load(), 0);

  std::set<SessionId> distinct;
  for (const std::vector<SessionId>& per_thread : ids) {
    ASSERT_EQ(per_thread.size(),
              static_cast<std::size_t>(kSessionsPerThread));
    distinct.insert(per_thread.begin(), per_thread.end());
  }
  EXPECT_EQ(distinct.size(),
            static_cast<std::size_t>(kThreads * kSessionsPerThread));

  auto stats = router.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->ops.opens,
            static_cast<std::uint64_t>(kThreads * kSessionsPerThread));
  EXPECT_EQ(stats->ops.saves,
            static_cast<std::uint64_t>(kThreads * kSessionsPerThread / 2));
  EXPECT_EQ(stats->ops.closes,
            static_cast<std::uint64_t>(kThreads * kSessionsPerThread / 2));

  // DisconnectAll only drops idle pooled connections; traffic after it
  // simply redials.
  router.DisconnectAll();
  auto id = router.Open("greedy");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(DriveToDone(router, h, *id, h.root()), h.root());
}

// ---- loadgen ---------------------------------------------------------------

TEST(Loadgen, ClosedLoopAgainstOneServer) {
  const Hierarchy h = TestHierarchy();
  Backend backend(h);

  LoadgenOptions options;
  options.targets = {backend.server.endpoint()};
  options.connections = 4;
  options.max_requests = 400;
  options.hierarchy = &h;
  auto result = RunLoadgen(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->requests, 400u);
  EXPECT_EQ(result->errors, 0u);
  EXPECT_EQ(result->wrong_targets, 0u);
  EXPECT_GT(result->sessions_completed, 0u);
  EXPECT_GT(result->throughput_rps, 0.0);
  EXPECT_GE(result->p99_us, result->p50_us);
}

TEST(Loadgen, ShardedRunPinsSessionsToEachConnectionsShard) {
  const Hierarchy h = TestHierarchy();
  Backend s0(h), s1(h), s2(h);

  LoadgenOptions options;
  options.targets = {s0.server.endpoint(), s1.server.endpoint(),
                     s2.server.endpoint()};
  options.connections = 6;  // two per shard
  options.max_requests = 600;
  options.hierarchy = &h;
  auto result = RunLoadgen(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->errors, 0u);
  EXPECT_EQ(result->wrong_targets, 0u);
  // Every shard served opens, and none rejected a misrouted id: proposed
  // ids were rejection-sampled onto the right shard.
  for (Engine* engine : {&s0.engine, &s1.engine, &s2.engine}) {
    const EngineStats stats = engine->Stats();
    EXPECT_GT(stats.ops.opens, 0u);
    EXPECT_EQ(stats.ops.rejected, 0u);
  }
}

}  // namespace
}  // namespace aigs::net
