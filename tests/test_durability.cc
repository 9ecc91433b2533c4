// Durable session store: WAL framing, checkpoints, and crash recovery.
//  (1) WAL round trips, torn tails, and bit rot at the frame layer;
//  (2) deterministic shutdown → Recover round trips for every registry
//      policy on tree and DAG catalogs (bit-identical Save blobs, original
//      ids), with and without an intervening checkpoint;
//  (3) crash injection: a child process killed (SIGKILL) at randomized
//      points between WAL append and ack — recovery must restore every
//      acked session exactly; only the single in-flight operation may be
//      ahead of or behind the ack stream;
//  (4) recovery/TTL interplay under an injected wall clock;
//  (5) Save and Checkpoint under concurrent Answer traffic;
//  (6) adversarial SessionCodec decode (truncations, bit flips, garbage).
#include "service/durable_store.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/policy_registry.h"
#include "eval/runner.h"
#include "graph/generators.h"
#include "oracle/oracle.h"
#include "service/engine.h"
#include "service/session_codec.h"
#include "service/wal.h"
#include "tests/test_support.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace aigs {
namespace {

using testing::MustBuild;

/// Self-cleaning scratch directory for one test's durable store.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("aigs_durability_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AIGS_CHECK(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  AIGS_CHECK(out.good());
}

/// The newest WAL segment in a durable directory (recovery's final input).
std::string NewestSegment(const std::string& dir) {
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && (newest.empty() || name > newest)) {
      newest = entry.path().string();
    }
  }
  AIGS_CHECK(!newest.empty());
  return newest;
}

/// One frame as a plain write(2) appender lays it out: u32 length, u32
/// CRC-32, payload (little-endian).
std::string Frame(std::string_view payload) {
  std::string out;
  for (const std::uint32_t v : {static_cast<std::uint32_t>(payload.size()),
                                Crc32(payload)}) {
    for (int shift = 0; shift < 32; shift += 8) {
      out += static_cast<char>((v >> shift) & 0xFF);
    }
  }
  out += payload;
  return out;
}

/// Runs `body` in a forked child and returns its wait status. `body` must
/// end the child itself (_exit or a signal); returning exits 42.
int RunInChild(const std::function<void()>& body) {
  const pid_t pid = ::fork();
  AIGS_CHECK(pid >= 0);
  if (pid == 0) {
    body();
    ::_exit(42);
  }
  int wstatus = 0;
  AIGS_CHECK(::waitpid(pid, &wstatus, 0) == pid);
  return wstatus;
}

// ---- shared catalog fixtures (mirrors test_service.cc) ---------------------

struct ServiceCase {
  std::string name;
  Hierarchy hierarchy;
  Distribution distribution;
};

std::vector<ServiceCase>& ServiceCases() {
  static std::vector<ServiceCase>* cases = [] {
    auto* out = new std::vector<ServiceCase>();
    Rng rng(99);
    Hierarchy tree = MustBuild(RandomTree(45, rng));
    Distribution tree_dist =
        ZipfRandomDistribution(tree.NumNodes(), 2.0, rng);
    out->push_back({"tree", std::move(tree), std::move(tree_dist)});
    Hierarchy dag = MustBuild(RandomDag(45, rng, 0.4));
    Distribution dag_dist = ZipfRandomDistribution(dag.NumNodes(), 2.0, rng);
    out->push_back({"dag", std::move(dag), std::move(dag_dist)});
    return out;
  }();
  return *cases;
}

std::vector<std::string> SpecsFor(const Hierarchy& h) {
  std::string full_order = "scripted:order=";
  for (NodeId v = 0; v < h.NumNodes(); ++v) {
    if (v == h.root()) {
      continue;
    }
    if (full_order.back() != '=') {
      full_order += '+';
    }
    full_order += std::to_string(v);
  }
  std::vector<std::string> specs = {
      "greedy",         "greedy_dag",     "greedy_naive",
      "naive",          "batched:k=3",    "cost_sensitive",
      "migs",           "migs:ordered=true",
      "wigs",           "top_down",       "topdown",
      full_order,
  };
  if (h.is_tree()) {
    specs.push_back("greedy_tree");
    specs.push_back("greedy_tree:scan=heap");
  }
  return specs;
}

std::shared_ptr<const CostModel> SomeCosts(std::size_t n) {
  Rng rng(7);
  return std::make_shared<const CostModel>(
      CostModel::UniformRandom(n, 1, 9, rng));
}

CatalogConfig ConfigFor(const ServiceCase& c,
                        std::vector<std::string> specs) {
  CatalogConfig config;
  config.hierarchy = UnownedHierarchy(c.hierarchy);
  config.distribution = c.distribution;
  config.cost_model = SomeCosts(c.hierarchy.NumNodes());
  config.policy_specs = std::move(specs);
  return config;
}

/// Engine options without a session TTL, so recovery only drops sessions
/// for idleness where a test sets one. The crash tests fork(): no Engine
/// is alive across the fork (the parent builds its recovering Engine after
/// waitpid), and the child's Engine publishes once, so its drain worker,
/// which starts its threads with the first republish, starts none there.
EngineOptions NoTtlEngineOptions() {
  EngineOptions opts;
  opts.sessions.ttl_millis = 0;
  return opts;
}

TranscriptStep StepFrom(const Query& q, const SessionAnswer& a) {
  TranscriptStep step;
  step.kind = q.kind;
  step.nodes = q.kind == Query::Kind::kReach ? std::vector<NodeId>{q.node}
                                             : q.choices;
  step.yes = a.yes;
  step.batch_answers = a.batch;
  step.choice = a.choice;
  return step;
}

/// The canonical one-line step encoding, without the trailing newline.
std::string StepLine(const TranscriptStep& step) {
  std::string out;
  SessionCodec::AppendStepKey(step, &out);
  out.pop_back();
  return out;
}

/// Answers up to `max_steps` questions with the oracle; true when done.
bool Drive(Engine& engine, SessionId id, Oracle& oracle,
           std::size_t max_steps) {
  for (std::size_t step = 0; step < max_steps; ++step) {
    auto q = engine.Ask(id);
    AIGS_CHECK(q.ok());
    if (q->kind == Query::Kind::kDone) {
      return true;
    }
    const Status s = engine.Answer(id, AnswerFromOracle(*q, oracle));
    AIGS_CHECK(s.ok());
  }
  return false;
}

// ---- (1) WAL frame layer ---------------------------------------------------

TEST(Wal, RoundTripsBinaryPayloads) {
  TempDir dir("wal_roundtrip");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/wal-000001.log";
  const std::vector<std::string> payloads = {
      "open 1 1000\naigs-session/2\n",
      std::string("\x00\x01\xFF binary \n\n payload", 21),
      "",  // empty payloads are legal frames
      std::string(100000, 'x'),
  };
  {
    auto writer = WalWriter::Open(path, {FsyncPolicy::kAlways, 1});
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& p : payloads) {
      ASSERT_TRUE((*writer)->Append(p).ok());
    }
    EXPECT_EQ((*writer)->records(), payloads.size());
    EXPECT_EQ((*writer)->syncs(), payloads.size());  // always = every append
  }
  auto scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, payloads);
  EXPECT_EQ(scan->torn_bytes, 0u);
}

TEST(Wal, IntervalPolicyBatchesFsyncs) {
  TempDir dir("wal_interval");
  std::filesystem::create_directories(dir.path());
  auto writer =
      WalWriter::Open(dir.path() + "/w.log", {FsyncPolicy::kInterval, 8});
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 20; ++i) {
    // Two-step concat dodges a GCC 12 -Wrestrict false positive in the
    // inlined char* + string&& operator+.
    std::string record = "r";
    record += std::to_string(i);
    ASSERT_TRUE((*writer)->Append(record).ok());
  }
  EXPECT_EQ((*writer)->syncs(), 2u);  // at records 8 and 16
  ASSERT_TRUE((*writer)->Sync().ok());
  EXPECT_EQ((*writer)->syncs(), 3u);
}

TEST(Wal, TornTailIsDiscardedNeverFatal) {
  TempDir dir("wal_torn");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/w.log";
  {
    auto writer = WalWriter::Open(path, {FsyncPolicy::kNone, 1});
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*writer)->Append("record-" + std::to_string(i)).ok());
    }
  }
  const std::string intact = ReadFile(path);

  // Truncation mid-frame: the last record's tail is gone.
  WriteFile(path, intact.substr(0, intact.size() - 3));
  auto scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 4u);
  EXPECT_GT(scan->torn_bytes, 0u);

  // Garbage appended after valid frames: counted as torn, frames intact.
  WriteFile(path, intact + "\x07garbage that is not a frame");
  scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 5u);
  EXPECT_GT(scan->torn_bytes, 0u);

  // A flipped bit mid-file fails that frame's CRC; everything behind the
  // damaged frame is untrusted (its framing derives from damaged bytes).
  std::string flipped = intact;
  flipped[intact.size() / 2] ^= 0x10;
  WriteFile(path, flipped);
  scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_LT(scan->records.size(), 5u);
  for (std::size_t i = 0; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i], "record-" + std::to_string(i));
  }

  // Missing file: an empty scan, not an error.
  auto missing = ReadWal(dir.path() + "/does-not-exist.log");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->records.empty());
}

TEST(Wal, ClosedSegmentHoldsExactlyItsFrames) {
  // The frame bytes are the format: a closed segment is byte-identical to
  // the frames a plain write(2) appender would have written, with nothing
  // after the last one. The payloads straddle the 256 KiB window, one is
  // wider than it, and an empty payload ends the segment.
  TempDir dir("wal_closed");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/w.log";
  const std::vector<std::string> payloads = {
      std::string((256 << 10) - 100, 'a'),  // next frame crosses 256 KiB
      std::string(200, 'b'),
      "",
      std::string(300 << 10, 'c'),  // wider than the window
      "tail",
      "",
  };
  std::string expected;
  {
    auto writer = WalWriter::Open(path, {FsyncPolicy::kNone, 1});
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& p : payloads) {
      ASSERT_TRUE((*writer)->Append(p).ok());
      expected += Frame(p);
    }
    EXPECT_EQ((*writer)->bytes(), expected.size());
  }
  EXPECT_EQ(ReadFile(path), expected);
  auto scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, payloads);
  EXPECT_EQ(scan->valid_bytes, expected.size());
  EXPECT_EQ(scan->torn_bytes, 0u);

  // Reopening appends after the last frame.
  {
    auto writer = WalWriter::Open(path, {FsyncPolicy::kNone, 1});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("more").ok());
  }
  EXPECT_EQ(ReadFile(path), expected + Frame("more"));
}

TEST(Wal, FailedAppendLeavesNoPartialFrame) {
  // A file-size limit fails appends mid-stream. A writer that wrote part
  // of a frame before failing would hide every record acked after it
  // behind a torn frame; space is reserved before any byte is copied, so
  // every acked record must read back and nothing is torn.
  for (const std::size_t size : {std::size_t{60}, std::size_t{40} << 10}) {
    SCOPED_TRACE("payload bytes " + std::to_string(size));
    TempDir dir("wal_fsize");
    std::filesystem::create_directories(dir.path());
    const std::string path = dir.path() + "/w.log";
    const auto payload = [size](int i) {
      std::string p = "record-" + std::to_string(i) + "-";
      p.resize(size, static_cast<char>('a' + i % 26));
      return p;
    };
    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    const int wstatus = RunInChild([&] {
      ::close(pipefd[0]);
      auto writer = WalWriter::Open(path, {FsyncPolicy::kNone, 1});
      rlimit original{};
      if (!writer.ok() || ::getrlimit(RLIMIT_FSIZE, &original) != 0) {
        ::_exit(42);
      }
      ::signal(SIGXFSZ, SIG_IGN);
      rlimit limited = original;
      limited.rlim_cur = 1000;
      std::string acks;
      for (int i = 0; i < 45; ++i) {
        if (i == 0 || i == 40) {  // limit the first 40, lift for the rest
          if (::setrlimit(RLIMIT_FSIZE, i == 0 ? &limited : &original) !=
              0) {
            ::_exit(42);
          }
        }
        acks += (*writer)->Append(payload(i)).ok() ? '1' : '0';
      }
      if (::write(pipefd[1], acks.data(), acks.size()) !=
          static_cast<ssize_t>(acks.size())) {
        ::_exit(42);
      }
      ::_exit(0);  // no close: the segment keeps its preallocated tail
    });
    ::close(pipefd[1]);
    char acks[64] = {};
    const ssize_t got = ::read(pipefd[0], acks, sizeof(acks));
    ::close(pipefd[0]);
    ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
        << "child status " << wstatus;
    ASSERT_EQ(got, 45);
    std::vector<std::string> acked;
    for (int i = 0; i < 45; ++i) {
      if (acks[i] == '1') {
        acked.push_back(payload(i));
      }
    }
    EXPECT_EQ(std::string(acks + 40, 5), "11111");  // lifted: all land
    if (size > 1000) {
      // Enough bytes to outgrow the first reservation under the limit.
      EXPECT_NE(std::string(acks, 40).find('0'), std::string::npos);
    }
    auto scan = ReadWal(path);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->records, acked);
    EXPECT_EQ(scan->torn_bytes, 0u);
  }
}

TEST(Wal, CrashedSegmentReadsClean) {
  // A writer that dies without closing leaves its preallocated zeros after
  // the last frame. They are unused space, not a torn tail.
  std::vector<std::string> payloads;
  for (int i = 0; i < 200; ++i) {
    // Empty payloads mid-segment stay legal frames.
    payloads.push_back(i % 7 == 2 ? "" : "crash-record-" + std::to_string(i));
  }
  for (const bool sigkill : {false, true}) {
    SCOPED_TRACE(sigkill ? "SIGKILL" : "_exit");
    TempDir dir("wal_crash");
    std::filesystem::create_directories(dir.path());
    const std::string path = dir.path() + "/w.log";
    const int wstatus = RunInChild([&] {
      auto writer = WalWriter::Open(path, {FsyncPolicy::kNone, 1});
      if (!writer.ok()) {
        ::_exit(42);
      }
      for (const std::string& p : payloads) {
        if (!(*writer)->Append(p).ok()) {
          ::_exit(42);
        }
      }
      if (sigkill) {
        ::raise(SIGKILL);
      }
      ::_exit(0);
    });
    ASSERT_TRUE(sigkill ? WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL
                        : WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
        << "child status " << wstatus;

    auto scan = ReadWal(path);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->records, payloads);
    EXPECT_EQ(scan->torn_bytes, 0u);
    const std::string crashed = ReadFile(path);
    ASSERT_GT(crashed.size(), scan->valid_bytes);  // the zero tail

    // A nonzero byte in the zero tail is damage: torn, frames intact.
    std::string planted = crashed;
    planted[scan->valid_bytes + 100] = '\x5A';
    WriteFile(path, planted);
    auto damaged = ReadWal(path);
    ASSERT_TRUE(damaged.ok());
    EXPECT_EQ(damaged->records, payloads);
    EXPECT_EQ(damaged->valid_bytes, scan->valid_bytes);
    EXPECT_EQ(damaged->torn_bytes, crashed.size() - scan->valid_bytes);

    // A reopened writer appends after the last frame, over the damage.
    WriteFile(path, crashed);
    {
      auto writer = WalWriter::Open(path, {FsyncPolicy::kNone, 1});
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE((*writer)->Append("resumed").ok());
    }
    auto resumed = ReadWal(path);
    ASSERT_TRUE(resumed.ok());
    ASSERT_EQ(resumed->records.size(), payloads.size() + 1);
    EXPECT_EQ(resumed->records.back(), "resumed");
    EXPECT_EQ(resumed->torn_bytes, 0u);
  }

  // The one unreadable case (see wal.h): an empty payload as the last
  // frame of a crashed segment is indistinguishable from the zero tail.
  TempDir dir("wal_crash_empty");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/w.log";
  const int wstatus = RunInChild([&] {
    auto writer = WalWriter::Open(path, {FsyncPolicy::kNone, 1});
    if (!writer.ok() || !(*writer)->Append("kept").ok() ||
        !(*writer)->Append("").ok()) {
      ::_exit(42);
    }
    ::_exit(0);
  });
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  auto scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, std::vector<std::string>{"kept"});
  EXPECT_EQ(scan->torn_bytes, 0u);
}

TEST(Wal, ConcurrentAppendersKeepEachThreadsOrder) {
  // Frames of varying size cross many window boundaries and growth steps;
  // one is wider than the whole window.
  TempDir dir("wal_concurrent");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/w.log";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  const auto payload = [](int thread, int i) {
    std::string p = std::to_string(thread) + " " + std::to_string(i) + " ";
    const std::size_t size =
        thread == 0 && i == kPerThread / 2
            ? std::size_t{300} << 10
            : static_cast<std::size_t>((i * 37 + thread * 101) % 700);
    p.resize(std::max(p.size(), size), static_cast<char>('a' + thread));
    return p;
  };
  {
    auto writer = WalWriter::Open(path, {FsyncPolicy::kInterval, 1024});
    ASSERT_TRUE(writer.ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&writer, &payload, t] {
        for (int i = 0; i < kPerThread; ++i) {
          AIGS_CHECK((*writer)->Append(payload(t, i)).ok());
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    EXPECT_EQ((*writer)->records(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
  }
  auto scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->torn_bytes, 0u);
  ASSERT_EQ(scan->records.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<int> next(kThreads, 0);
  for (const std::string& record : scan->records) {
    std::istringstream in(record);
    int thread = -1;
    int i = -1;
    in >> thread >> i;
    ASSERT_TRUE(thread >= 0 && thread < kThreads) << record.substr(0, 20);
    ASSERT_EQ(i, next[thread]) << "thread " << thread << " out of order";
    ASSERT_EQ(record, payload(thread, i));
    ++next[thread];
  }
}

TEST(Wal, ParseFsyncPolicy) {
  auto always = ParseFsyncPolicy("always");
  ASSERT_TRUE(always.ok());
  EXPECT_EQ(always->policy, FsyncPolicy::kAlways);
  auto interval = ParseFsyncPolicy("interval:16");
  ASSERT_TRUE(interval.ok());
  EXPECT_EQ(interval->policy, FsyncPolicy::kInterval);
  EXPECT_EQ(interval->interval, 16u);
  EXPECT_EQ(FormatFsyncPolicy(*interval), "interval:16");
  auto none = ParseFsyncPolicy("none");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->policy, FsyncPolicy::kNone);
  EXPECT_FALSE(ParseFsyncPolicy("interval:0").ok());
  EXPECT_FALSE(ParseFsyncPolicy("interval:x").ok());
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").ok());
}

// ---- (2) deterministic shutdown → Recover round trips ----------------------

/// Runs every registry policy through open + a few answers, shuts the
/// engine down (destructor flush), recovers into a fresh engine, and
/// demands bit-identical Save blobs under the original ids.
void RoundTripCase(const ServiceCase& c, bool checkpoint_midway) {
  TempDir dir(std::string("roundtrip_") + c.name +
              (checkpoint_midway ? "_ckpt" : ""));
  const std::vector<std::string> specs = SpecsFor(c.hierarchy);
  std::map<SessionId, std::string> expected;  // id -> final Save blob
  SessionId closed_id = 0;
  {
    Engine engine(NoTtlEngineOptions());
    ASSERT_TRUE(engine.Publish(ConfigFor(c, specs)).ok());
    DurabilityOptions dopts;
    dopts.dir = dir.path();
    dopts.sync = {FsyncPolicy::kInterval, 4};
    dopts.checkpoint_every = 0;  // manual only: the test picks the moment
    ASSERT_TRUE(engine.EnableDurability(dopts).ok());
    ASSERT_TRUE(engine.durable());

    std::size_t spec_index = 0;
    for (const std::string& spec : specs) {
      auto opened = engine.Open(spec);
      ASSERT_TRUE(opened.ok()) << spec << ": " << opened.status().ToString();
      ExactOracle oracle(c.hierarchy.reach(),
                         static_cast<NodeId>(c.hierarchy.NumNodes() - 1));
      Drive(engine, *opened, oracle, 3);
      auto blob = engine.Save(*opened);
      ASSERT_TRUE(blob.ok());
      expected[*opened] = *blob;
      if (checkpoint_midway && ++spec_index == specs.size() / 2) {
        // Half the sessions come back from the checkpoint, half from the
        // WAL tail written after it.
        ASSERT_TRUE(engine.Checkpoint().ok());
      }
    }

    // One closed session must stay closed across recovery.
    auto doomed = engine.Open(specs.front());
    ASSERT_TRUE(doomed.ok());
    closed_id = *doomed;
    ASSERT_TRUE(engine.Close(closed_id).ok());
    ASSERT_TRUE(engine.FlushDurable().ok());
  }

  Engine engine(NoTtlEngineOptions());
  ASSERT_TRUE(engine.Publish(ConfigFor(c, specs)).ok());
  DurabilityOptions dopts;
  dopts.dir = dir.path();
  dopts.sync = {FsyncPolicy::kInterval, 4};
  auto recovery = engine.Recover(dopts);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->recovered, expected.size());
  EXPECT_EQ(recovery->expired_dropped, 0u);
  EXPECT_EQ(recovery->replay_failures, 0u);
  EXPECT_EQ(recovery->divergent_sessions, 0u);  // same catalog: exact replay
  EXPECT_EQ(recovery->malformed_records, 0u);
  EXPECT_EQ(recovery->torn_tails, 0u);  // graceful shutdown tears nothing
  if (checkpoint_midway) {
    EXPECT_GT(recovery->checkpoint_sessions, 0u);
  }
  EXPECT_TRUE(engine.durable());

  for (const auto& [id, blob] : expected) {
    auto roundtripped = engine.Save(id);
    ASSERT_TRUE(roundtripped.ok()) << "session " << id << " not recovered";
    EXPECT_EQ(*roundtripped, blob) << "session " << id;
  }
  EXPECT_FALSE(engine.Save(closed_id).ok());
  // Recovered ids are never reissued: a fresh session gets a fresh id.
  auto fresh = engine.Open(specs.front());
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, expected.rbegin()->first);
  EXPECT_EQ(engine.Stats().recovered, expected.size());
}

TEST(DurableRecovery, RoundTripEveryPolicyWalOnly) {
  for (const ServiceCase& c : ServiceCases()) {
    SCOPED_TRACE(c.name);
    RoundTripCase(c, /*checkpoint_midway=*/false);
  }
}

TEST(DurableRecovery, RoundTripEveryPolicyThroughCheckpoint) {
  for (const ServiceCase& c : ServiceCases()) {
    SCOPED_TRACE(c.name);
    RoundTripCase(c, /*checkpoint_midway=*/true);
  }
}

TEST(DurableRecovery, TornSegmentTailLosesOnlyTheTail) {
  const ServiceCase& c = ServiceCases().front();
  TempDir dir("torn_tail");
  SessionId id = 0;
  {
    Engine engine(NoTtlEngineOptions());
    ASSERT_TRUE(engine.Publish(ConfigFor(c, {"greedy"})).ok());
    DurabilityOptions dopts;
    dopts.dir = dir.path();
    dopts.sync = {FsyncPolicy::kAlways, 1};
    dopts.checkpoint_every = 0;
    ASSERT_TRUE(engine.EnableDurability(dopts).ok());
    auto opened = engine.Open("greedy");
    ASSERT_TRUE(opened.ok());
    id = *opened;
    ExactOracle oracle(c.hierarchy.reach(), 7);
    Drive(engine, id, oracle, 3);
  }
  // Simulate a crash mid-append: chop bytes off the newest segment's tail.
  const std::string segment = NewestSegment(dir.path());
  const std::string intact = ReadFile(segment);
  WriteFile(segment, intact.substr(0, intact.size() - 5));

  Engine engine(NoTtlEngineOptions());
  ASSERT_TRUE(engine.Publish(ConfigFor(c, {"greedy"})).ok());
  DurabilityOptions dopts;
  dopts.dir = dir.path();
  auto recovery = engine.Recover(dopts);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->torn_tails, 1u);
  EXPECT_GT(recovery->torn_bytes, 0u);
  // The damaged record was the last answer: the session survives with a
  // strict prefix of its transcript (or, if the open record itself was the
  // casualty, not at all — here 3 answers follow the open, so it must).
  ASSERT_EQ(recovery->recovered, 1u);
  auto blob = engine.Save(id);
  ASSERT_TRUE(blob.ok());
  auto decoded = SessionCodec::Decode(*blob);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->steps.size(), 2u);  // 3 acked, last record torn
}

TEST(DurableRecovery, RecordsKeepTheirTextEncoding) {
  // Step and close records are encoded without temporaries; their bytes
  // must match the to_string/%016x encoding recovery has always parsed.
  TempDir dir("record_bytes");
  DurabilityOptions options;
  options.dir = dir.path();
  options.sync = {FsyncPolicy::kNone, 1};
  options.checkpoint_every = 0;
  options.wall_clock_millis = [] { return std::uint64_t{1700000000123}; };
  SerializedSession session;
  session.fingerprint = 0x00000000CAFEF00DULL;  // leading zero digits
  session.policy_spec = "greedy";
  const std::vector<TranscriptStep> steps = {
      {Query::Kind::kReach, {4294967295u}, true, {}, -1, false},
      {Query::Kind::kReach, {0}, false, {}, -1, false},
      {Query::Kind::kReachBatch, {4, 9}, false, {true, false}, -1, false},
      {Query::Kind::kChoice, {3, 5, 8}, false, {}, 2, false},
  };
  {
    DurableScan scan;
    auto store = DurableStore::Open(options, &scan);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->AppendOpen(18446744073709551615ULL, session).ok());
    for (std::size_t i = 0; i < steps.size(); ++i) {
      ASSERT_TRUE((*store)
                      ->AppendStep(18446744073709551615ULL,
                                   session.fingerprint, i + 1000, steps[i])
                      .ok());
    }
    ASSERT_TRUE((*store)->AppendClose(7).ok());
  }
  auto scan = ReadWal(NewestSegment(dir.path()));
  ASSERT_TRUE(scan.ok());
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, session.fingerprint);
  std::vector<std::string> expected = {"open 18446744073709551615 " +
                                       std::to_string(1700000000123ULL) +
                                       "\n" + SessionCodec::Encode(session)};
  const std::vector<std::string> lines = {"reach 4294967295 y\n",
                                          "reach 0 n\n", "batch 4+9 yn\n",
                                          "choice 3+5+8 2\n"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    expected.push_back("step 18446744073709551615 1700000000123 " +
                       std::string(fp) + " " + std::to_string(i + 1000) +
                       " " + lines[i]);
  }
  expected.push_back("close 7 1700000000123");
  EXPECT_EQ(scan->records, expected);
}

TEST(DurableRecovery, RecoversSegmentsWrittenWithoutPreallocation) {
  // A store written by a plain write(2) appender: frames only, no zero
  // tail, the newest segment cut off after its last frame by the crash.
  TempDir dir("unpreallocated");
  std::filesystem::create_directories(dir.path());
  SerializedSession session;
  session.fingerprint = 0x1111222233334444ULL;
  session.policy_spec = "greedy";
  session.steps.push_back({Query::Kind::kReach, {3}, true, {}, -1, false});
  const auto step = [](std::size_t index, NodeId node, bool yes) {
    return "step 9 2000 1111222233334444 " + std::to_string(index) +
           " reach " + std::to_string(node) + (yes ? " y\n" : " n\n");
  };
  // Segment 1 predates the checkpoint and must be ignored.
  WriteFile(dir.path() + "/wal-000001.log", Frame("close 9 1000"));
  WriteFile(dir.path() + "/checkpoint-000002.ckpt",
            Frame("meta 2 1500 10") +
                Frame("session 9 1500\n" + SessionCodec::Encode(session)));
  WriteFile(dir.path() + "/wal-000002.log",
            Frame(step(0, 3, true)) + Frame(step(1, 5, false)) +
                Frame(step(2, 6, true)));
  DurabilityOptions options;
  options.dir = dir.path();
  options.checkpoint_every = 0;
  DurableScan scan;
  auto store = DurableStore::Open(options, &scan);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(scan.checkpoint_sessions, 1u);
  EXPECT_EQ(scan.wal_records, 3u);
  EXPECT_EQ(scan.torn_tails, 0u);
  EXPECT_EQ(scan.malformed_records, 0u);
  EXPECT_EQ(scan.next_session_id, 10u);
  ASSERT_EQ(scan.sessions.size(), 1u);
  EXPECT_EQ(scan.sessions[0].id, 9u);
  EXPECT_EQ(scan.sessions[0].last_active_wall_ms, 2000u);
  const std::vector<TranscriptStep> want = {
      {Query::Kind::kReach, {3}, true, {}, -1, false},
      {Query::Kind::kReach, {5}, false, {}, -1, false},
      {Query::Kind::kReach, {6}, true, {}, -1, false},
  };
  EXPECT_EQ(scan.sessions[0].saved.steps, want);
}

// ---- golden bytes: Save blob, step records, checkpoint payload -------------

/// Asks a fixed script that mixes every step kind, whatever the answers.
/// Only the first question reads the catalog (the heaviest node), so a
/// republish with other counts makes that step diverge on migration.
class MixedScriptSession final : public SearchSession {
 public:
  explicit MixedScriptSession(NodeId first) : first_(first) {}

  Query PlanQuestion() const override {
    switch (next_) {
      case 0:
        return Query::ReachQuery(first_);
      case 1:
        return Query::ReachQuery(7);
      case 2:
        return Query::ReachBatch({3, 1, 4});
      case 3: {
        std::vector<NodeId> wide;
        for (NodeId v = 40; v >= 1; --v) {
          wide.push_back(v);
        }
        return Query::ReachBatch(std::move(wide));
      }
      case 4:
        return Query::ChoiceQuery({6, 2, 9});
      case 5:
        return Query::ChoiceQuery({10, 12});
      default:
        return Query::Done(0);
    }
  }

 protected:
  void ApplyReach(NodeId, bool) override { ++next_; }
  void ApplyChoice(std::span<const NodeId>, int) override { ++next_; }
  void ApplyReachBatch(std::span<const NodeId>,
                       const std::vector<bool>&) override {
    ++next_;
  }
  Status ApplyObservedStep(const TranscriptStep&) override {
    ++next_;
    return Status::OK();
  }

 private:
  NodeId first_;
  std::size_t next_ = 0;
};

class MixedScriptPolicy final : public Policy {
 public:
  explicit MixedScriptPolicy(NodeId first) : first_(first) {}
  std::string name() const override { return "MixedScript"; }
  std::unique_ptr<SearchSession> NewSession() const override {
    return std::make_unique<MixedScriptSession>(first_);
  }

 private:
  NodeId first_;
};

void RegisterMixedScriptPolicy() {
  static const bool registered =
      PolicyRegistry::Global()
          .Register("mixed_script",
                    "test policy: a fixed script of every step kind",
                    [](const PolicyContext& context, PolicyOptions&)
                        -> StatusOr<std::unique_ptr<Policy>> {
                      const std::vector<Weight>& w =
                          context.distribution->weights();
                      const auto heaviest = static_cast<NodeId>(
                          std::max_element(w.begin(), w.end()) - w.begin());
                      return std::unique_ptr<Policy>(
                          new MixedScriptPolicy(heaviest));
                    })
          .ok();
  ASSERT_TRUE(registered);
}

/// Counts of one everywhere but `heavy`.
Distribution OneHeavyNode(std::size_t n, NodeId heavy) {
  std::vector<Weight> weights(n, 1);
  weights[heavy] = 100;
  return *Distribution::FromWeights(std::move(weights));
}

std::string Hex16(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

TEST(GoldenBytes, SaveBlobStepRecordsAndCheckpointPayload) {
  // One session with a reach y and n step, a batch of at most 32 answers,
  // a wider one, a choice of -1 and one of an index, whose first step
  // diverges in a migration. Its bytes are pinned as the text format has
  // always written them, whatever a session stores in memory.
  RegisterMixedScriptPolicy();
  const ServiceCase& c = ServiceCases().front();
  const std::size_t n = c.hierarchy.NumNodes();
  ASSERT_GE(n, 41u);
  TempDir dir("golden");
  EngineOptions options = NoTtlEngineOptions();
  options.sessions.clock_millis = [] { return std::uint64_t{0}; };
  options.migration.sweep_on_publish = false;
  Engine engine(options);
  CatalogConfig config = ConfigFor(c, {"mixed_script"});
  config.distribution = OneHeavyNode(n, 5);
  ASSERT_TRUE(engine.Publish(config).ok());
  DurabilityOptions dopts;
  dopts.dir = dir.path();
  dopts.sync = {FsyncPolicy::kNone, 1};
  dopts.checkpoint_every = 0;
  dopts.wall_clock_millis = [] { return std::uint64_t{1700000000123}; };
  ASSERT_TRUE(engine.EnableDurability(dopts).ok());

  auto id = engine.Open("mixed_script");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  std::vector<bool> wide(40);
  for (std::size_t i = 0; i < wide.size(); ++i) {
    wide[i] = i % 3 == 0 || i == 39;
  }
  const std::vector<SessionAnswer> answers = {
      SessionAnswer::Reach(true),   SessionAnswer::Reach(false),
      SessionAnswer::Batch({true, false, true}),
      SessionAnswer::Batch(wide),   SessionAnswer::Choice(-1),
      SessionAnswer::Choice(1),
  };
  for (const SessionAnswer& answer : answers) {
    ASSERT_TRUE(engine.Ask(*id).ok());
    ASSERT_TRUE(engine.Answer(*id, answer).ok());
  }
  const std::string fp1 = Hex16(engine.snapshot()->fingerprint());
  const std::string hfp = Hex16(engine.snapshot()->hierarchy_fingerprint());

  config.distribution = OneHeavyNode(n, 11);
  ASSERT_TRUE(engine.Publish(config).ok());
  auto migrated = engine.Migrate(*id);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  EXPECT_EQ(migrated->divergent_steps, 1u);
  const std::string fp2 = Hex16(engine.snapshot()->fingerprint());

  const std::string steps =
      "reach 7 n\n"
      "batch 3+1+4 yny\n"
      "batch 40+39+38+37+36+35+34+33+32+31+30+29+28+27+26+25+24+23+22+21+"
      "20+19+18+17+16+15+14+13+12+11+10+9+8+7+6+5+4+3+2+1 "
      "ynnynnynnynnynnynnynnynnynnynnynnynnynny\n"
      "choice 6+2+9 -1\n"
      "choice 10+12 1\n";
  const std::string blob = "aigs-session/2\nfingerprint " + fp2 +
                           "\nhierarchy " + hfp +
                           "\nepoch 2\npolicy mixed_script\nsteps 6\n"
                           "reach 5 y d\n" +
                           steps + "end\n";
  auto saved = engine.Save(*id);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(*saved, blob);

  // The live segment: the open record, one step record per Answer (no
  // divergence flags: they are replay bookkeeping), and the migration's
  // re-logged open record.
  const std::string record_id = std::to_string(*id) + " 1700000000123";
  std::vector<std::string> expected = {
      "open " + record_id + "\naigs-session/2\nfingerprint " + fp1 +
      "\nhierarchy " + hfp +
      "\nepoch 1\npolicy mixed_script\nsteps 0\nend\n"};
  const std::vector<std::string> step_lines = {
      "reach 5 y\n", "reach 7 n\n", "batch 3+1+4 yny\n",
      steps.substr(steps.find("batch 40"),
                   steps.find("choice") - steps.find("batch 40")),
      "choice 6+2+9 -1\n", "choice 10+12 1\n"};
  for (std::size_t i = 0; i < step_lines.size(); ++i) {
    expected.push_back("step " + record_id + " " + fp1 + " " +
                       std::to_string(i) + " " + step_lines[i]);
  }
  expected.push_back("open " + record_id + "\n" + blob);
  auto wal = ReadWal(NewestSegment(dir.path()));
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->records, expected);

  ASSERT_TRUE(engine.Checkpoint().ok());
  std::string checkpoint;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().extension() == ".ckpt") {
      checkpoint = entry.path().string();
    }
  }
  auto frames = ReadWal(checkpoint);
  ASSERT_TRUE(frames.ok());
  EXPECT_EQ(frames->records,
            (std::vector<std::string>{
                "meta 3 1700000000123 " + std::to_string(*id + 1),
                "session " + record_id + "\n" + blob}));
}

TEST(DurableRecovery, EnableDurabilityRefusesExistingState) {
  const ServiceCase& c = ServiceCases().front();
  TempDir dir("refuse_existing");
  {
    Engine engine(NoTtlEngineOptions());
    ASSERT_TRUE(engine.Publish(ConfigFor(c, {"greedy"})).ok());
    DurabilityOptions dopts;
    dopts.dir = dir.path();
    ASSERT_TRUE(engine.EnableDurability(dopts).ok());
    ASSERT_TRUE(engine.Open("greedy").ok());
    // Double enable on a live engine is also refused.
    EXPECT_EQ(engine.EnableDurability(dopts).code(),
              StatusCode::kFailedPrecondition);
  }
  Engine engine(NoTtlEngineOptions());
  ASSERT_TRUE(engine.Publish(ConfigFor(c, {"greedy"})).ok());
  DurabilityOptions dopts;
  dopts.dir = dir.path();
  EXPECT_EQ(engine.EnableDurability(dopts).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(engine.durable());
  auto recovery = engine.Recover(dopts);  // the sanctioned path
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->recovered, 1u);
}

TEST(DurableRecovery, RecoverRequiresAPublishedSnapshot) {
  TempDir dir("recover_no_snapshot");
  Engine engine(NoTtlEngineOptions());
  DurabilityOptions dopts;
  dopts.dir = dir.path();
  EXPECT_FALSE(engine.Recover(dopts).ok());
}

TEST(DurableRecovery, CheckpointAndFlushWithoutDurability) {
  Engine engine(NoTtlEngineOptions());
  EXPECT_EQ(engine.Checkpoint().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine.FlushDurable().ok());  // graceful shutdown is a no-op
  EXPECT_FALSE(engine.durable());
}

TEST(DurableRecovery, AutoCheckpointTriggersOffTheHotPath) {
  const ServiceCase& c = ServiceCases().front();
  TempDir dir("auto_ckpt");
  Engine engine(NoTtlEngineOptions());
  ASSERT_TRUE(engine.Publish(ConfigFor(c, {"greedy"})).ok());
  DurabilityOptions dopts;
  dopts.dir = dir.path();
  dopts.sync = {FsyncPolicy::kNone, 1};
  dopts.checkpoint_every = 5;
  ASSERT_TRUE(engine.EnableDurability(dopts).ok());
  EXPECT_EQ(engine.Stats().durability.checkpoints, 1u);  // the initial one

  for (int i = 0; i < 12; ++i) {  // 12 open records cross the threshold twice
    ASSERT_TRUE(engine.Open("greedy").ok());
  }

  const EngineStats stats = engine.Stats();
  EXPECT_GE(stats.durability.checkpoints, 3u);
  EXPECT_LT(stats.durability.records_since_checkpoint, 5u);
  EXPECT_EQ(stats.durability.appends, 12u);
}

// ---- (3) crash injection ---------------------------------------------------

/// Everything the child acked over the pipe before dying.
struct AckedOps {
  std::set<SessionId> opened;
  std::set<SessionId> closed;
  std::map<SessionId, std::vector<std::string>> steps;  // acked step lines
  bool done = false;  // the child outlived its kill countdown
};

/// Child-process body: serve scripted traffic against a durable engine
/// whose after-append hook SIGKILLs the process on the `kill_at`-th record
/// — after the append (durable; fsync=always) but before the ack. Each
/// acked operation is reported over `fd` first, so the parent knows the
/// exact durable/acked boundary. Exit 42 = harness bug, never expected.
[[noreturn]] void RunCrashChild(const ServiceCase& c, const std::string& spec,
                                const std::string& dir, int kill_at, int fd) {
  const auto ack = [fd](const std::string& line) {
    const std::string out = line + "\n";
    if (::write(fd, out.data(), out.size()) !=
        static_cast<ssize_t>(out.size())) {
      ::_exit(42);
    }
  };

  Engine engine(NoTtlEngineOptions());
  if (!engine.Publish(ConfigFor(c, {spec})).ok()) {
    ::_exit(42);
  }
  std::atomic<int> appends{0};
  DurabilityOptions dopts;
  dopts.dir = dir;
  dopts.sync = {FsyncPolicy::kAlways, 1};
  dopts.checkpoint_every = 7;  // auto-checkpoints interleave with traffic
  dopts.after_append_hook = [&appends, kill_at] {
    if (appends.fetch_add(1) + 1 == kill_at) {
      ::raise(SIGKILL);
    }
  };
  if (!engine.EnableDurability(dopts).ok()) {
    ::_exit(42);
  }

  const NodeId n = static_cast<NodeId>(c.hierarchy.NumNodes());
  const NodeId targets[3] = {0, static_cast<NodeId>(n / 2),
                             static_cast<NodeId>(n - 1)};
  SessionId ids[3];
  std::vector<std::unique_ptr<ExactOracle>> oracles;
  for (int s = 0; s < 3; ++s) {
    auto opened = engine.Open(spec);
    if (!opened.ok()) {
      ::_exit(42);
    }
    ids[s] = *opened;
    ack("open " + std::to_string(ids[s]));
    oracles.push_back(
        std::make_unique<ExactOracle>(c.hierarchy.reach(), targets[s]));
  }
  bool live[3] = {true, true, true};
  for (int round = 0; round < 4096 && (live[0] || live[1] || live[2]);
       ++round) {
    for (int s = 0; s < 3; ++s) {
      if (!live[s]) {
        continue;
      }
      auto q = engine.Ask(ids[s]);
      if (!q.ok()) {
        ::_exit(42);
      }
      if (q->kind == Query::Kind::kDone) {
        live[s] = false;
        continue;
      }
      const SessionAnswer answer = AnswerFromOracle(*q, *oracles[s]);
      if (!engine.Answer(ids[s], answer).ok()) {
        ::_exit(42);
      }
      ack("step " + std::to_string(ids[s]) + " " +
          StepLine(StepFrom(*q, answer)));
    }
  }
  if (!engine.Close(ids[0]).ok()) {
    ::_exit(42);
  }
  ack("close " + std::to_string(ids[0]));
  ack("done");
  ::_exit(0);
}

AckedOps ParseAcks(const std::string& raw) {
  AckedOps acked;
  std::size_t start = 0;
  while (start < raw.size()) {
    std::size_t end = raw.find('\n', start);
    if (end == std::string::npos) {
      break;  // a torn final line would mean an ack raced the kill; the
              // child writes each ack in one atomic pipe write, so: never
    }
    const std::string line = raw.substr(start, end - start);
    start = end + 1;
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    if (verb == "done") {
      acked.done = true;
      continue;
    }
    SessionId id = 0;
    in >> id;
    if (verb == "open") {
      acked.opened.insert(id);
    } else if (verb == "close") {
      acked.closed.insert(id);
    } else if (verb == "step") {
      std::string rest;
      std::getline(in, rest);
      acked.steps[id].push_back(rest.substr(1));  // skip the separator space
    }
  }
  return acked;
}

/// Fork, crash the child at record `kill_at`, recover in the parent, and
/// assert the acked-prefix contract: every acked session is back under its
/// original id with the acked steps an exact transcript prefix; only the
/// single in-flight operation (durable but unacked) may add one trailing
/// step, erase one session, or add one unacked session.
void RunCrashCase(const ServiceCase& c, const std::string& spec,
                  int kill_at) {
  SCOPED_TRACE(c.name + "/" + spec + "/kill@" + std::to_string(kill_at));
  TempDir dir("crash");
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipefd[0]);
    RunCrashChild(c, spec, dir.path(), kill_at, pipefd[1]);
  }
  ::close(pipefd[1]);
  std::string raw;
  char buf[4096];
  for (ssize_t n = 0; (n = ::read(pipefd[0], buf, sizeof(buf))) > 0;) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(pipefd[0]);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  const bool killed = WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
  const bool clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  ASSERT_TRUE(killed || clean) << "child harness failure, status " << wstatus;
  const AckedOps acked = ParseAcks(raw);
  ASSERT_EQ(acked.done, clean);
  // A kill during the open burst legitimately acks fewer than 3 opens.
  ASSERT_LE(acked.opened.size(), 3u);
  if (clean) {
    ASSERT_EQ(acked.opened.size(), 3u);
  }

  Engine engine(NoTtlEngineOptions());
  ASSERT_TRUE(engine.Publish(ConfigFor(c, {spec})).ok());
  DurabilityOptions dopts;
  dopts.dir = dir.path();
  dopts.sync = {FsyncPolicy::kAlways, 1};
  auto recovery = engine.Recover(dopts);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  // SIGKILL lands between ops (inside the hook), never mid-write: the log
  // ends at a frame boundary, so nothing is torn and nothing malformed.
  EXPECT_EQ(recovery->torn_tails, 0u);
  EXPECT_EQ(recovery->malformed_records, 0u);
  EXPECT_EQ(recovery->replay_failures, 0u);
  EXPECT_EQ(recovery->divergent_sessions, 0u);

  const std::size_t slack = killed ? 1 : 0;
  std::size_t missing = 0;
  for (const SessionId id : acked.opened) {
    if (acked.closed.count(id) != 0) {
      // Acked close: the session must be gone.
      EXPECT_FALSE(engine.Save(id).ok()) << "closed session " << id;
      continue;
    }
    auto blob = engine.Save(id);
    if (!blob.ok()) {
      // Only possible casualty: the in-flight op was this session's close
      // (its record durable, its ack never sent).
      ++missing;
      continue;
    }
    auto decoded = SessionCodec::Decode(*blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const auto it = acked.steps.find(id);
    const std::vector<std::string> want =
        it == acked.steps.end() ? std::vector<std::string>{} : it->second;
    ASSERT_GE(decoded->steps.size(), want.size())
        << "session " << id << " lost acked steps";
    ASSERT_LE(decoded->steps.size(), want.size() + slack)
        << "session " << id << " has more than the one in-flight step";
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(StepLine(decoded->steps[i]), want[i])
          << "session " << id << " step " << i;
    }
  }
  EXPECT_LE(missing, slack);
}

TEST(CrashInjection, EveryPolicyAtRandomizedKillPoints) {
  Rng rng(20260807);
  for (const ServiceCase& c : ServiceCases()) {
    for (const std::string& spec : SpecsFor(c.hierarchy)) {
      for (int trial = 0; trial < 2; ++trial) {
        // Kill points span the open burst, steady-state answer traffic,
        // and (via checkpoint_every=7 in the child) checkpoints.
        const int kill_at =
            static_cast<int>(1 + rng.UniformInt(trial == 0 ? 6 : 34));
        RunCrashCase(c, spec, kill_at);
      }
    }
  }
}

TEST(CrashInjection, OutlivedCountdownRecoversEverything) {
  // The countdown never fires: the clean-exit flavor of the same harness
  // (close acked, every transcript exact — slack 0).
  RunCrashCase(ServiceCases().front(), "greedy", 1 << 20);
}

// ---- (4) recovery/TTL interplay --------------------------------------------

/// Two sessions, one kept warm; recovery under a 1 s TTL and an injected
/// wall clock must revive the warm one and drop the idle one.
void TtlCase(bool through_checkpoint) {
  const ServiceCase& c = ServiceCases().front();
  TempDir dir(through_checkpoint ? "ttl_ckpt" : "ttl_wal");
  std::uint64_t wall = 1'000'000;  // fake wall clock (Unix-ish millis)
  std::uint64_t mono = 500'000;    // fake monotonic session clock
  SessionId warm_id = 0, idle_id = 0;
  {
    EngineOptions opts = NoTtlEngineOptions();
    opts.sessions.clock_millis = [&mono] { return mono; };
    Engine engine(opts);
    ASSERT_TRUE(engine.Publish(ConfigFor(c, {"greedy"})).ok());
    DurabilityOptions dopts;
    dopts.dir = dir.path();
    dopts.sync = {FsyncPolicy::kAlways, 1};
    dopts.checkpoint_every = 0;
    dopts.wall_clock_millis = [&wall] { return wall; };
    ASSERT_TRUE(engine.EnableDurability(dopts).ok());

    auto warm = engine.Open("greedy");
    auto idle = engine.Open("greedy");
    ASSERT_TRUE(warm.ok() && idle.ok());
    warm_id = *warm;
    idle_id = *idle;
    wall += 500;
    mono += 500;
    ExactOracle oracle(c.hierarchy.reach(), 9);
    Drive(engine, warm_id, oracle, 1);  // refreshes warm's last activity
    if (through_checkpoint) {
      ASSERT_TRUE(engine.Checkpoint().ok());
    }
  }

  EngineOptions opts = NoTtlEngineOptions();
  opts.sessions.ttl_millis = 1000;
  Engine engine(opts);
  ASSERT_TRUE(engine.Publish(ConfigFor(c, {"greedy"})).ok());
  DurabilityOptions dopts;
  dopts.dir = dir.path();
  // 1200 ms past the idle session's last activity, 700 ms past the warm
  // one's — exactly one side of the 1000 ms TTL each.
  const std::uint64_t recovery_wall = 1'001'200;
  dopts.wall_clock_millis = [recovery_wall] { return recovery_wall; };
  auto recovery = engine.Recover(dopts);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->recovered, 1u);
  EXPECT_EQ(recovery->expired_dropped, 1u);
  if (through_checkpoint) {
    EXPECT_EQ(recovery->checkpoint_sessions, 2u);
  }
  EXPECT_TRUE(engine.Save(warm_id).ok());
  EXPECT_FALSE(engine.Save(idle_id).ok());
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.expired_dropped, 1u);
  ASSERT_TRUE(stats.has_recovery);
  EXPECT_EQ(stats.last_recovery.expired_dropped, 1u);
}

TEST(RecoveryTtl, WalRecordsCarryLastActivity) {
  TtlCase(/*through_checkpoint=*/false);
}

TEST(RecoveryTtl, CheckpointsCarryLastActivity) {
  TtlCase(/*through_checkpoint=*/true);
}

TEST(RecoveryTtl, ZeroTtlNeverDrops) {
  const ServiceCase& c = ServiceCases().front();
  TempDir dir("ttl_zero");
  std::uint64_t wall = 1'000'000;
  SessionId id = 0;
  {
    Engine engine(NoTtlEngineOptions());
    ASSERT_TRUE(engine.Publish(ConfigFor(c, {"greedy"})).ok());
    DurabilityOptions dopts;
    dopts.dir = dir.path();
    dopts.wall_clock_millis = [&wall] { return wall; };
    ASSERT_TRUE(engine.EnableDurability(dopts).ok());
    auto opened = engine.Open("greedy");
    ASSERT_TRUE(opened.ok());
    id = *opened;
  }
  Engine engine(NoTtlEngineOptions());  // ttl_millis = 0
  ASSERT_TRUE(engine.Publish(ConfigFor(c, {"greedy"})).ok());
  DurabilityOptions dopts;
  dopts.dir = dir.path();
  dopts.wall_clock_millis = [] { return std::uint64_t{1} << 50; };  // eons on
  auto recovery = engine.Recover(dopts);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->recovered, 1u);
  EXPECT_EQ(recovery->expired_dropped, 0u);
  EXPECT_TRUE(engine.Save(id).ok());
}

// ---- SessionManager id plumbing --------------------------------------------

TEST(SessionManagerIds, InsertWithIdReservesAndCollides) {
  SessionManagerOptions options;
  options.num_shards = 4;
  options.ttl_millis = 0;
  SessionManager manager(options);
  EXPECT_EQ(manager.InsertWithId(0, std::make_shared<ServiceSession>()).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(manager.InsertWithId(5, std::make_shared<ServiceSession>()).ok());
  EXPECT_EQ(manager.InsertWithId(5, std::make_shared<ServiceSession>()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_GE(manager.next_id(), 6u);
  // Fresh inserts never collide with the recovered id space.
  EXPECT_EQ(manager.Insert(std::make_shared<ServiceSession>()), 6u);
  manager.ReserveIds(100);
  EXPECT_EQ(manager.next_id(), 100u);
  manager.ReserveIds(50);  // never lowers the watermark
  EXPECT_EQ(manager.next_id(), 100u);
  EXPECT_EQ(manager.Insert(std::make_shared<ServiceSession>()), 100u);
  EXPECT_TRUE(manager.Find(5).ok());
}

// ---- (5) Save and Checkpoint under concurrent Answer traffic ---------------

TEST(ConcurrentDurability, SaveAndCheckpointUnderAnswerTraffic) {
  Rng rng(4242);
  Hierarchy tree = MustBuild(RandomTree(140, rng));
  Distribution dist = ZipfRandomDistribution(tree.NumNodes(), 2.0, rng);
  ServiceCase c{"stress", std::move(tree), std::move(dist)};
  // The scripted policy with a complete question order makes transcripts
  // long (~n questions for a deep target), so savers race a wide window.
  const std::vector<std::string> specs = SpecsFor(c.hierarchy);
  const std::string& spec = specs[specs.size() - (c.hierarchy.is_tree() ? 3 : 1)];
  ASSERT_TRUE(spec.starts_with("scripted:order="));

  TempDir dir("concurrent");
  EngineOptions opts = NoTtlEngineOptions();
  Engine engine(opts);
  ASSERT_TRUE(engine.Publish(ConfigFor(c, {spec})).ok());
  DurabilityOptions dopts;
  dopts.dir = dir.path();
  dopts.sync = {FsyncPolicy::kInterval, 8};
  dopts.checkpoint_every = 0;
  ASSERT_TRUE(engine.EnableDurability(dopts).ok());

  constexpr int kSessions = 3;
  std::vector<SessionId> ids;
  std::vector<NodeId> targets;
  for (int s = 0; s < kSessions; ++s) {
    auto opened = engine.Open(spec);
    ASSERT_TRUE(opened.ok());
    ids.push_back(*opened);
    // Late nodes in the scripted order take the most questions to reach.
    targets.push_back(static_cast<NodeId>(c.hierarchy.NumNodes() - 1 - s));
  }

  std::atomic<bool> driving{true};
  std::atomic<std::uint64_t> saves{0};
  std::vector<std::vector<std::string>> blobs(kSessions);
  std::mutex blobs_mu;

  std::vector<std::thread> threads;
  // Drivers: one per session, full search to completion.
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      ExactOracle oracle(c.hierarchy.reach(), targets[s]);
      AIGS_CHECK(Drive(engine, ids[s], oracle, 1u << 20));
    });
  }
  // Savers: snapshot every session as fast as they can.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (driving.load(std::memory_order_relaxed)) {
        for (int s = 0; s < kSessions; ++s) {
          auto blob = engine.Save(ids[s]);
          if (blob.ok()) {
            std::lock_guard<std::mutex> lock(blobs_mu);
            blobs[s].push_back(*std::move(blob));
          }
        }
        saves.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Checkpointer: rotate the log under live traffic.
  threads.emplace_back([&] {
    while (driving.load(std::memory_order_relaxed)) {
      AIGS_CHECK(engine.Checkpoint().ok());
      std::this_thread::yield();
    }
  });
  for (int s = 0; s < kSessions; ++s) {
    threads[s].join();
  }
  driving.store(false);
  for (std::size_t t = kSessions; t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_GT(saves.load(), 0u);

  // Every saved blob decodes and replays to a prefix of the final state.
  std::vector<std::vector<TranscriptStep>> finals;
  for (int s = 0; s < kSessions; ++s) {
    auto blob = engine.Save(ids[s]);
    ASSERT_TRUE(blob.ok());
    auto decoded = SessionCodec::Decode(*blob);
    ASSERT_TRUE(decoded.ok());
    finals.push_back(decoded->steps);
  }
  for (int s = 0; s < kSessions; ++s) {
    for (const std::string& blob : blobs[s]) {
      auto decoded = SessionCodec::Decode(blob);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_LE(decoded->steps.size(), finals[s].size());
      EXPECT_TRUE(std::equal(decoded->steps.begin(), decoded->steps.end(),
                             finals[s].begin()))
          << "saved blob is not a prefix of session " << ids[s];
    }
  }

  // And the durable state — checkpoints raced answers throughout — must
  // recover every completed transcript bit-identically.
  ASSERT_TRUE(engine.FlushDurable().ok());
  Engine recovered(NoTtlEngineOptions());
  ASSERT_TRUE(recovered.Publish(ConfigFor(c, {spec})).ok());
  DurabilityOptions ropts;
  ropts.dir = dir.path();
  auto recovery = recovered.Recover(ropts);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->recovered, static_cast<std::size_t>(kSessions));
  EXPECT_EQ(recovery->replay_failures, 0u);
  EXPECT_EQ(recovery->malformed_records, 0u);
  for (int s = 0; s < kSessions; ++s) {
    auto blob = recovered.Save(ids[s]);
    ASSERT_TRUE(blob.ok());
    auto decoded = SessionCodec::Decode(*blob);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->steps, finals[s]) << "session " << ids[s];
  }
}

TEST(ConcurrentDurability, AppendsFlowWhileACheckpointRetiresTheSegment) {
  // BeginCheckpoint fsyncs the retired segment after the swap, so a second
  // thread keeps appending throughout; every step it saw acked must come
  // back, whichever side of each rotation it landed on.
  TempDir dir("append_during_checkpoint");
  DurabilityOptions options;
  options.dir = dir.path();
  // Only the checkpoint's own fsync of the retired segment (and the final
  // Sync) makes anything durable, so every rotation has data to fsync.
  options.sync = {FsyncPolicy::kNone, 1};
  options.checkpoint_every = 0;
  DurableScan scan;
  auto store = DurableStore::Open(options, &scan);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  SerializedSession session;
  session.fingerprint = 0xFEEDFACE12345678ULL;
  session.hierarchy_fingerprint = 0x0123456789ABCDEFULL;
  session.policy_spec = "greedy";
  constexpr SessionId kId = 1;
  ASSERT_TRUE((*store)->AppendOpen(kId, session).ok());

  // Stands in for the engine's per-session mutex: a snapshot sees exactly
  // the steps acked before it.
  std::mutex session_mu;
  std::vector<TranscriptStep> acked;
  std::atomic<bool> stop{false};
  std::thread appender([&] {
    for (NodeId i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      std::lock_guard<std::mutex> lock(session_mu);
      const TranscriptStep step{Query::Kind::kReach, {i % 997}, i % 3 == 0,
                                {}, -1, false};
      AIGS_CHECK((*store)->AppendStep(kId, session.fingerprint, acked.size(),
                                      step)
                     .ok());
      acked.push_back(step);
    }
  });

  std::size_t last = 0;
  // Lets the appender make progress past the last snapshot.
  const auto await_appends = [&] {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(session_mu);
        if (acked.size() > last + 16) {
          return;
        }
      }
      std::this_thread::yield();
    }
  };
  constexpr int kCheckpoints = 12;
  for (int c = 0; c < kCheckpoints; ++c) {
    await_appends();
    auto seq = (*store)->BeginCheckpoint();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    DurableStore::CheckpointSession snapshot;
    {
      std::lock_guard<std::mutex> lock(session_mu);
      SerializedSession copy = session;
      copy.steps = acked;
      last = acked.size();
      snapshot = {kId, (*store)->NowWallMillis(), SessionCodec::Encode(copy)};
    }
    ASSERT_TRUE((*store)->CommitCheckpoint(*seq, {snapshot}, kId + 1).ok());
  }
  await_appends();  // the last segment holds steps past every snapshot
  stop.store(true);
  appender.join();
  ASSERT_TRUE((*store)->Sync().ok());
  EXPECT_EQ((*store)->Stats().checkpoints,
            static_cast<std::uint64_t>(kCheckpoints));
  store->reset();

  DurableScan recovered;
  auto reopened = DurableStore::Open(options, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(recovered.malformed_records, 0u);
  EXPECT_EQ(recovered.torn_tails, 0u);
  ASSERT_EQ(recovered.sessions.size(), 1u);
  EXPECT_EQ(recovered.sessions[0].id, kId);
  EXPECT_EQ(recovered.sessions[0].saved.steps, acked);
}

// ---- (6) adversarial SessionCodec decode -----------------------------------

SerializedSession AdversarialFixture() {
  SerializedSession session;
  session.fingerprint = 0xDEADBEEFCAFEF00DULL;
  session.hierarchy_fingerprint = 0x0123456789ABCDEFULL;
  session.epoch = 3;
  session.policy_spec = "batched:k=3";
  session.steps.push_back({Query::Kind::kReach, {17}, true, {}, -1, false});
  session.steps.push_back({Query::Kind::kReachBatch,
                           {4, 9, 12},
                           false,
                           {true, false, true},
                           -1,
                           true});
  session.steps.push_back({Query::Kind::kChoice, {3, 5, 8}, false, {}, 2,
                           false});
  session.steps.push_back({Query::Kind::kReach, {2}, false, {}, -1, false});
  return session;
}

TEST(SessionCodecAdversarial, EveryTruncationFailsOrYieldsAPrefix) {
  const SerializedSession base = AdversarialFixture();
  const std::string blob = SessionCodec::Encode(base);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    auto decoded = SessionCodec::Decode(blob.substr(0, len));
    if (!decoded.ok()) {
      continue;  // rejected with a Status — the expected common case
    }
    // A truncation can only decode if it still ends in a complete, 'end'-
    // terminated document; then it must be a faithful prefix, never a
    // scrambled session.
    EXPECT_EQ(decoded->fingerprint, base.fingerprint);
    EXPECT_EQ(decoded->policy_spec, base.policy_spec);
    ASSERT_LE(decoded->steps.size(), base.steps.size());
    EXPECT_TRUE(std::equal(decoded->steps.begin(), decoded->steps.end(),
                           base.steps.begin()))
        << "truncation at " << len << " scrambled the transcript";
  }
}

TEST(SessionCodecAdversarial, RandomBitFlipsNeverAbort) {
  const std::string blob = SessionCodec::Encode(AdversarialFixture());
  Rng rng(1337);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string mutated = blob;
    const int flips = 1 + static_cast<int>(rng.UniformInt(3));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.UniformInt(mutated.size()));
      mutated[pos] ^= static_cast<char>(1u << rng.UniformInt(8));
    }
    // Must return a Status (ok or not) without aborting or faulting; the
    // sanitizer jobs make the "without faulting" half load-bearing.
    (void)SessionCodec::Decode(mutated);
  }
}

TEST(SessionCodecAdversarial, RandomGarbageNeverAborts) {
  Rng rng(7331);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string garbage(rng.UniformInt(300), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformInt(256));
    }
    EXPECT_FALSE(SessionCodec::Decode(garbage).ok());
    // Same bytes behind a valid header: the body parser gets the fuzz.
    (void)SessionCodec::Decode("aigs-session/2\n" + garbage);
  }
}

TEST(SessionCodecAdversarial, RejectsCraftedHeadersAndTrailers) {
  const std::string valid = SessionCodec::Encode(AdversarialFixture());
  // strtoull-style lenience is gone: signs, 0x prefixes, and over-long
  // digests are malformed, not silently wrapped.
  EXPECT_FALSE(SessionCodec::Decode("aigs-session/1\nfingerprint -1\n"
                                    "epoch 1\npolicy greedy\nsteps 0\nend\n")
                   .ok());
  EXPECT_FALSE(SessionCodec::Decode("aigs-session/1\nfingerprint 0x12\n"
                                    "epoch 1\npolicy greedy\nsteps 0\nend\n")
                   .ok());
  EXPECT_FALSE(
      SessionCodec::Decode("aigs-session/1\nfingerprint 11112222333344445\n"
                           "epoch 1\npolicy greedy\nsteps 0\nend\n")
          .ok());
  // Content after the 'end' trailer means splicing, not a saved session.
  EXPECT_FALSE(SessionCodec::Decode(valid + "reach 3 y\n").ok());
  EXPECT_FALSE(SessionCodec::Decode(valid + valid).ok());
  // A step-count line that promises more than the input carries.
  EXPECT_FALSE(
      SessionCodec::Decode("aigs-session/2\nfingerprint 0\nhierarchy 0\n"
                           "epoch 1\npolicy greedy\nsteps 184467440737095\n"
                           "end\n")
          .ok());
  // The unmodified blob still round-trips after all that suspicion.
  EXPECT_TRUE(SessionCodec::Decode(valid).ok());
}

}  // namespace
}  // namespace aigs
