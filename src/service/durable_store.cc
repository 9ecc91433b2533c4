#include "service/durable_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "util/string_util.h"

namespace aigs {
namespace {

namespace fs = std::filesystem;

std::string SeqName(const char* prefix, std::uint64_t seq,
                    const char* suffix) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s%06" PRIu64 "%s", prefix, seq,
                suffix);
  return buffer;
}

std::string SegmentPath(const std::string& dir, std::uint64_t seq) {
  return dir + "/" + SeqName("wal-", seq, ".log");
}

std::string CheckpointPath(const std::string& dir, std::uint64_t seq) {
  return dir + "/" + SeqName("checkpoint-", seq, ".ckpt");
}

/// The sequence number of a "prefix<seq>suffix" file name, or 0.
std::uint64_t ParseSeqName(std::string_view name, std::string_view prefix,
                           std::string_view suffix) {
  if (!name.starts_with(prefix) || !name.ends_with(suffix) ||
      name.size() <= prefix.size() + suffix.size()) {
    return 0;
  }
  const auto digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  const auto seq = ParseUint64(digits);
  return seq.ok() ? *seq : 0;
}

/// Pops the next space-delimited token off `*rest`.
std::string_view NextToken(std::string_view* rest) {
  while (!rest->empty() && rest->front() == ' ') {
    rest->remove_prefix(1);
  }
  const std::size_t end = rest->find(' ');
  const std::string_view token = rest->substr(0, end);
  rest->remove_prefix(end == std::string_view::npos ? rest->size() : end);
  return token;
}

/// Best-effort directory fsync so a rename survives power loss. Some
/// filesystems refuse O_DIRECTORY fsync; that downgrade is not an error.
void FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

struct DirListing {
  std::map<std::uint64_t, std::string> wals;         // seq -> path
  std::map<std::uint64_t, std::string> checkpoints;  // seq -> path
};

StatusOr<DirListing> ListDir(const std::string& dir) {
  DirListing listing;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const std::uint64_t seq = ParseSeqName(name, "wal-", ".log");
        seq != 0) {
      listing.wals.emplace(seq, entry.path().string());
    } else if (const std::uint64_t cseq =
                   ParseSeqName(name, "checkpoint-", ".ckpt");
               cseq != 0) {
      listing.checkpoints.emplace(cseq, entry.path().string());
    }
  }
  if (ec) {
    return Status::IOError("cannot list durable dir '" + dir +
                           "': " + ec.message());
  }
  return listing;
}

/// "<kind> <id> <wall_ms>" in this thread's record buffer. The buffer
/// keeps its capacity, so encoding a step record allocates nothing.
std::string& RecordHeader(const char* kind, SessionId id,
                          std::uint64_t wall_ms) {
  thread_local std::string buffer;
  buffer.assign(kind);
  buffer += ' ';
  AppendUint(id, &buffer);
  buffer += ' ';
  AppendUint(wall_ms, &buffer);
  return buffer;
}

/// "step <id> <wall_ms> <fingerprint> <index> " in the record buffer; the
/// step's line follows.
std::string& StepRecordHeader(SessionId id, std::uint64_t wall_ms,
                              std::uint64_t fingerprint, std::size_t index) {
  std::string& payload = RecordHeader("step", id, wall_ms);
  payload += ' ';
  AppendUint(fingerprint, &payload, 16, 16);
  payload += ' ';
  AppendUint(index, &payload);
  payload += ' ';
  return payload;
}

/// In-progress recovery state for one session.
using SessionMap = std::map<SessionId, RecoveredSessionRecord>;

void ApplyOpenRecord(std::string_view payload, SessionMap* state,
                     DurableScan* scan) {
  const std::size_t newline = payload.find('\n');
  std::string_view header =
      newline == std::string_view::npos ? payload : payload.substr(0, newline);
  NextToken(&header);  // "open"
  const auto id = ParseUint64(NextToken(&header));
  const auto wall = ParseUint64(NextToken(&header));
  if (!id.ok() || !wall.ok() || *id == 0 ||
      newline == std::string_view::npos) {
    ++scan->malformed_records;
    return;
  }
  auto saved = SessionCodec::Decode(std::string(payload.substr(newline + 1)));
  if (!saved.ok()) {
    ++scan->malformed_records;
    return;
  }
  RecoveredSessionRecord& record = (*state)[*id];
  record.id = *id;
  record.last_active_wall_ms = *wall;
  record.saved = *std::move(saved);
  scan->next_session_id = std::max(scan->next_session_id, *id + 1);
}

void ApplyStepRecord(std::string_view payload, SessionMap* state,
                     DurableScan* scan) {
  std::string_view rest = payload;
  NextToken(&rest);  // "step"
  const auto id = ParseUint64(NextToken(&rest));
  const auto wall = ParseUint64(NextToken(&rest));
  const std::string fp_hex(NextToken(&rest));
  const auto index = ParseUint64(NextToken(&rest));
  char* end = nullptr;
  const std::uint64_t fingerprint = std::strtoull(fp_hex.c_str(), &end, 16);
  if (!id.ok() || !wall.ok() || !index.ok() || fp_hex.empty() ||
      end == fp_hex.c_str() || *end != '\0') {
    ++scan->malformed_records;
    return;
  }
  const auto it = state->find(*id);
  if (it == state->end() ||
      it->second.saved.fingerprint != fingerprint) {
    // A step for a session this scan never opened (or for a different
    // incarnation of the catalog): corruption or tampering — dropped, the
    // session keeps its last consistent prefix.
    ++scan->malformed_records;
    return;
  }
  RecoveredSessionRecord& record = it->second;
  if (*index < record.saved.steps.size()) {
    return;  // already inside the checkpoint blob (rotation overlap)
  }
  if (*index > record.saved.steps.size()) {
    ++scan->malformed_records;  // gap: a record between was lost
    return;
  }
  auto step = SessionCodec::ParseStepLine(rest);
  if (!step.ok()) {
    ++scan->malformed_records;
    return;
  }
  record.saved.steps.push_back(*std::move(step));
  record.last_active_wall_ms = *wall;
}

void ApplyCloseRecord(std::string_view payload, SessionMap* state,
                      DurableScan* scan) {
  std::string_view rest = payload;
  NextToken(&rest);  // "close"
  const auto id = ParseUint64(NextToken(&rest));
  if (!id.ok()) {
    ++scan->malformed_records;
    return;
  }
  // Erasing an id the scan does not hold is benign: the open lived in a
  // segment an earlier checkpoint already collapsed away.
  state->erase(*id);
}

void ApplyWalRecord(std::string_view payload, SessionMap* state,
                    DurableScan* scan) {
  if (payload.starts_with("open ")) {
    ApplyOpenRecord(payload, state, scan);
  } else if (payload.starts_with("step ")) {
    ApplyStepRecord(payload, state, scan);
  } else if (payload.starts_with("close ")) {
    ApplyCloseRecord(payload, state, scan);
  } else {
    ++scan->malformed_records;
  }
}

/// Loads the newest fully-valid checkpoint into `*state`; returns its
/// sequence number (0 = none usable, start empty from the oldest segment).
StatusOr<std::uint64_t> LoadNewestCheckpoint(const DirListing& listing,
                                             SessionMap* state,
                                             DurableScan* scan) {
  for (auto it = listing.checkpoints.rbegin();
       it != listing.checkpoints.rend(); ++it) {
    const auto& [seq, path] = *it;
    auto file = ReadWal(path);
    if (!file.ok()) {
      return file.status();  // unreadable device, not just damaged content
    }
    // A checkpoint was renamed into place whole; any damage means bit rot,
    // so the whole file is distrusted and an older one is tried.
    if (file->torn_bytes != 0 || file->records.empty()) {
      ++scan->invalid_checkpoints;
      continue;
    }
    std::string_view meta = file->records.front();
    NextToken(&meta);  // "meta"
    const auto meta_seq = ParseUint64(NextToken(&meta));
    NextToken(&meta);  // wall_ms (informational)
    const auto next_id = ParseUint64(NextToken(&meta));
    if (!file->records.front().starts_with("meta ") || !meta_seq.ok() ||
        *meta_seq != seq || !next_id.ok()) {
      ++scan->invalid_checkpoints;
      continue;
    }
    SessionMap loaded;
    std::uint64_t malformed = 0;
    for (std::size_t i = 1; i < file->records.size(); ++i) {
      std::string_view payload = file->records[i];
      const std::size_t newline = payload.find('\n');
      std::string_view header = newline == std::string_view::npos
                                    ? payload
                                    : payload.substr(0, newline);
      NextToken(&header);  // "session"
      const auto id = ParseUint64(NextToken(&header));
      const auto last = ParseUint64(NextToken(&header));
      if (!file->records[i].starts_with("session ") || !id.ok() ||
          !last.ok() || *id == 0 || newline == std::string_view::npos) {
        ++malformed;
        continue;
      }
      auto saved =
          SessionCodec::Decode(std::string(payload.substr(newline + 1)));
      if (!saved.ok()) {
        ++malformed;
        continue;
      }
      RecoveredSessionRecord& record = loaded[*id];
      record.id = *id;
      record.last_active_wall_ms = *last;
      record.saved = *std::move(saved);
    }
    *state = std::move(loaded);
    scan->checkpoint_sessions = state->size();
    scan->malformed_records += malformed;
    scan->next_session_id = std::max(scan->next_session_id, *next_id);
    return seq;
  }
  return std::uint64_t{0};
}

/// Full directory scan: newest valid checkpoint + the valid prefix of
/// every segment at or after it, in order. Returns the highest sequence
/// number any file used (0 for an empty directory).
StatusOr<std::uint64_t> ScanDir(const std::string& dir, DurableScan* scan) {
  AIGS_ASSIGN_OR_RETURN(const DirListing listing, ListDir(dir));
  SessionMap state;
  AIGS_ASSIGN_OR_RETURN(const std::uint64_t base_seq,
                        LoadNewestCheckpoint(listing, &state, scan));
  for (const auto& [seq, path] : listing.wals) {
    if (seq < base_seq) {
      continue;  // collapsed into the checkpoint already
    }
    AIGS_ASSIGN_OR_RETURN(const WalScan file, ReadWal(path));
    // Each segment's valid prefix is applied even when its tail is torn:
    // the post-crash run that opened the NEXT segment recovered from
    // exactly this prefix, so later segments compose on top of it.
    if (file.torn_bytes != 0) {
      ++scan->torn_tails;
      scan->torn_bytes += file.torn_bytes;
    }
    for (const std::string& payload : file.records) {
      ++scan->wal_records;
      ApplyWalRecord(payload, &state, scan);
    }
  }
  for (auto& [id, record] : state) {
    scan->sessions.push_back(std::move(record));
  }
  std::uint64_t max_seq = base_seq;
  if (!listing.wals.empty()) {
    max_seq = std::max(max_seq, listing.wals.rbegin()->first);
  }
  if (!listing.checkpoints.empty()) {
    max_seq = std::max(max_seq, listing.checkpoints.rbegin()->first);
  }
  return max_seq;
}

}  // namespace

DurableStore::DurableStore(DurabilityOptions options)
    : options_(std::move(options)) {}

std::uint64_t DurableStore::NowWallMillis() const {
  if (options_.wall_clock_millis) {
    return options_.wall_clock_millis();
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

bool DurableStore::HasState(const std::string& dir) {
  auto listing = ListDir(dir);
  return listing.ok() &&
         (!listing->wals.empty() || !listing->checkpoints.empty());
}

StatusOr<std::unique_ptr<DurableStore>> DurableStore::Open(
    DurabilityOptions options, DurableScan* scan) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("durability needs a directory");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("cannot create durable dir '" + options.dir +
                           "': " + ec.message());
  }
  *scan = DurableScan{};
  AIGS_ASSIGN_OR_RETURN(const std::uint64_t max_seq,
                        ScanDir(options.dir, scan));
  std::unique_ptr<DurableStore> store(new DurableStore(std::move(options)));
  store->seq_ = max_seq + 1;
  AIGS_ASSIGN_OR_RETURN(
      store->wal_,
      WalWriter::Open(SegmentPath(store->options_.dir, store->seq_),
                      store->options_.sync));
  return store;
}

Status DurableStore::AppendRecord(std::string_view payload) {
  Status status;
  {
    std::shared_lock<std::shared_mutex> lock(rotate_mu_);
    StatusOr<std::uint64_t> syncs = wal_->Append(payload);
    if (syncs.ok()) {
      appends_.fetch_add(1, std::memory_order_relaxed);
      records_since_checkpoint_.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t seen = seen_syncs_.load(std::memory_order_relaxed);
      if (*syncs != seen &&
          seen_syncs_.compare_exchange_strong(seen, *syncs,
                                              std::memory_order_relaxed)) {
        last_sync_wall_ms_.store(NowWallMillis(), std::memory_order_relaxed);
      }
    } else {
      status = syncs.status();
      append_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (status.ok() && options_.after_append_hook) {
    // Crash-injection seam: the record is durable (to the policy's
    // promise) but the caller has NOT acked yet.
    options_.after_append_hook();
  }
  return status;
}

Status DurableStore::AppendOpen(SessionId id, const SessionHeader& header,
                                const PackedTranscript& steps) {
  std::string& payload = RecordHeader("open", id, NowWallMillis());
  payload += '\n';
  SessionCodec::Encode(header, steps, &payload);
  return AppendRecord(payload);
}

Status DurableStore::AppendOpen(SessionId id, const SerializedSession& state) {
  std::string& payload = RecordHeader("open", id, NowWallMillis());
  payload += '\n';
  payload += SessionCodec::Encode(state);
  return AppendRecord(payload);
}

Status DurableStore::AppendStep(SessionId id, std::uint64_t fingerprint,
                                const PackedTranscript& steps,
                                std::size_t index) {
  std::string& payload =
      StepRecordHeader(id, NowWallMillis(), fingerprint, index);
  SessionCodec::AppendStepKey(steps, index, &payload);
  return AppendRecord(payload);
}

Status DurableStore::AppendStep(SessionId id, std::uint64_t fingerprint,
                                std::size_t index,
                                const TranscriptStep& step) {
  std::string& payload =
      StepRecordHeader(id, NowWallMillis(), fingerprint, index);
  SessionCodec::AppendStepKey(step, &payload);
  return AppendRecord(payload);
}

Status DurableStore::AppendClose(SessionId id) {
  return AppendRecord(RecordHeader("close", id, NowWallMillis()));
}

Status DurableStore::Sync() {
  std::vector<std::shared_ptr<WalWriter>> retired;
  {
    std::shared_lock<std::shared_mutex> lock(rotate_mu_);
    AIGS_RETURN_NOT_OK(wal_->Sync());
    last_sync_wall_ms_.store(NowWallMillis(), std::memory_order_relaxed);
    seen_syncs_.store(wal_->syncs(), std::memory_order_relaxed);
    retired = retired_;
  }
  // A checkpoint may be fsyncing these right now; WalWriter::Sync joins
  // that fsync instead of returning before it finishes.
  for (const auto& segment : retired) {
    AIGS_RETURN_NOT_OK(segment->Sync());
  }
  return Status::OK();
}

bool DurableStore::ShouldCheckpoint() const {
  return options_.checkpoint_every != 0 &&
         records_since_checkpoint_.load(std::memory_order_relaxed) >=
             options_.checkpoint_every;
}

StatusOr<std::uint64_t> DurableStore::BeginCheckpoint() {
  std::uint64_t next = 0;
  std::vector<std::shared_ptr<WalWriter>> retired;
  {
    std::unique_lock<std::shared_mutex> lock(rotate_mu_);
    next = seq_ + 1;
    AIGS_ASSIGN_OR_RETURN(
        std::unique_ptr<WalWriter> fresh,
        WalWriter::Open(SegmentPath(options_.dir, next), options_.sync));
    retired_.push_back(std::move(wal_));
    wal_ = std::move(fresh);
    seq_ = next;
    records_since_checkpoint_.store(0, std::memory_order_relaxed);
    seen_syncs_.store(0, std::memory_order_relaxed);
    retired = retired_;
  }
  // The outgoing segment must be durable before any checkpoint built on
  // its contents can delete it. Nothing appends to it any more, so its
  // fsync runs outside the lock while appends go to the fresh segment.
  for (const auto& segment : retired) {
    AIGS_RETURN_NOT_OK(segment->Finish());
  }
  std::unique_lock<std::shared_mutex> lock(rotate_mu_);
  std::erase_if(retired_, [&retired](const auto& segment) {
    return std::find(retired.begin(), retired.end(), segment) !=
           retired.end();
  });
  return next;
}

Status DurableStore::CommitCheckpoint(
    std::uint64_t seq, const std::vector<CheckpointSession>& sessions,
    SessionId next_id) {
  const std::string tmp = options_.dir + "/" + SeqName("checkpoint-", seq,
                                                       ".tmp");
  const std::string final_path = CheckpointPath(options_.dir, seq);
  std::error_code ec;
  fs::remove(tmp, ec);  // a leftover from an earlier crashed attempt
  // Written once and never appended to: the frames go out in one buffer,
  // not through a preallocated, mapped WalWriter segment.
  std::string frames;
  AppendWalFrame("meta " + std::to_string(seq) + " " +
                     std::to_string(NowWallMillis()) + " " +
                     std::to_string(next_id),
                 &frames);
  std::string payload;
  for (const CheckpointSession& session : sessions) {
    payload = "session ";
    AppendUint(session.id, &payload);
    payload += ' ';
    AppendUint(session.last_active_wall_ms, &payload);
    payload += '\n';
    payload += session.blob;
    AppendWalFrame(payload, &frames);
  }
  AIGS_RETURN_NOT_OK(WriteWalFile(tmp, frames));
  ec.clear();
  fs::rename(tmp, final_path, ec);
  if (ec) {
    return Status::IOError("cannot publish checkpoint '" + final_path +
                           "': " + ec.message());
  }
  FsyncDir(options_.dir);

  // Everything strictly older than this checkpoint is now redundant.
  if (auto listing = ListDir(options_.dir); listing.ok()) {
    for (const auto& [old_seq, path] : listing->wals) {
      if (old_seq < seq) {
        fs::remove(path, ec);
      }
    }
    for (const auto& [old_seq, path] : listing->checkpoints) {
      if (old_seq < seq) {
        fs::remove(path, ec);
      }
    }
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  last_checkpoint_wall_ms_.store(NowWallMillis(), std::memory_order_relaxed);
  return Status::OK();
}

DurableStoreStats DurableStore::Stats() const {
  DurableStoreStats stats;
  stats.dir = options_.dir;
  stats.fsync_policy = FormatFsyncPolicy(options_.sync);
  {
    std::shared_lock<std::shared_mutex> lock(rotate_mu_);
    stats.segment_seq = seq_;
    stats.wal_bytes = wal_->bytes();
    stats.wal_records = wal_->records();
    stats.wal_syncs = wal_->syncs();
  }
  stats.appends = appends_.load(std::memory_order_relaxed);
  stats.append_failures = append_failures_.load(std::memory_order_relaxed);
  stats.records_since_checkpoint =
      records_since_checkpoint_.load(std::memory_order_relaxed);
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  stats.last_checkpoint_wall_ms =
      last_checkpoint_wall_ms_.load(std::memory_order_relaxed);
  stats.last_sync_wall_ms =
      last_sync_wall_ms_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace aigs
