// DurableStore — the on-disk half of the durable session store.
//
// The aigs-session/2 transcript codec already serializes a session's
// complete state, and transcript replay already restores it (policy
// determinism, Definition 6). What a crash-safe service additionally needs
// is (a) an ordered log of the acked mutations since the last snapshot and
// (b) an atomic snapshot cadence that keeps that log short. This class
// owns both, as one directory:
//
//   wal-<seq>.log          append-only record log (see wal.h framing)
//   checkpoint-<seq>.ckpt  atomic snapshot: state when segment <seq> opened
//
// WAL record payloads (text; the blob/step lines ARE the session codec):
//
//   open <id> <wall_ms>\n<aigs-session/2 blob>     session created/replaced
//   step <id> <wall_ms> <fingerprint> <index> <step line>   one acked Answer
//   close <id> <wall_ms>                           session closed
//
// An `open` record carries the full (usually empty) transcript so Resume,
// Migrate, and in-place migration all log through the same record — a
// later `open` for a live id replaces its state. A `step` record carries
// the transcript index, which makes replay idempotent: a checkpoint races
// live traffic by design (segment rotation first, per-session snapshots
// second), so the same step may appear in both the checkpoint blob and the
// new segment; the index dedups it.
//
// Checkpoint protocol: rotate to segment seq+1 (new appends go there) →
// snapshot every live session → write checkpoint-<seq+1>.tmp → fsync →
// rename into place → fsync the directory → delete files of seq < seq+1.
// A crash anywhere leaves a recoverable prefix: recovery loads the newest
// fully-CRC-valid checkpoint and applies the valid prefix of every
// surviving segment at or after it, in order. Torn tails are counted and
// discarded, never errors; that is the normal post-crash state.
//
// TTL across restarts: a monotonic clock does not survive the process, so
// every record carries wall-clock milliseconds (injectable for tests) and
// recovery drops sessions whose last activity is older than the TTL
// instead of resurrecting them.
#ifndef AIGS_SERVICE_DURABLE_STORE_H_
#define AIGS_SERVICE_DURABLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "service/session_codec.h"
#include "service/wal.h"
#include "util/status.h"

namespace aigs {

using SessionId = std::uint64_t;  // mirrors session_manager.h

struct DurabilityOptions {
  /// Directory holding the WAL segments and checkpoints (created if
  /// absent; parents too).
  std::string dir;
  WalSyncOptions sync;
  /// WAL records between automatic checkpoints (the Engine runs one on the
  /// request thread that crosses the threshold, after its session lock
  /// drops); 0 = manual only.
  std::size_t checkpoint_every = 8192;
  /// Wall-clock milliseconds (Unix epoch); null = std::chrono::system_clock.
  /// Injectable so recovery-TTL tests need no real idle time.
  std::function<std::uint64_t()> wall_clock_millis;
  /// TEST ONLY (crash injection): runs after every successful WAL append,
  /// BEFORE the engine acks the operation to its caller.
  std::function<void()> after_append_hook;
};

/// One session as the recovery scan reconstructed it.
struct RecoveredSessionRecord {
  SessionId id = 0;
  /// Wall-clock time of the session's last logged activity.
  std::uint64_t last_active_wall_ms = 0;
  SerializedSession saved;
};

/// Everything a recovery scan learned from the directory.
struct DurableScan {
  std::vector<RecoveredSessionRecord> sessions;  // sorted by id
  /// Lower bound for the id counter so recovered ids are never reissued.
  SessionId next_session_id = 1;
  std::size_t checkpoint_sessions = 0;  ///< sessions in the loaded checkpoint
  std::uint64_t wal_records = 0;        ///< valid WAL records applied
  std::uint64_t torn_tails = 0;         ///< segments with a damaged tail
  std::uint64_t torn_bytes = 0;         ///< bytes those tails discarded
  std::uint64_t malformed_records = 0;  ///< CRC-valid but unusable records
  std::uint64_t invalid_checkpoints = 0;  ///< checkpoint files skipped
};

/// Point-in-time counters for Engine::Stats / the serve REPL.
struct DurableStoreStats {
  std::string dir;
  std::string fsync_policy;
  std::uint64_t segment_seq = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_records = 0;  ///< records in the current segment
  std::uint64_t wal_syncs = 0;    ///< fsyncs of the current segment
  std::uint64_t appends = 0;      ///< acked appends over the store's life
  std::uint64_t append_failures = 0;
  std::uint64_t records_since_checkpoint = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t last_checkpoint_wall_ms = 0;
  std::uint64_t last_sync_wall_ms = 0;
};

class DurableStore {
 public:
  /// True when `dir` already holds WAL segments or checkpoints — the guard
  /// Engine::EnableDurability uses to refuse silently shadowing state that
  /// should be Recover()ed instead.
  static bool HasState(const std::string& dir);

  /// Opens (creating if needed) the directory, scans existing state into
  /// `*scan`, and starts a fresh WAL segment after whatever is there (old
  /// segments are only deleted by the next checkpoint). The store never
  /// appends into a pre-existing segment, so a torn tail stays frozen on
  /// disk exactly as the scan interpreted it.
  static StatusOr<std::unique_ptr<DurableStore>> Open(
      DurabilityOptions options, DurableScan* scan);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  // ---- logging (thread-safe; callers order per-session records via the
  // ---- session mutex) -------------------------------------------------------

  /// Logs session creation or wholesale replacement (Open/Resume/Migrate).
  Status AppendOpen(SessionId id, const SerializedSession& state);

  /// Logs one acked Answer. `index` is the step's transcript position;
  /// `fingerprint` the session's catalog fingerprint.
  Status AppendStep(SessionId id, std::uint64_t fingerprint,
                    std::size_t index, const TranscriptStep& step);

  /// Logs session close.
  Status AppendClose(SessionId id);

  /// Fsyncs the current segment regardless of policy (graceful shutdown),
  /// and any segment a checkpoint retired whose fsync has not finished.
  Status Sync();

  /// True when the auto-checkpoint threshold has been crossed.
  bool ShouldCheckpoint() const;

  // ---- checkpointing ---------------------------------------------------------

  struct CheckpointSession {
    SessionId id = 0;
    std::uint64_t last_active_wall_ms = 0;
    std::string blob;  ///< aigs-session/2 encoding
  };

  /// Rotates the WAL to a fresh segment and returns its sequence number.
  /// The caller then snapshots live sessions (concurrent appends land in
  /// the new segment and are deduped at replay by step index) and calls
  /// CommitCheckpoint. The retired segment is fsynced after the swap, with
  /// appends already flowing into the fresh one, and before this returns.
  StatusOr<std::uint64_t> BeginCheckpoint();

  /// Writes checkpoint `seq` atomically (tmp → fsync → rename → dir
  /// fsync), then deletes segments and checkpoints older than `seq`. On
  /// failure the old state remains authoritative — recovery composes the
  /// previous checkpoint with every surviving segment.
  Status CommitCheckpoint(std::uint64_t seq,
                          const std::vector<CheckpointSession>& sessions,
                          SessionId next_id);

  std::uint64_t NowWallMillis() const;
  const DurabilityOptions& options() const { return options_; }
  DurableStoreStats Stats() const;

 private:
  explicit DurableStore(DurabilityOptions options);

  Status AppendRecord(std::string_view payload);

  DurabilityOptions options_;

  /// Guards the (seq, writer) pair across segment rotation; appends take
  /// it shared (the writer serializes internally), rotation exclusive.
  mutable std::shared_mutex rotate_mu_;
  std::uint64_t seq_ = 0;
  std::unique_ptr<WalWriter> wal_;
  /// Segments rotation retired whose fsync has not yet succeeded (guarded
  /// by `rotate_mu_`); Sync() covers them too.
  std::vector<std::shared_ptr<WalWriter>> retired_;

  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> append_failures_{0};
  std::atomic<std::uint64_t> records_since_checkpoint_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> last_checkpoint_wall_ms_{0};
  std::atomic<std::uint64_t> last_sync_wall_ms_{0};
  std::atomic<std::uint64_t> seen_syncs_{0};
};

}  // namespace aigs

#endif  // AIGS_SERVICE_DURABLE_STORE_H_
