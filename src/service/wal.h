// Write-ahead log — the append-only record file under the durable session
// store (DurableStore owns the directory layout; this layer owns one file).
//
// Frame format (little-endian, binary-safe payloads):
//
//   u32 payload length | u32 CRC-32 of payload | payload bytes
//
// A crash can stop the final write anywhere, so the reader treats the file
// as "every prefix of valid frames counts": it scans frames until EOF or
// the first frame whose length runs past the file or whose CRC mismatches,
// returns the valid prefix, and reports the torn tail instead of failing.
// Records BEHIND a torn frame are never trusted (their framing derives
// from the damaged length), which is exactly the WAL contract: acked
// writes are a durable prefix, the unacked tail may be lost but is never
// corrupted into the recovered state.
//
// Segment layout: the writer preallocates the file (posix_fallocate) in
// whole 1 MiB steps, reserving space before any byte of a frame is
// written, so a failed append (disk full, file-size limit) leaves no
// partial frame. Frames are copied into a MAP_SHARED window of 256 KiB
// that starts at the page holding the tail; every page of the window is
// write-faulted when it is mapped, so an append is a memcpy under the
// mutex: payload first, header last. Closing the writer truncates the
// file to its last frame. A crashed writer leaves the file at a whole
// number of steps with zeros after the last frame; the reader counts
// that zero tail as unused space, not as a torn tail.
//
// The one unreadable case: a zero-length frame is eight zero bytes (the
// CRC-32 of nothing is 0), so an empty payload as the LAST frame of a
// crashed segment cannot be told from the zero tail and is dropped (as is
// one ending a closed segment whose size happens to be a whole number of
// steps). Empty payloads mid-segment, and at the end of a closed segment,
// read back. DurableStore never writes an empty payload.
//
// Durability is the fsync policy (group commit):
//
//   always      every Append returns only after its record is fsynced —
//               but one fsync covers every record written before it
//               started, so concurrent appenders share syncs instead of
//               queueing one syscall each.
//   interval:N  fsync once per N appended records (bounded loss window).
//   none        never fsync (the OS flushes on its own schedule).
//
// On Linux fsync writes back the pages dirtied through the mapping.
#ifndef AIGS_SERVICE_WAL_H_
#define AIGS_SERVICE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace aigs {

enum class FsyncPolicy : std::uint8_t { kAlways, kInterval, kNone };

/// When (and how often) appended records reach stable storage.
struct WalSyncOptions {
  FsyncPolicy policy = FsyncPolicy::kInterval;
  /// Records between fsyncs under kInterval (>= 1).
  std::size_t interval = 64;
};

/// Parses "always", "interval:N", or "none" (the serve REPL / bench knob).
StatusOr<WalSyncOptions> ParseFsyncPolicy(std::string_view text);

/// The inverse of ParseFsyncPolicy ("interval:64", ...).
std::string FormatFsyncPolicy(const WalSyncOptions& sync);

/// Appender for one WAL file. Thread-safe; all appends are totally ordered
/// by an internal mutex (per-session ordering is the caller's session
/// mutex; this only makes interleaved sessions' records a valid sequence).
class WalWriter {
 public:
  /// Opens `path` for appending, creating it if absent. An existing file
  /// is cut back to its valid frame prefix and appended after it.
  static StatusOr<std::unique_ptr<WalWriter>> Open(std::string path,
                                                   WalSyncOptions sync);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one framed record; on return the record is durable to the
  /// degree the fsync policy promises. Returns syncs() as of the append.
  /// IOError on a failed reservation, mapping or fsync — the caller must
  /// treat the record as NOT acked. A failed reservation or mapping
  /// writes no header, so the frame never reads back as a record.
  StatusOr<std::uint64_t> Append(std::string_view payload);

  /// Explicit fsync of everything appended so far (graceful shutdown and
  /// checkpoint barriers), regardless of policy (kNone included).
  Status Sync();

  /// Ends a segment that takes no more appends: truncates the file to its
  /// last frame (dropping the unused preallocation before the flush, so
  /// fsync writes back only frames), then Sync()s it. The destructor does
  /// the same, best-effort. A later Append grows the file again.
  Status Finish();

  const std::string& path() const { return path_; }
  std::uint64_t bytes() const;
  std::uint64_t records() const;
  std::uint64_t syncs() const;

 private:
  WalWriter(std::string path, int fd, std::uint64_t bytes,
            WalSyncOptions sync);

  /// Group commit: waits/participates until record #`target` is synced.
  /// Caller holds `lock`.
  Status SyncLocked(std::unique_lock<std::mutex>& lock, std::uint64_t target);

  // The helpers below run under `mu_` (or before the writer is shared).

  /// Grows the file in whole steps until it holds `end` bytes.
  Status Reserve(std::uint64_t end);
  /// Maps the window at the page holding `offset` and write-faults it.
  Status MapWindow(std::uint64_t offset);
  /// Write-faults the window's pages covering [from, to).
  void Prefault(std::uint64_t from, std::uint64_t to);
  /// Copies `data` to file offset `offset`, moving the window forward as
  /// it fills. The window must start at or before `offset`.
  Status CopyOut(std::uint64_t offset, std::string_view data);
  void Unmap();

  const std::string path_;
  const WalSyncOptions sync_;
  int fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable sync_cv_;
  bool sync_in_flight_ = false;
  /// End of the last frame: where the next one starts.
  std::uint64_t bytes_ = 0;
  /// File size: preallocated bytes, a whole number of steps.
  std::uint64_t reserved_ = 0;
  char* window_ = nullptr;
  std::uint64_t window_offset_ = 0;
  std::uint64_t appended_records_ = 0;
  std::uint64_t synced_records_ = 0;
  std::uint64_t syncs_ = 0;
};

/// Every valid record of one WAL file, plus what the torn tail looked like.
struct WalScan {
  std::vector<std::string> records;
  /// Bytes of the valid frame prefix (where an appender could resume).
  std::uint64_t valid_bytes = 0;
  /// Bytes past the valid prefix, discarded (0 for a clean file, and for
  /// a zero tail a crashed writer left preallocated).
  std::uint64_t torn_bytes = 0;
};

/// Reads `path` front to back. A torn/corrupt tail is reported in the
/// scan, never an error; a missing file is an empty scan. IOError only
/// when the file exists but cannot be read.
StatusOr<WalScan> ReadWal(const std::string& path);

}  // namespace aigs

#endif  // AIGS_SERVICE_WAL_H_
