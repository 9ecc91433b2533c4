#include "service/wal.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/crc32.h"
#include "util/string_util.h"

namespace aigs {
namespace {

constexpr std::size_t kFrameHeader = 8;  // u32 length + u32 crc
/// Segments grow (posix_fallocate) in steps of this many bytes.
constexpr std::uint64_t kGrowBytes = std::uint64_t{1} << 20;
/// Appends write through a shared mapping of this many bytes.
constexpr std::uint64_t kWindowBytes = std::uint64_t{256} << 10;

std::uint64_t PageBytes() {
  static const std::uint64_t page =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

void PutU32(std::uint32_t v, char* out) {
  out[0] = static_cast<char>(v & 0xFF);
  out[1] = static_cast<char>((v >> 8) & 0xFF);
  out[2] = static_cast<char>((v >> 16) & 0xFF);
  out[3] = static_cast<char>((v >> 24) & 0xFF);
}

std::uint32_t GetU32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

/// The u32 length and u32 CRC-32 in front of `payload`.
void PutFrameHeader(std::string_view payload, char* header) {
  PutU32(static_cast<std::uint32_t>(payload.size()), header);
  PutU32(Crc32(payload), header + 4);
}

}  // namespace

StatusOr<WalSyncOptions> ParseFsyncPolicy(std::string_view text) {
  const std::string_view spec = Trim(text);
  WalSyncOptions sync;
  if (spec == "always") {
    sync.policy = FsyncPolicy::kAlways;
    return sync;
  }
  if (spec == "none") {
    sync.policy = FsyncPolicy::kNone;
    return sync;
  }
  if (spec.starts_with("interval:")) {
    sync.policy = FsyncPolicy::kInterval;
    AIGS_ASSIGN_OR_RETURN(const std::uint64_t n,
                          ParseUint64(spec.substr(9)));
    if (n == 0) {
      return Status::InvalidArgument("fsync interval must be >= 1");
    }
    sync.interval = static_cast<std::size_t>(n);
    return sync;
  }
  return Status::InvalidArgument("unknown fsync policy '" +
                                 std::string(spec) +
                                 "' (always, interval:N, none)");
}

std::string FormatFsyncPolicy(const WalSyncOptions& sync) {
  switch (sync.policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval:" + std::to_string(sync.interval);
    case FsyncPolicy::kNone:
      return "none";
  }
  return "?";
}

WalWriter::WalWriter(std::string path, int fd, std::uint64_t bytes,
                     WalSyncOptions sync)
    : path_(std::move(path)),
      sync_(sync),
      fd_(fd),
      bytes_(bytes),
      reserved_(bytes) {}

WalWriter::~WalWriter() {
  // Best-effort flush so a graceful destruction loses nothing even under
  // kInterval/kNone; a crash is the WAL's job, not the destructor's.
  (void)Finish();
  ::close(fd_);
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(std::string path,
                                                     WalSyncOptions sync) {
  AIGS_ASSIGN_OR_RETURN(const WalScan existing, ReadWal(path));
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Errno("cannot open wal", path);
  }
  if (::ftruncate(fd, static_cast<off_t>(existing.valid_bytes)) != 0) {
    const Status status = Errno("cannot truncate wal", path);
    ::close(fd);
    return status;
  }
  std::unique_ptr<WalWriter> writer(
      new WalWriter(std::move(path), fd, existing.valid_bytes, sync));
  AIGS_RETURN_NOT_OK(writer->Reserve(writer->bytes_ + 1));
  AIGS_RETURN_NOT_OK(writer->MapWindow(writer->bytes_));
  return writer;
}

Status WalWriter::Reserve(std::uint64_t end) {
  const std::uint64_t target = (end + kGrowBytes - 1) / kGrowBytes * kGrowBytes;
  const int rc = ::posix_fallocate(fd_, static_cast<off_t>(reserved_),
                                   static_cast<off_t>(target - reserved_));
  if (rc != 0) {
    // Where the filesystem lacks fallocate, glibc extends the file by
    // writing; cut off whatever part of the step landed.
    if (::ftruncate(fd_, static_cast<off_t>(reserved_)) != 0) {
      // A partial zero tail stays; the reader skips it.
    }
    errno = rc;
    return Errno("cannot preallocate wal", path_);
  }
  const std::uint64_t old = reserved_;
  reserved_ = target;
  if (window_ != nullptr) {
    Prefault(std::max(old, window_offset_),
             std::min(reserved_, window_offset_ + kWindowBytes));
  }
  return Status::OK();
}

Status WalWriter::MapWindow(std::uint64_t offset) {
  Unmap();
  const std::uint64_t start = offset / PageBytes() * PageBytes();
  void* const window =
      ::mmap(nullptr, kWindowBytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd_,
             static_cast<off_t>(start));
  if (window == MAP_FAILED) {
    return Errno("cannot map wal", path_);
  }
  window_ = static_cast<char*>(window);
  window_offset_ = start;
  // Pages past the reservation are beyond EOF (touching them would
  // SIGBUS); Reserve faults them in once the file covers them.
  Prefault(start, std::min(reserved_, start + kWindowBytes));
  return Status::OK();
}

void WalWriter::Prefault(std::uint64_t from, std::uint64_t to) {
  if (from >= to) {
    return;
  }
  // Both write(2) and a first store through the mapping allocate a page
  // every 4 KiB; taking those faults here keeps them out of appends.
  char* const begin =
      window_ + (from - window_offset_) / PageBytes() * PageBytes();
  char* const end = window_ + (to - window_offset_);
#ifdef MADV_POPULATE_WRITE
  if (::madvise(begin, static_cast<std::size_t>(end - begin),
                MADV_POPULATE_WRITE) == 0) {
    return;
  }
#endif
  // Kernels before 5.14: store each page's first byte back to itself.
  for (volatile char* page = begin; page < end; page += PageBytes()) {
    *page = *page;
  }
}

Status WalWriter::CopyOut(std::uint64_t offset, std::string_view data) {
  while (!data.empty()) {
    if (offset >= window_offset_ + kWindowBytes) {
      AIGS_RETURN_NOT_OK(MapWindow(offset));
    }
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
        data.size(), window_offset_ + kWindowBytes - offset));
    std::memcpy(window_ + (offset - window_offset_), data.data(), n);
    data.remove_prefix(n);
    offset += n;
  }
  return Status::OK();
}

void WalWriter::Unmap() {
  if (window_ != nullptr) {
    ::munmap(window_, kWindowBytes);
    window_ = nullptr;
  }
}

StatusOr<std::uint64_t> WalWriter::Append(std::string_view payload) {
  char header[kFrameHeader];
  PutFrameHeader(payload, header);

  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t start = bytes_;
  const std::uint64_t end = start + kFrameHeader + payload.size();
  if (end > reserved_) {
    AIGS_RETURN_NOT_OK(Reserve(end));
  }
  if (window_ == nullptr || start < window_offset_ ||
      end > window_offset_ + kWindowBytes) {
    AIGS_RETURN_NOT_OK(MapWindow(start));
  }
  // Payload first, header last: a crash between the two leaves a zero
  // header in front of payload bytes, which reads as a torn tail.
  AIGS_RETURN_NOT_OK(CopyOut(start + kFrameHeader, payload));
  if (start < window_offset_) {
    AIGS_RETURN_NOT_OK(MapWindow(start));  // a frame wider than the window
  }
  std::memcpy(window_ + (start - window_offset_), header, kFrameHeader);
  bytes_ = end;
  const std::uint64_t my_seq = ++appended_records_;
  switch (sync_.policy) {
    case FsyncPolicy::kNone:
      return syncs_;
    case FsyncPolicy::kInterval:
      if (appended_records_ - synced_records_ < sync_.interval) {
        return syncs_;
      }
      break;
    case FsyncPolicy::kAlways:
      break;
  }
  AIGS_RETURN_NOT_OK(SyncLocked(lock, my_seq));
  return syncs_;
}

Status WalWriter::Finish() {
  std::unique_lock<std::mutex> lock(mu_);
  Unmap();
  if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0) {
    return Errno("cannot truncate wal", path_);
  }
  reserved_ = bytes_;
  return SyncLocked(lock, appended_records_);
}

Status WalWriter::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  return SyncLocked(lock, appended_records_);
}

Status WalWriter::SyncLocked(std::unique_lock<std::mutex>& lock,
                             std::uint64_t target) {
  for (;;) {
    if (synced_records_ >= target) {
      return Status::OK();  // another appender's fsync covered our record
    }
    if (!sync_in_flight_) {
      break;
    }
    sync_cv_.wait(lock);
  }
  sync_in_flight_ = true;
  // The fsync covers every record already written; note the watermark
  // before dropping the mutex (appends during the fsync are NOT covered).
  const std::uint64_t covered = appended_records_;
  lock.unlock();
  const int rc = ::fsync(fd_);
  lock.lock();
  sync_in_flight_ = false;
  if (rc == 0 && synced_records_ < covered) {
    synced_records_ = covered;
    ++syncs_;
  }
  sync_cv_.notify_all();
  if (rc != 0) {
    return Errno("wal fsync of", path_);
  }
  return synced_records_ >= target
             ? Status::OK()
             : SyncLocked(lock, target);  // raced an append mid-fsync
}

std::uint64_t WalWriter::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t WalWriter::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_records_;
}

std::uint64_t WalWriter::syncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_;
}

void AppendWalFrame(std::string_view payload, std::string* out) {
  char header[kFrameHeader];
  PutFrameHeader(payload, header);
  out->append(header, kFrameHeader);
  out->append(payload);
}

Status WriteWalFile(const std::string& path, std::string_view frames) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Errno("cannot create", path);
  }
  while (!frames.empty()) {
    const ssize_t n = ::write(fd, frames.data(), frames.size());
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      const Status status = Errno("cannot write", path);
      ::close(fd);
      return status;
    }
    frames.remove_prefix(static_cast<std::size_t>(n));
  }
  if (::fsync(fd) != 0) {
    const Status status = Errno("cannot fsync", path);
    ::close(fd);
    return status;
  }
  if (::close(fd) != 0) {
    return Errno("cannot close", path);
  }
  return Status::OK();
}

StatusOr<WalScan> ReadWal(const std::string& path) {
  WalScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (::access(path.c_str(), F_OK) != 0) {
      return scan;  // no file, empty log
    }
    return Status::IOError("cannot read wal '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("cannot read wal '" + path + "'");
  }
  const std::string data = std::move(buffer).str();

  // `pos` ends the accepted prefix; zero-length frames past it (an all-
  // zero header, as the CRC-32 of nothing is 0) wait in `empties` until a
  // non-empty frame behind them shows they are not unused zero space.
  std::size_t pos = 0;
  std::size_t cursor = 0;
  std::size_t empties = 0;
  while (data.size() - cursor >= kFrameHeader) {
    const std::size_t length = GetU32(data.data() + cursor);
    const std::uint32_t crc = GetU32(data.data() + cursor + 4);
    if (length > data.size() - cursor - kFrameHeader) {
      break;  // frame runs past EOF: torn final write
    }
    const std::string_view payload(data.data() + cursor + kFrameHeader,
                                   length);
    if (Crc32(payload) != crc) {
      break;  // bit rot or a torn rewrite; nothing behind it is framed
    }
    cursor += kFrameHeader + length;
    if (length == 0) {
      ++empties;
      continue;
    }
    scan.records.insert(scan.records.end(), empties, std::string());
    empties = 0;
    scan.records.emplace_back(payload);
    pos = cursor;
  }
  // Trailing empty frames count where a closed segment ends with them:
  // exactly at EOF, in a file that is not a whole number of steps.
  if (empties != 0 && cursor == data.size() &&
      data.size() % kGrowBytes != 0) {
    scan.records.insert(scan.records.end(), empties, std::string());
    pos = cursor;
  }
  scan.valid_bytes = pos;
  const bool zero_tail =
      std::all_of(data.begin() + static_cast<std::ptrdiff_t>(pos), data.end(),
                  [](char c) { return c == 0; });
  scan.torn_bytes = zero_tail ? 0 : data.size() - pos;
  return scan;
}

}  // namespace aigs
