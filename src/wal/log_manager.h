#ifndef JAGUAR_WAL_LOG_MANAGER_H_
#define JAGUAR_WAL_LOG_MANAGER_H_

/// \file log_manager.h
/// ARIES-lite redo-only write-ahead log.
///
/// The contract with the storage layer:
///
///  * Every page mutation appends a physical after-image record *before* the
///    page can reach the data file; the assigned LSN is stamped into the
///    page's footer (`kPageLsnOffset` in storage/page.h).
///  * Before a dirty page is written, the buffer pool calls `EnsureDurable`
///    with the page's LSN — the WAL rule.
///  * `Commit()` makes all appended records durable with one fsync; callers
///    whose records were already covered by a concurrent commit skip the
///    fsync entirely (group commit).
///  * `Checkpoint()` — called after the buffer pool has flushed and the data
///    file is synced — atomically resets the log so replay length stays
///    bounded by the write traffic since the last checkpoint.
///  * On open after a crash, `Recover()` scans the tail and re-applies every
///    record whose LSN exceeds the footer LSN of its target page.
///
/// LSNs are logical byte offsets: `lsn = base_lsn + (frame offset in file -
/// header size)`. `base_lsn` is persisted in the log file header and advanced
/// at each checkpoint, so LSNs stay monotonic across truncations and a
/// record's stored LSN can be cross-checked against its position (a cheap
/// second integrity check beyond the frame CRC).
///
/// File layout:
///
///     header := magic "JWAL" (u32) | version (u32) | base_lsn (u64)
///     frames := see wal_record.h
///
/// The log manager knows nothing about the buffer pool or storage engine; it
/// sees the data file only through the narrow `PageDevice` interface, which
/// `DiskManager` implements.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "wal/wal_record.h"

namespace jaguar::wal {

/// Knobs threaded down from DatabaseOptions.
struct WalOptions {
  /// When false the engine runs without a log (legacy behavior); recovery
  /// and crash safety are off.
  bool enabled = true;
  /// fsync the log on every Commit(). Turning this off keeps the WAL rule
  /// (ordering) but trades durability of the last few statements for speed —
  /// useful for benchmarks.
  bool fsync_on_commit = true;
  /// Auto-checkpoint once the log grows past this many bytes.
  uint64_t checkpoint_bytes = 8ull << 20;
};

/// What redo did on open; exported as wal.recovery.* counters too.
struct RecoveryStats {
  uint64_t records_scanned = 0;
  uint64_t pages_replayed = 0;
  uint64_t pages_skipped = 0;
  Lsn end_lsn = kNullLsn;
};

/// Minimal view of the data file that redo needs. Implemented by
/// `DiskManager`; the indirection keeps libjaguar_wal free of a dependency
/// on the storage library (wal only includes header-only page constants).
class PageDevice {
 public:
  virtual ~PageDevice() = default;
  virtual Status ReadPage(PageId id, uint8_t* out) = 0;
  virtual Status WritePage(PageId id, const uint8_t* data) = 0;
  /// Grows the file with zeroed pages until it holds `num_pages` pages.
  virtual Status EnsureSize(uint32_t num_pages) = 0;
  virtual uint32_t num_pages() const = 0;
  virtual Status Sync() = 0;
};

class LogManager {
 public:
  static constexpr uint32_t kMagic = 0x4C41574Au;  // "JWAL"
  static constexpr uint32_t kVersion = 1;
  static constexpr uint32_t kHeaderSize = 16;

  explicit LogManager(WalOptions options) : options_(options) {}
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Opens (creating or re-initializing if absent/corrupt-headed) the log
  /// file at `path`. Scans existing frames to find the valid tail and
  /// truncates any torn append beyond it.
  Status Open(const std::string& path);

  /// Commits pending records and closes the file. Idempotent.
  Status Close();
  bool is_open() const { return fd_ >= 0; }

  /// Assigns the next LSN to `rec`, buffers its frame, and returns the LSN.
  /// Buffered records become durable on Commit()/EnsureDurable().
  Result<Lsn> Append(WalRecord rec);

  /// WAL rule hook: guarantees every record with LSN <= `lsn` is durable
  /// before returning. No-op for kNullLsn or already-durable LSNs.
  /// Internally synchronized: the buffer pool calls this off its shard
  /// latches — from eviction write-backs on any fetching thread and from
  /// FlushAll — concurrently with appends on the query thread. After a checkpoint truncates the log, a stale page
  /// LSN is simply already-durable, so late write-backs remain no-ops.
  Status EnsureDurable(Lsn lsn);

  /// Makes everything appended so far durable. One fsync covers all pending
  /// records (group commit); a call that finds its records already durable
  /// skips the fsync and counts as a group commit.
  Status Commit();

  /// Bytes of log written since the last checkpoint (pending included);
  /// drives auto-checkpointing.
  uint64_t LogBytes() const;

  /// LSN the next Append() will assign.
  Lsn NextLsn() const;

  /// Atomically replaces the log with a fresh one whose base LSN continues
  /// the sequence, containing a single kCheckpoint record. The caller must
  /// have flushed all dirty pages and synced the data file first.
  /// \param num_pages current data-file page count, stored in the record.
  Status Checkpoint(uint32_t num_pages);

  /// Redo pass: replays every logged page write whose LSN exceeds the target
  /// page's footer LSN onto `device`, extending the file as needed, then
  /// syncs it. Stops cleanly at the first torn/corrupt frame.
  Status Recover(PageDevice* device, RecoveryStats* stats);

  const WalOptions& options() const { return options_; }

 private:
  Status WriteHeader(int fd, Lsn base_lsn);
  /// Appends pending frames to the file (no fsync). Requires mutex_ held.
  Status FlushPendingLocked();
  /// fsyncs the log file. Requires mutex_ held.
  Status SyncLocked();

  WalOptions options_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  std::string path_;
  Lsn base_lsn_ = 1;
  /// File offset where the next pending byte lands.
  uint64_t write_off_ = kHeaderSize;
  /// File offset up to which frames are fsync-durable.
  uint64_t synced_off_ = kHeaderSize;
  /// Encoded frames appended but not yet written to the file.
  std::vector<uint8_t> pending_;
};

}  // namespace jaguar::wal

#endif  // JAGUAR_WAL_LOG_MANAGER_H_
