#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace jaguar {

namespace {

obs::Counter* PoolCounter(const char* which) {
  return obs::MetricsRegistry::Global()->GetCounter(
      std::string("storage.bufferpool.") + which);
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void PageGuard::MarkDirty() {
  if (pool_ != nullptr) pool_->MarkFrameDirty(frame_, id_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, id_, /*dirty=*/false);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity,
                       wal::LogManager* wal, const BufferPoolConfig& config)
    : disk_(disk), wal_(wal), capacity_(capacity) {
  JAGUAR_CHECK(capacity > 0);
  size_t want = config.shards != 0
                    ? config.shards
                    : std::min<size_t>(
                          16, std::max<size_t>(1, config.workers_hint) * 2);
  shards_count_ = NextPow2(want);
  // More shards than frames would let a tiny pool strand capacity behind
  // shard-local bookkeeping; tests run pools as small as two frames.
  while (shards_count_ > 1 && shards_count_ > capacity) shards_count_ /= 2;
  shard_mask_ = shards_count_ - 1;

  frames_ = std::make_unique<Frame[]>(capacity);
  shards_ = std::make_unique<Shard[]>(shards_count_);
  free_frames_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    frames_[i].data = std::make_unique<uint8_t[]>(kPageSize);
    free_frames_.push_back(capacity - 1 - i);
  }
}

BufferPool::~BufferPool() {
  Status s = FlushAll();
  if (!s.ok()) {
    JAGUAR_LOG(kWarning) << "buffer pool shutdown flush failed, dirty pages "
                            "may be lost: "
                         << s.ToString();
  }
}

void BufferPool::CountIoWait() {
  io_waits_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* waits = PoolCounter("io_waits");
  waits->Add();
}

std::unique_lock<std::mutex> BufferPool::LockShard(Shard& s) {
  std::unique_lock<std::mutex> lk(s.latch, std::try_to_lock);
  if (!lk.owns_lock()) {
    shard_conflicts_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* conflicts = PoolCounter("shard_conflicts");
    conflicts->Add();
    lk.lock();
  }
  return lk;
}

void BufferPool::ClockPush(Shard& s, size_t frame) {
  Frame& f = frames_[frame];
  const uint64_t epoch =
      f.clock_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  s.clock.push_back(ClockEntry{frame, epoch});
  // Every push bumps the epoch, so at most one entry per resident frame is
  // live; the rest are stale tombstones the sweep skips lazily. Eviction is
  // the only other place that pops them, and a working set that fits in the
  // pool never evicts — each pin/unpin cycle would leak one entry forever.
  // Compact here once stale entries outnumber live ones; the ring shrinks to
  // <= table.size(), so the O(n) sweep amortizes to O(1) per push.
  if (s.clock.size() > 16 && s.clock.size() > 2 * s.table.size()) {
    s.clock.erase(std::remove_if(s.clock.begin(), s.clock.end(),
                                 [this](const ClockEntry& e) {
                                   return frames_[e.frame].clock_epoch.load(
                                              std::memory_order_relaxed) !=
                                          e.epoch;
                                 }),
                  s.clock.end());
  }
}

Status BufferPool::WriteBackFrame(Frame& frame) {
  if (wal_ != nullptr) {
    // WAL rule: the record that produced this page image must be durable
    // before the image can reach the data file. Runs without any shard
    // latch held; LogManager::EnsureDurable is internally synchronized.
    JAGUAR_RETURN_IF_ERROR(wal_->EnsureDurable(PageLsn(frame.data.get())));
  }
  // The dirty bit is the caller's to clear, under the shard latch: clearing
  // it here (off-latch) could clobber a concurrent MarkDirty from a pin
  // holder and silently drop that mutation from every future flush.
  return disk_->WritePage(frame.id, frame.data.get());
}

void BufferPool::ReturnFreeFrame(size_t frame) {
  std::lock_guard<std::mutex> lk(free_mutex_);
  free_frames_.push_back(frame);
}

Result<size_t> BufferPool::EvictFromShard(Shard& s) {
  auto lk = LockShard(s);
  // Two passes over the initial ring: every resident candidate gets at most
  // one second chance before the sweep gives up on this shard.
  size_t budget = s.clock.size() * 2;
  while (budget-- > 0 && !s.clock.empty()) {
    ClockEntry e = s.clock.front();
    s.clock.pop_front();
    Frame& f = frames_[e.frame];
    // Stale entry: the frame was pinned, transferred or re-enqueued since.
    if (f.clock_epoch.load(std::memory_order_relaxed) != e.epoch) continue;
    if (f.pin_count.load(std::memory_order_relaxed) > 0 ||
        f.state != FrameState::kIdle) {
      continue;
    }
    if (f.ref) {
      f.ref = false;
      s.clock.push_back(e);  // second chance; epoch unchanged, still valid
      continue;
    }
    // Victim found. Invalidate any other ring entries and unmap it before
    // dropping the latch; fetchers of the victim page wait on the in-flight
    // table until the write-back lands, then re-read from disk.
    f.clock_epoch.fetch_add(1, std::memory_order_relaxed);
    const PageId victim = f.id;
    s.table.erase(victim);
    static obs::Counter* evictions = PoolCounter("evictions");
    if (!f.dirty) {
      f.id = kInvalidPageId;
      evictions_.fetch_add(1, std::memory_order_relaxed);
      evictions->Add();
      return e.frame;
    }
    s.io.insert(victim);
    ++s.inflight_writes;
    lk.unlock();
    Status ws = WriteBackFrame(f);
    lk.lock();
    --s.inflight_writes;
    s.io.erase(victim);
    if (!ws.ok()) {
      // Write-back failed: re-link the victim so its (still dirty) image
      // stays reachable instead of leaking an unreachable frame.
      s.table[victim] = e.frame;
      f.ref = true;
      ClockPush(s, e.frame);
      s.cv.notify_all();
      return ws;
    }
    f.dirty = false;
    f.id = kInvalidPageId;
    // Count only now: a failed write-back above re-links the victim and
    // reclaims nothing, so it must not inflate the eviction counter.
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evictions->Add();
    s.cv.notify_all();
    return e.frame;
  }
  return NotFound("no evictable frame in shard");
}

Result<size_t> BufferPool::AcquireFrame(Shard* home) {
  const size_t start = static_cast<size_t>(home - shards_.get());
  // A concurrent unpin or completed transfer can free a frame between
  // passes, so try the free list + a full sweep a few times before
  // declaring the pool exhausted. With every frame genuinely pinned all
  // passes fail deterministically.
  for (int attempt = 0; attempt < 3; ++attempt) {
    {
      std::lock_guard<std::mutex> lk(free_mutex_);
      if (!free_frames_.empty()) {
        size_t f = free_frames_.back();
        free_frames_.pop_back();
        return f;
      }
    }
    // Sweep the home shard first (keeps scans evicting their own cold
    // pages), then steal from neighbors — one latch at a time, never two.
    for (size_t i = 0; i < shards_count_; ++i) {
      Shard& s = shards_[(start + i) & shard_mask_];
      Result<size_t> r = EvictFromShard(s);
      if (r.ok()) return r;
      if (!r.status().IsNotFound()) return r;  // failed dirty write-back
    }
  }
  return ResourceExhausted("buffer pool exhausted: all frames pinned");
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  Shard& s = ShardOf(id);
  auto lk = LockShard(s);
  // One fetch counts as at most one io_wait no matter how many condvar
  // wakeups it takes (notify_all storms would otherwise overcount).
  bool waited = false;
  for (;;) {
    auto it = s.table.find(id);
    if (it != s.table.end()) {
      Frame& f = frames_[it->second];
      if (f.state == FrameState::kWriting) {
        // Write-back in flight; pinning now would let the image mutate
        // under the disk write. Wait for it to finish.
        waited = true;
        s.cv.wait(lk);
        continue;
      }
      if (waited) CountIoWait();
      hits_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter* hits = PoolCounter("hits");
      hits->Add();
      f.ref = true;
      if (f.pin_count.load(std::memory_order_relaxed) == 0) {
        f.clock_epoch.fetch_add(1, std::memory_order_relaxed);  // leaving the replacement pool while pinned
      }
      f.pin_count.fetch_add(1, std::memory_order_relaxed);
      return PageGuard(this, it->second, id, f.data.get());
    }
    if (s.io.count(id) != 0) {
      // Someone else is already reading this page (or writing the evicted
      // image back). Wait for the single I/O instead of duplicating it.
      waited = true;
      s.cv.wait(lk);
      continue;
    }
    break;  // genuine miss and we own the read
  }
  if (waited) CountIoWait();
  misses_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* misses = PoolCounter("misses");
  misses->Add();
  s.io.insert(id);
  lk.unlock();

  Result<size_t> fr = AcquireFrame(&s);
  if (!fr.ok()) {
    lk.lock();
    s.io.erase(id);
    s.cv.notify_all();
    return fr.status();
  }
  Frame& f = frames_[*fr];
  Status rs = disk_->ReadPage(id, f.data.get());

  lk.lock();
  s.io.erase(id);
  if (!rs.ok()) {
    s.cv.notify_all();
    lk.unlock();
    ReturnFreeFrame(*fr);
    return rs;
  }
  f.id = id;
  f.dirty = false;
  f.ref = true;
  f.state = FrameState::kIdle;
  f.clock_epoch.fetch_add(1, std::memory_order_relaxed);
  f.pin_count.store(1, std::memory_order_relaxed);
  s.table[id] = *fr;
  s.cv.notify_all();
  return PageGuard(this, *fr, id, f.data.get());
}

Result<PageGuard> BufferPool::NewPage() {
  // A freshly allocated page id cannot be cached or in flight anywhere, so
  // no coalescing bookkeeping is needed before publishing it.
  JAGUAR_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
  Shard& s = ShardOf(id);
  JAGUAR_ASSIGN_OR_RETURN(size_t fidx, AcquireFrame(&s));
  Frame& f = frames_[fidx];
  std::memset(f.data.get(), 0, kPageSize);
  auto lk = LockShard(s);
  f.id = id;
  f.dirty = true;
  f.ref = true;
  f.state = FrameState::kIdle;
  f.clock_epoch.fetch_add(1, std::memory_order_relaxed);
  f.pin_count.store(1, std::memory_order_relaxed);
  s.table[id] = fidx;
  return PageGuard(this, fidx, id, f.data.get());
}

void BufferPool::Unpin(size_t frame, PageId id, bool dirty) {
  Shard& s = ShardOf(id);
  auto lk = LockShard(s);
  Frame& f = frames_[frame];
  JAGUAR_CHECK(f.pin_count.load(std::memory_order_relaxed) > 0);
  if (dirty) f.dirty = true;
  if (f.pin_count.fetch_sub(1, std::memory_order_relaxed) == 1) {
    ClockPush(s, frame);  // back into the replacement pool, warm (ref set)
  }
}

void BufferPool::MarkFrameDirty(size_t frame, PageId id) {
  Shard& s = ShardOf(id);
  auto lk = LockShard(s);
  frames_[frame].dirty = true;
}

Status BufferPool::FlushAll() {
  // Draining inflight_writes means every eviction write-back that started
  // before this flush has landed, so the post-flush data file is complete,
  // which is what lets checkpoints truncate the log safely.
  //
  // The WAL fsync + page write run OFF the shard latch: the scan marks dirty
  // frames kWriting (pinned ones too — FlushAll writes them, it just keeps
  // fetch hits out while the image is under the disk write), then the latch
  // is dropped for the actual I/O so fetches, unpins and guard releases on
  // the shard are not stalled behind a page-by-page fsync scan.
  Status result = Status::OK();
  std::vector<size_t> batch;
  for (size_t i = 0; i < shards_count_ && result.ok(); ++i) {
    Shard& s = shards_[i];
    batch.clear();
    {
      auto lk = LockShard(s);
      while (s.inflight_writes > 0) s.cv.wait(lk);
      for (const auto& [id, fidx] : s.table) {
        Frame& f = frames_[fidx];
        if (f.dirty) {
          f.state = FrameState::kWriting;
          // Clear dirty at mark time, under the latch: a pin holder's
          // MarkDirty during our off-latch write then re-dirties the frame,
          // so a mutation the write may have missed is flushed next time
          // instead of being lost to an off-latch dirty=false.
          f.dirty = false;
          f.clock_epoch.fetch_add(1, std::memory_order_relaxed);
          s.io.insert(id);
          batch.push_back(fidx);
        }
      }
    }
    for (size_t fidx : batch) {
      Frame& f = frames_[fidx];
      // After the first failure stop issuing writes, but keep clearing the
      // kWriting marks so waiting fetchers are not stuck forever.
      const bool wrote = result.ok();
      Status ws = wrote ? WriteBackFrame(f) : Status::OK();
      auto lk = LockShard(s);
      if (!wrote || !ws.ok()) f.dirty = true;  // image did not reach disk
      f.state = FrameState::kIdle;
      s.io.erase(f.id);
      ClockPush(s, fidx);
      s.cv.notify_all();
      if (!ws.ok()) result = ws;
    }
  }
  JAGUAR_RETURN_IF_ERROR(result);
  return disk_->Sync();
}

Status BufferPool::Discard(PageId id) {
  Shard& s = ShardOf(id);
  auto lk = LockShard(s);
  for (;;) {
    if (s.io.count(id) != 0) {
      s.cv.wait(lk);
      continue;
    }
    auto it = s.table.find(id);
    if (it == s.table.end()) return Status::OK();
    Frame& f = frames_[it->second];
    if (f.state == FrameState::kWriting) {
      s.cv.wait(lk);
      continue;
    }
    if (f.pin_count.load(std::memory_order_relaxed) > 0) {
      return Internal(StringPrintf("discard of pinned page %u", id));
    }
    const size_t fidx = it->second;
    f.clock_epoch.fetch_add(1, std::memory_order_relaxed);  // invalidate ring entries
    f.id = kInvalidPageId;
    f.dirty = false;
    s.table.erase(it);
    lk.unlock();
    ReturnFreeFrame(fidx);
    return Status::OK();
  }
}

size_t BufferPool::clock_entries() const {
  size_t n = 0;
  for (size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lk(s.latch);
    n += s.clock.size();
  }
  return n;
}

size_t BufferPool::pinned_frames() const {
  size_t n = 0;
  for (size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lk(s.latch);
    for (const auto& [id, fidx] : s.table) {
      if (frames_[fidx].pin_count.load(std::memory_order_relaxed) > 0) ++n;
    }
  }
  return n;
}

}  // namespace jaguar
