// Tests for src/storage: disk manager, slotted pages, buffer pool,
// storage engine free list, table heap (including overflow chains).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/random.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/slotted_page.h"
#include "storage/storage_engine.h"
#include "storage/table_heap.h"

namespace jaguar {
namespace {

/// Creates a unique temp db path and removes it on destruction.
class TempDb {
 public:
  explicit TempDb(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("jaguar_test_" + tag + "_" + std::to_string(::getpid()) + ".db"))
                .string();
    std::remove(path_.c_str());
  }
  ~TempDb() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(DiskManagerTest, AllocateReadWrite) {
  TempDb db("disk");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  EXPECT_EQ(dm.num_pages(), 0u);

  ASSERT_TRUE(dm.AllocatePage().ok());
  ASSERT_EQ(dm.AllocatePage().value(), 1u);
  EXPECT_EQ(dm.num_pages(), 2u);

  std::vector<uint8_t> buf(kPageSize, 0x5A);
  ASSERT_TRUE(dm.WritePage(1, buf.data()).ok());
  std::vector<uint8_t> out(kPageSize, 0);
  ASSERT_TRUE(dm.ReadPage(1, out.data()).ok());
  EXPECT_EQ(out, buf);

  // Unallocated access is rejected.
  EXPECT_TRUE(dm.ReadPage(9, out.data()).IsInvalidArgument());
  EXPECT_TRUE(dm.WritePage(9, buf.data()).IsInvalidArgument());
  ASSERT_TRUE(dm.Close().ok());
}

TEST(DiskManagerTest, ReopenSeesPersistedPages) {
  TempDb db("disk_reopen");
  {
    DiskManager dm;
    ASSERT_TRUE(dm.Open(db.path()).ok());
    ASSERT_TRUE(dm.AllocatePage().ok());
    std::vector<uint8_t> buf(kPageSize, 7);
    ASSERT_TRUE(dm.WritePage(0, buf.data()).ok());
    ASSERT_TRUE(dm.Close().ok());
  }
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  EXPECT_EQ(dm.num_pages(), 1u);
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(dm.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[kPageSize - 1], 7);
}

TEST(SlottedPageTest, InsertGetDelete) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  EXPECT_EQ(sp.num_slots(), 0u);
  EXPECT_TRUE(sp.CheckInvariants().ok());

  uint16_t s0 = sp.Insert(Slice("hello")).value();
  uint16_t s1 = sp.Insert(Slice("world!")).value();
  EXPECT_EQ(sp.Get(s0).value().ToString(), "hello");
  EXPECT_EQ(sp.Get(s1).value().ToString(), "world!");
  EXPECT_TRUE(sp.CheckInvariants().ok());

  ASSERT_TRUE(sp.Delete(s0).ok());
  EXPECT_TRUE(sp.Get(s0).status().IsNotFound());
  EXPECT_TRUE(sp.Delete(s0).IsNotFound());  // double delete
  EXPECT_EQ(sp.Get(s1).value().ToString(), "world!");

  // Tombstone slot is reused.
  uint16_t s2 = sp.Insert(Slice("again")).value();
  EXPECT_EQ(s2, s0);
  EXPECT_TRUE(sp.CheckInvariants().ok());
}

TEST(SlottedPageTest, ZeroLengthRecords) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  uint16_t s = sp.Insert(Slice()).value();
  EXPECT_EQ(sp.Get(s).value().size(), 0u);
  EXPECT_TRUE(sp.CheckInvariants().ok());
  ASSERT_TRUE(sp.Delete(s).ok());
  EXPECT_TRUE(sp.Get(s).status().IsNotFound());
}

TEST(SlottedPageTest, FillsUpThenRejects) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  std::string rec(100, 'r');
  int inserted = 0;
  while (true) {
    Result<uint16_t> s = sp.Insert(Slice(rec));
    if (!s.ok()) {
      EXPECT_TRUE(s.status().IsResourceExhausted());
      break;
    }
    ++inserted;
  }
  // 8192 / 104 ≈ 78 records.
  EXPECT_GT(inserted, 70);
  EXPECT_TRUE(sp.CheckInvariants().ok());
}

TEST(SlottedPageTest, CompactionReclaimsDeletedSpace) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  std::string rec(1000, 'x');
  std::vector<uint16_t> slots;
  while (true) {
    Result<uint16_t> s = sp.Insert(Slice(rec));
    if (!s.ok()) break;
    slots.push_back(*s);
  }
  ASSERT_GE(slots.size(), 4u);
  // Delete every other record, then a big insert must succeed via Compact.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(sp.Delete(slots[i]).ok());
  }
  std::string big(1800, 'y');
  Result<uint16_t> s = sp.Insert(Slice(big));
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(sp.Get(*s).value().ToString(), big);
  // Survivors are intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(sp.Get(slots[i]).value().ToString(), rec);
  }
  EXPECT_TRUE(sp.CheckInvariants().ok());
}

TEST(SlottedPageTest, RejectsOversizeRecord) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  std::string huge(kPageSize, 'z');
  EXPECT_TRUE(sp.Insert(Slice(huge)).status().IsInvalidArgument());
}

// Property sweep: random insert/delete sequences keep invariants and a shadow
// map in sync.
class SlottedPageFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SlottedPageFuzzTest, MatchesShadowModel) {
  Random rng(GetParam() * 7919 + 13);
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  std::map<uint16_t, std::string> shadow;
  for (int step = 0; step < 500; ++step) {
    if (shadow.empty() || rng.Bernoulli(0.6)) {
      std::string rec = rng.AlphaString(rng.Uniform(300));
      Result<uint16_t> s = sp.Insert(Slice(rec));
      if (s.ok()) {
        shadow[*s] = rec;
      } else {
        ASSERT_TRUE(s.status().IsResourceExhausted());
      }
    } else {
      auto it = shadow.begin();
      std::advance(it, rng.Uniform(shadow.size()));
      ASSERT_TRUE(sp.Delete(it->first).ok());
      shadow.erase(it);
    }
    ASSERT_TRUE(sp.CheckInvariants().ok());
  }
  for (const auto& [slot, rec] : shadow) {
    EXPECT_EQ(sp.Get(slot).value().ToString(), rec);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlottedPageFuzzTest, ::testing::Range(0, 10));

TEST(BufferPoolTest, FetchCachesPages) {
  TempDb db("pool");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 4);
  PageId id;
  {
    PageGuard p = pool.NewPage().value();
    id = p.id();
    p.data()[0] = 42;
    p.MarkDirty();
  }
  {
    PageGuard p = pool.FetchPage(id).value();
    EXPECT_EQ(p.data()[0], 42);
  }
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  TempDb db("pool_evict");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    PageGuard p = pool.NewPage().value();
    p.data()[0] = static_cast<uint8_t>(i + 1);
    p.MarkDirty();
    ids.push_back(p.id());
  }
  // All 8 pages round-trip through a 2-frame pool.
  for (int i = 0; i < 8; ++i) {
    PageGuard p = pool.FetchPage(ids[i]).value();
    EXPECT_EQ(p.data()[0], i + 1);
  }
  EXPECT_GT(pool.misses(), 0u);
}

TEST(BufferPoolTest, AllPinnedFails) {
  TempDb db("pool_pinned");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 2);
  PageGuard a = pool.NewPage().value();
  PageGuard b = pool.NewPage().value();
  EXPECT_TRUE(pool.NewPage().status().IsResourceExhausted());
  b.Release();
  EXPECT_TRUE(pool.NewPage().ok());
}

TEST(BufferPoolTest, GuardMoveKeepsSinglePin) {
  TempDb db("pool_move");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 2);
  PageGuard a = pool.NewPage().value();
  EXPECT_EQ(pool.pinned_frames(), 1u);
  PageGuard b = std::move(a);
  EXPECT_EQ(pool.pinned_frames(), 1u);
  b.Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, ShardCountScalesWithWorkersAndClampsToCapacity) {
  TempDb db("pool_shards");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  {
    BufferPool pool(&dm, 64);  // default workers_hint = 1
    EXPECT_EQ(pool.num_shards(), 2u);
  }
  BufferPoolConfig config;
  config.workers_hint = 4;
  {
    BufferPool pool(&dm, 64, nullptr, config);
    EXPECT_EQ(pool.num_shards(), 8u);
  }
  config.workers_hint = 32;  // auto shard count caps at 16
  {
    BufferPool pool(&dm, 64, nullptr, config);
    EXPECT_EQ(pool.num_shards(), 16u);
  }
  config.shards = 5;  // explicit counts round up to a power of two
  {
    BufferPool pool(&dm, 64, nullptr, config);
    EXPECT_EQ(pool.num_shards(), 8u);
  }
  config.shards = 16;  // ... and clamp to the capacity
  {
    BufferPool pool(&dm, 2, nullptr, config);
    EXPECT_EQ(pool.num_shards(), 2u);
  }
}

// DiskManager that counts reads and makes each one slow enough that
// concurrent misses of the same page overlap deterministically.
class SlowCountingDisk : public DiskManager {
 public:
  Status ReadPage(PageId id, uint8_t* out) override {
    reads_started.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return DiskManager::ReadPage(id, out);
  }
  std::atomic<int> reads_started{0};
};

TEST(BufferPoolTest, ConcurrentMissesOfOnePageIssueOneRead) {
  TempDb db("pool_dupread");
  SlowCountingDisk dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  PageId id = dm.AllocatePage().value();
  std::vector<uint8_t> buf(kPageSize, 0xAB);
  ASSERT_TRUE(dm.WritePage(id, buf.data()).ok());

  BufferPoolConfig config;
  config.workers_hint = 4;
  BufferPool pool(&dm, 8, nullptr, config);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto page = pool.FetchPage(id);
      if (!page.ok() || page->data()[0] != 0xAB) failures.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(dm.reads_started.load(), 1);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), static_cast<uint64_t>(kThreads - 1));
  EXPECT_GE(pool.io_waits(), 1u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

// DiskManager whose page writes can be made to fail on demand.
class FailingWriteDisk : public DiskManager {
 public:
  Status WritePage(PageId id, const uint8_t* data) override {
    if (fail_writes.load()) return IoError("injected write failure");
    return DiskManager::WritePage(id, data);
  }
  std::atomic<bool> fail_writes{false};
};

TEST(BufferPoolTest, FailedWriteBackKeepsVictimReachable) {
  TempDb db("pool_wbfail");
  FailingWriteDisk dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 2; ++i) {
    PageGuard p = pool.NewPage().value();
    p.data()[0] = static_cast<uint8_t>(0x10 + i);
    p.MarkDirty();
    ids.push_back(p.id());
  }
  // Both frames hold dirty pages; a third page needs an eviction, whose
  // write-back fails. The error must surface AND the dirty victim must stay
  // fetchable (the old pool leaked the frame on this path).
  dm.fail_writes.store(true);
  EXPECT_TRUE(pool.NewPage().status().IsIoError());
  dm.fail_writes.store(false);
  for (int i = 0; i < 2; ++i) {
    PageGuard p = pool.FetchPage(ids[i]).value();
    EXPECT_EQ(p.data()[0], 0x10 + i);
  }
  EXPECT_TRUE(pool.NewPage().ok());  // eviction works again
}

TEST(BufferPoolTest, HitOnlyWorkloadKeepsClockRingBounded) {
  TempDb db("pool_ringbound");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    PageGuard p = pool.NewPage().value();
    ids.push_back(p.id());
  }
  // A working set that fits in the pool never evicts, so nothing but
  // ClockPush's own compaction reclaims the stale ring entry each pin/unpin
  // cycle leaves behind. Before the compaction this grew by one entry per
  // fetch, without bound, for the life of the process.
  for (int i = 0; i < 20000; ++i) {
    PageGuard p = pool.FetchPage(ids[i % ids.size()]).value();
  }
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_LE(pool.clock_entries(),
            2 * pool.capacity() + 17 * pool.num_shards());
}

// DiskManager whose page writes park until released, to observe what the
// pool keeps available while a write-back is in flight.
class GatedWriteDisk : public DiskManager {
 public:
  Status WritePage(PageId id, const uint8_t* data) override {
    {
      std::unique_lock<std::mutex> lk(m_);
      if (gated_) {
        started_ = true;
        cv_.notify_all();
        cv_.wait(lk, [this] { return !gated_; });
      }
    }
    return DiskManager::WritePage(id, data);
  }
  void Gate() {
    std::lock_guard<std::mutex> lk(m_);
    gated_ = true;
    started_ = false;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lk(m_);
      gated_ = false;
    }
    cv_.notify_all();
  }
  void AwaitWriteStarted() {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [this] { return started_; });
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool gated_ = false;
  bool started_ = false;
};

TEST(BufferPoolTest, FlushAllDoesNotBlockFetchesDuringWriteBack) {
  TempDb db("pool_flush_offlatch");
  GatedWriteDisk dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPoolConfig config;
  config.shards = 1;  // both pages behind the one shard latch
  BufferPool pool(&dm, 4, nullptr, config);
  PageId dirty_id, clean_id;
  {
    PageGuard a = pool.NewPage().value();
    dirty_id = a.id();
    PageGuard b = pool.NewPage().value();
    clean_id = b.id();
  }
  ASSERT_TRUE(pool.FlushAll().ok());  // both resident and clean
  {
    PageGuard a = pool.FetchPage(dirty_id).value();
    a.data()[0] = 7;
    a.MarkDirty();
  }
  dm.Gate();
  std::thread flusher([&] { EXPECT_TRUE(pool.FlushAll().ok()); });
  dm.AwaitWriteStarted();
  // FlushAll is parked inside the dirty page's write. The shard latch must
  // be free: a hit on the clean resident page completes immediately (the
  // old pool held the latch across the whole per-page fsync+write scan and
  // would hang here until the write finished).
  {
    Result<PageGuard> p = pool.FetchPage(clean_id);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->id(), clean_id);
  }
  dm.Release();
  flusher.join();
  // The flushed mutation landed despite the gate.
  std::vector<uint8_t> check(kPageSize);
  ASSERT_TRUE(dm.ReadPage(dirty_id, check.data()).ok());
  EXPECT_EQ(check[0], 7);
}

// Multi-threaded fetch/evict/discard stress; meant for the TSan CI job.
// Each thread owns the pages whose id is congruent to its index (only
// owners mutate or discard), everyone reads everything.
TEST(BufferPoolConcurrencyTest, ParallelFetchEvictDiscardStress) {
  TempDb db("pool_stress");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());

  constexpr int kThreads = 4;
  constexpr int kPages = 64;
  constexpr int kIters = 300;

  BufferPoolConfig config;
  config.workers_hint = kThreads;
  // Capacity is deliberately far below kPages so fetches constantly evict,
  // but above kThreads * 2 so concurrent transfers can't exhaust the pool.
  BufferPool pool(&dm, 16, nullptr, config);

  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    PageGuard p = pool.NewPage().value();
    p.data()[0] = static_cast<uint8_t>(p.id() & 0xFF);
    p.MarkDirty();
    ids.push_back(p.id());
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(42 + t);
      for (int i = 0; i < kIters; ++i) {
        const int k = static_cast<int>(rng.Next() % kPages);
        const PageId id = ids[k];
        const bool owned = k % kThreads == t;
        if (owned && rng.Next() % 8 == 0) {
          // Discard is only legal while nobody has the page pinned; owners
          // are the only ones who discard, but a reader may hold a pin, so
          // an Internal "pinned" rejection is expected, not a failure.
          Status s = pool.Discard(id);
          if (!s.ok() && !s.IsInternal()) failures.fetch_add(1);
          continue;
        }
        auto page = pool.FetchPage(id);
        if (!page.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (page->data()[0] != static_cast<uint8_t>(id & 0xFF)) {
          failures.fetch_add(1);
        }
        if (owned) {
          page->data()[1]++;  // only the owner mutates
          page->MarkDirty();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_GT(pool.evictions(), 0u);
  ASSERT_TRUE(pool.FlushAll().ok());
  // Every surviving page still carries its stamp after the dust settles.
  for (int k = 0; k < kPages; ++k) {
    PageGuard p = pool.FetchPage(ids[k]).value();
    EXPECT_EQ(p.data()[0], static_cast<uint8_t>(ids[k] & 0xFF));
  }
}

TEST(BufferPoolTest, SmallPoolScanReturnsInsertedRows) {
  TempDb db("pool_small_scan");
  std::vector<std::vector<uint8_t>> inserted;
  PageId root = kInvalidPageId;
  {
    auto engine = StorageEngine::Open(db.path(), /*pool_pages=*/64).value();
    root = TableHeap::Create(engine.get()).value();
    TableHeap heap(engine.get(), root);
    Random rng(7);
    for (int i = 0; i < 300; ++i) {
      // Mix of small inline records and page-spanning overflow records.
      const size_t len = i % 17 == 0 ? 9000 : 24 + rng.Next() % 64;
      std::vector<uint8_t> rec(len);
      for (size_t j = 0; j < len; ++j) {
        rec[j] = static_cast<uint8_t>((i * 131 + j) & 0xFF);
      }
      ASSERT_TRUE(heap.Insert(Slice(rec.data(), rec.size())).ok());
      inserted.push_back(std::move(rec));
    }
    ASSERT_TRUE(engine->Close().ok());
  }

  // A pool much smaller than the heap, so the scan evicts and reloads
  // pages instead of everything staying resident.
  auto engine = StorageEngine::Open(db.path(), /*pool_pages=*/8).value();
  TableHeap heap(engine.get(), root);
  std::vector<std::vector<uint8_t>> rows;
  TableHeap::Iterator it = heap.Scan();
  while (true) {
    auto rec = it.Next().value();
    if (!rec.has_value()) break;
    rows.push_back(std::move(rec->second));
  }
  EXPECT_EQ(engine->buffer_pool()->pinned_frames(), 0u);
  EXPECT_GT(engine->buffer_pool()->evictions(), 0u);
  EXPECT_EQ(rows, inserted);  // byte-identical, in insertion order
}

TEST(StorageEngineTest, HeaderPersistsAcrossReopen) {
  TempDb db("engine");
  {
    auto engine = StorageEngine::Open(db.path()).value();
    ASSERT_TRUE(engine->SetCatalogRoot(17).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  auto engine = StorageEngine::Open(db.path()).value();
  EXPECT_EQ(engine->GetCatalogRoot().value(), 17u);
}

TEST(StorageEngineTest, RejectsForeignFile) {
  TempDb db("engine_bad");
  {
    DiskManager dm;
    ASSERT_TRUE(dm.Open(db.path()).ok());
    ASSERT_TRUE(dm.AllocatePage().ok());  // zeroed page: wrong magic
    ASSERT_TRUE(dm.Close().ok());
  }
  EXPECT_TRUE(StorageEngine::Open(db.path()).status().IsCorruption());
}

TEST(StorageEngineTest, FreeListReusesPages) {
  TempDb db("engine_free");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId a = engine->AllocatePage().value();
  PageId b = engine->AllocatePage().value();
  EXPECT_EQ(engine->CountFreePages().value(), 0u);
  ASSERT_TRUE(engine->FreePage(a).ok());
  ASSERT_TRUE(engine->FreePage(b).ok());
  EXPECT_EQ(engine->CountFreePages().value(), 2u);
  // LIFO reuse: b then a, with no file growth.
  uint32_t pages_before = engine->disk()->num_pages();
  EXPECT_EQ(engine->AllocatePage().value(), b);
  EXPECT_EQ(engine->AllocatePage().value(), a);
  EXPECT_EQ(engine->disk()->num_pages(), pages_before);
  EXPECT_EQ(engine->CountFreePages().value(), 0u);
}

TEST(StorageEngineTest, CannotFreeHeaderOrInvalidPages) {
  TempDb db("engine_guard");
  auto engine = StorageEngine::Open(db.path()).value();
  EXPECT_TRUE(engine->FreePage(0).IsInvalidArgument());
  EXPECT_TRUE(engine->FreePage(kInvalidPageId).IsInvalidArgument());
  EXPECT_TRUE(engine->FreePage(999).IsInvalidArgument());
}

TEST(TableHeapTest, InsertGetDeleteSmallRecords) {
  TempDb db("heap");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);

  RecordId r0 = heap.Insert(Slice("alpha")).value();
  RecordId r1 = heap.Insert(Slice("beta")).value();
  EXPECT_EQ(Slice(heap.Get(r0).value()).ToString(), "alpha");
  EXPECT_EQ(Slice(heap.Get(r1).value()).ToString(), "beta");

  ASSERT_TRUE(heap.Delete(r0).ok());
  EXPECT_TRUE(heap.Get(r0).status().IsNotFound());
  EXPECT_EQ(heap.CountRecords().value(), 1u);
}

TEST(TableHeapTest, SpansManyPages) {
  TempDb db("heap_many");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);
  std::vector<RecordId> rids;
  for (int i = 0; i < 2000; ++i) {
    std::string rec = "record-" + std::to_string(i) + std::string(50, '.');
    rids.push_back(heap.Insert(Slice(rec)).value());
  }
  EXPECT_GT(engine->disk()->num_pages(), 10u);
  for (int i = 0; i < 2000; i += 97) {
    std::string want = "record-" + std::to_string(i) + std::string(50, '.');
    EXPECT_EQ(Slice(heap.Get(rids[i]).value()).ToString(), want);
  }
  EXPECT_EQ(heap.CountRecords().value(), 2000u);
}

TEST(TableHeapTest, OverflowRecordsRoundTrip) {
  TempDb db("heap_overflow");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);

  // The paper's Rel10000 case: ~10 KB records on 8 KB pages.
  Random rng(3);
  auto big = rng.Bytes(10000);
  auto bigger = rng.Bytes(100000);
  RecordId r_small = heap.Insert(Slice("tiny")).value();
  RecordId r_big = heap.Insert(Slice(big)).value();
  RecordId r_bigger = heap.Insert(Slice(bigger)).value();

  EXPECT_EQ(heap.Get(r_big).value(), big);
  EXPECT_EQ(heap.Get(r_bigger).value(), bigger);
  EXPECT_EQ(Slice(heap.Get(r_small).value()).ToString(), "tiny");

  // Deleting an overflow record frees its chain pages.
  uint32_t free_before = engine->CountFreePages().value();
  ASSERT_TRUE(heap.Delete(r_bigger).ok());
  EXPECT_GT(engine->CountFreePages().value(), free_before + 10);
  EXPECT_TRUE(heap.Get(r_bigger).status().IsNotFound());
  EXPECT_EQ(heap.Get(r_big).value(), big);
}

TEST(TableHeapTest, ScanVisitsExactlyLiveRecords) {
  TempDb db("heap_scan");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);
  std::set<std::string> want;
  std::vector<RecordId> rids;
  for (int i = 0; i < 300; ++i) {
    std::string rec = "r" + std::to_string(i);
    rids.push_back(heap.Insert(Slice(rec)).value());
    want.insert(rec);
  }
  for (int i = 0; i < 300; i += 3) {
    ASSERT_TRUE(heap.Delete(rids[i]).ok());
    want.erase("r" + std::to_string(i));
  }
  std::set<std::string> got;
  TableHeap::Iterator it = heap.Scan();
  while (true) {
    auto rec = it.Next().value();
    if (!rec.has_value()) break;
    got.insert(Slice(rec->second).ToString());
  }
  EXPECT_EQ(got, want);
}

TEST(TableHeapTest, DropAllReturnsPagesToFreeList) {
  TempDb db("heap_drop");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);
  Random rng(9);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(heap.Insert(Slice(rng.Bytes(3000))).ok());
  }
  ASSERT_TRUE(heap.Insert(Slice(rng.Bytes(50000))).ok());  // overflow chain
  uint32_t total_pages = engine->disk()->num_pages();
  ASSERT_TRUE(heap.DropAll().ok());
  // Everything except the header page is now free.
  EXPECT_EQ(engine->CountFreePages().value(), total_pages - 1);
}

TEST(TableHeapTest, PersistsAcrossReopen) {
  TempDb db("heap_reopen");
  PageId first;
  {
    auto engine = StorageEngine::Open(db.path()).value();
    first = TableHeap::Create(engine.get()).value();
    TableHeap heap(engine.get(), first);
    ASSERT_TRUE(heap.Insert(Slice("persistent")).ok());
    ASSERT_TRUE(heap.Insert(Slice(Random(2).Bytes(20000))).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  auto engine = StorageEngine::Open(db.path()).value();
  TableHeap heap(engine.get(), first);
  EXPECT_EQ(heap.CountRecords().value(), 2u);
  auto rec = heap.Scan().Next().value();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(Slice(rec->second).ToString(), "persistent");
}

TEST(TableHeapTest, CursorViewsMatchGetWithAtMostTwoPins) {
  TempDb db("heap_cursor");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);
  std::vector<RecordId> rids;
  for (int i = 0; i < 40; ++i) {
    // Every fourth record spans a three-page overflow chain.
    std::vector<uint8_t> rec(i % 4 == 0 ? 20000 : 50, static_cast<uint8_t>(i));
    rids.push_back(heap.Insert(Slice(rec)).value());
  }
  BufferPool* pool = engine->buffer_pool();
  TableHeap::Iterator it = heap.Scan();
  size_t n = 0;
  while (true) {
    const TableHeap::Iterator::View* view = it.NextView().value();
    if (view == nullptr) break;
    ASSERT_LT(n, rids.size());
    EXPECT_TRUE(view->rid == rids[n]);
    // The chain page and, for an overflow record, its first page only.
    EXPECT_LE(pool->pinned_frames(), n % 4 == 0 ? 2u : 1u);
    EXPECT_EQ(view->complete, n % 4 != 0);
    EXPECT_EQ(view->head.size(), n % 4 == 0 ? kPageLsnOffset - 8 : 50u);
    std::vector<uint8_t> whole = it.ReadRecord().value();
    EXPECT_LE(pool->pinned_frames(), 1u);
    EXPECT_EQ(whole, heap.Get(rids[n]).value());
    ++n;
  }
  EXPECT_EQ(n, rids.size());
  EXPECT_EQ(pool->pinned_frames(), 0u);  // the finished cursor holds nothing
}

TEST(TableHeapTest, NoPinsLeakAfterOperations) {
  TempDb db("heap_pins");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap.Insert(Slice(Random(i).Bytes(i * 200))).ok());
  }
  ASSERT_TRUE(heap.CountRecords().ok());
  EXPECT_EQ(engine->buffer_pool()->pinned_frames(), 0u);
}

TEST(TableHeapTest, AppendStartsAtTheTailOnceTheHintHasWalked) {
  TempDb db("heap_tail");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  {
    TableHeap loader(engine.get(), first);
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(loader.Insert(Slice(std::string(200, 'a'))).ok());
    }
  }
  auto fetches = [] {
    uint64_t n = 0;
    for (const auto& [name, value] :
         obs::MetricsRegistry::Global()->Snapshot("storage.bufferpool.")) {
      if (name == "storage.bufferpool.hits" ||
          name == "storage.bufferpool.misses") {
        n += value;
      }
    }
    return n;
  };
  // A fresh heap (as after a reopen) walks the chain once, then appends
  // from the tail.
  TableHeap heap(engine.get(), first);
  uint64_t before = fetches();
  ASSERT_TRUE(heap.Insert(Slice(std::string(200, 'b'))).ok());
  EXPECT_GT(fetches() - before, 10u);
  for (int i = 0; i < 20; ++i) {
    before = fetches();
    ASSERT_TRUE(heap.Insert(Slice(std::string(200, 'b'))).ok());
    EXPECT_LE(fetches() - before, 3u) << "append " << i;
  }
  EXPECT_EQ(engine->buffer_pool()->pinned_frames(), 0u);
}

}  // namespace
}  // namespace jaguar
