// Crash-recovery tests for the write-ahead log (src/wal).
//
// The heart of the file is the fork-based crash matrix: for every named
// crash point in CrashPoints::AllNames(), a child process runs a scripted
// workload (DDL + inserts + UDF registration + checkpoint) and dies at that
// exact instrumented instant via _exit — no destructors, no flushes. The
// parent reopens the database, which replays the log, and asserts the
// recovered state is a *committed* state: the pre-crash baseline plus a
// contiguous prefix of the crash-phase statements, with every surviving row
// byte-identical to a regenerated oracle — never a third state. One of the
// points (storage.mid_page_write) persists only the first half of an 8 KiB
// page write, which is the torn-page case.
//
// Around the matrix sit deterministic non-fork tests that build a crash
// image by copying the db + log files while dirty pages are still only in
// the buffer pool, then reopen the copy.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "index/btree.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/storage_engine.h"
#include "storage/table_heap.h"
#include "test_requirements.h"
#include "wal/crash_point.h"
#include "wal/log_manager.h"

namespace jaguar {
namespace {

/// Temp db path that also cleans up the WAL and its checkpoint temp file.
class TempDb {
 public:
  explicit TempDb(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("jaguar_rec_" + tag + "_" + std::to_string(::getpid()) + ".db"))
                .string();
    Remove();
  }
  ~TempDb() { Remove(); }
  const std::string& path() const { return path_; }
  std::string wal_path() const { return path_ + ".wal"; }

 private:
  void Remove() {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
    std::remove((path_ + ".wal.tmp").c_str());
  }
  std::string path_;
};

// ---------------------------------------------------------------------------
// The crash matrix.
// ---------------------------------------------------------------------------

constexpr int kPhaseARows = 8;   // committed + checkpointed baseline
constexpr int kPhaseBRows = 5;   // crash territory, one statement each

/// Deterministic row payload; every third row is large enough to overflow
/// the slotted page so the workload also exercises overflow-chain logging.
std::string RowValue(int k) {
  Random rng(1000 + static_cast<uint64_t>(k));
  return rng.AlphaString(k % 3 == 0 ? 9000 : 40);
}

UdfInfo CrashUdfInfo() {
  UdfInfo info;
  info.name = "g";
  info.language = UdfLanguage::kNative;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt};
  info.impl_name = "generic_udf";
  return info;
}

bool InsertRow(Database* db, int k) {
  return db
      ->Execute("INSERT INTO t VALUES (" + std::to_string(k) + ", '" +
                RowValue(k) + "')")
      .ok();
}

/// Child side of the matrix. Exits with CrashPoints::kExitCode when the
/// armed point fires; any other exit code means the workload went wrong.
[[noreturn]] void RunCrashWorkload(const std::string& path,
                                   const std::string& point) {
  auto opened = Database::Open(path);
  if (!opened.ok()) ::_exit(3);
  std::unique_ptr<Database> db = std::move(opened).value();

  // Phase A: the committed, checkpointed baseline the crash must never lose.
  if (!db->Execute("CREATE TABLE t (k INT, v STRING)").ok()) ::_exit(4);
  for (int k = 0; k < kPhaseARows; ++k) {
    if (!InsertRow(db.get(), k)) ::_exit(5);
  }
  if (!db->Flush().ok()) ::_exit(6);

  // Phase B: every statement below may be cut short by the armed point.
  wal::CrashPoints::Arm(point);
  for (int k = kPhaseARows; k < kPhaseARows + kPhaseBRows; ++k) {
    if (!InsertRow(db.get(), k)) ::_exit(7);
  }
  // Catalog rewrite; its Persist() drops the old catalog heap, driving
  // FreePage (where storage.after_page_write_before_header lives).
  if (!db->RegisterUdf(CrashUdfInfo()).ok()) ::_exit(8);
  // Create/fill/drop a scratch table: more allocation + free traffic.
  if (!db->Execute("CREATE TABLE tmp (x INT)").ok()) ::_exit(9);
  if (!db->Execute("INSERT INTO tmp VALUES (7)").ok()) ::_exit(10);
  if (!db->Execute("DROP TABLE tmp").ok()) ::_exit(11);
  // Checkpoint: FlushAll is the first WritePage traffic of phase B (the
  // pool is large enough that nothing evicts earlier), so the storage.*
  // points and wal.mid_checkpoint all fire here at the latest.
  if (!db->Flush().ok()) ::_exit(12);
  ::_exit(1);  // the armed point never fired
}

struct RecoveredState {
  int rows = 0;            // contiguous row count, verified 0..rows-1
  bool udf_registered = false;
  bool tmp_exists = false;
};

/// Reopens the crashed database and checks the committed-state envelope:
/// rows are exactly {0..n-1} for some n in [kPhaseARows, A+B], each value
/// byte-identical to the oracle; catalog objects are all-or-nothing; the
/// free list is walkable. Returns what it found for per-point assertions.
RecoveredState VerifyRecovered(Database* db) {
  RecoveredState state;
  auto r = db->Execute("SELECT k, v FROM t");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return state;

  std::vector<std::pair<int64_t, std::string>> rows;
  for (const Tuple& t : r->rows) {
    rows.emplace_back(t.value(0).AsInt(), t.value(1).AsString());
  }
  std::sort(rows.begin(), rows.end());
  state.rows = static_cast<int>(rows.size());
  EXPECT_GE(state.rows, kPhaseARows);
  EXPECT_LE(state.rows, kPhaseARows + kPhaseBRows);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, static_cast<int64_t>(i));
    // Byte-identical to the committed-state oracle.
    EXPECT_EQ(rows[i].second, RowValue(static_cast<int>(i)))
        << "row " << i << " content diverged";
  }

  // The UDF is registered in full or not at all.
  auto udf = db->catalog()->GetUdf("g");
  state.udf_registered = udf.ok();
  if (udf.ok()) {
    EXPECT_EQ((*udf)->impl_name, "generic_udf");
    EXPECT_EQ((*udf)->arg_types.size(), 4u);
  }

  // The scratch table exists (possibly empty) or doesn't; a recovered
  // database must never have a table the catalog can't scan.
  auto tmp = db->Execute("SELECT x FROM tmp");
  state.tmp_exists = tmp.ok();
  if (tmp.ok()) {
    EXPECT_LE(tmp->rows.size(), 1u);
  }

  // Free-list integrity: the chain terminates and every link is readable.
  EXPECT_TRUE(db->storage()->CountFreePages().ok());
  return state;
}

class CrashMatrixTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CrashMatrixTest, RecoversToACommittedState) {
  JAGUAR_REQUIRE_FORK();
  const std::string point = GetParam();
  TempDb db("matrix_" + point);

  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) RunCrashWorkload(db.path(), point);  // never returns

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus))
      << "child killed by signal " << WTERMSIG(wstatus);
  ASSERT_EQ(WEXITSTATUS(wstatus), wal::CrashPoints::kExitCode)
      << "crash point '" << point << "' did not fire (child exit "
      << WEXITSTATUS(wstatus) << ")";

  auto opened = Database::Open(db.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> recovered = std::move(opened).value();
  RecoveredState state = VerifyRecovered(recovered.get());
  const wal::RecoveryStats& stats = recovered->storage()->recovery_stats();

  // Each point crashes at a known instant, so beyond the envelope the
  // recovered state is exactly predictable.
  if (point == "wal.after_log_append") {
    // First phase-B append was buffered, never durable: baseline only.
    EXPECT_EQ(state.rows, kPhaseARows);
    EXPECT_FALSE(state.udf_registered);
  } else if (point == "storage.before_page_write" ||
             point == "storage.mid_page_write") {
    // Crash during the final checkpoint's FlushAll: every phase-B statement
    // had committed its log records, so redo reconstructs all of phase B —
    // including healing the torn half-page the mid_page_write point left.
    EXPECT_EQ(state.rows, kPhaseARows + kPhaseBRows);
    EXPECT_TRUE(state.udf_registered);
    EXPECT_GE(stats.pages_replayed, 1u);
  } else if (point == "storage.after_page_write_before_header") {
    // Fires inside FreePage during RegisterUdf's catalog rewrite: the five
    // inserts had committed, the registration had not.
    EXPECT_EQ(state.rows, kPhaseARows + kPhaseBRows);
    EXPECT_FALSE(state.udf_registered);
  } else if (point == "wal.mid_checkpoint") {
    // All pages flushed, log not yet truncated: replay finds every page
    // already current and skips it.
    EXPECT_EQ(state.rows, kPhaseARows + kPhaseBRows);
    EXPECT_TRUE(state.udf_registered);
    EXPECT_GE(stats.pages_skipped, 1u);
    EXPECT_EQ(stats.pages_replayed, 0u);
  } else {
    ADD_FAILURE() << "crash point '" << point
                  << "' has no expected-state entry; add one";
  }
  EXPECT_FALSE(state.tmp_exists)
      << "tmp table survived although no committed state contains it";
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, CrashMatrixTest,
    ::testing::ValuesIn(wal::CrashPoints::AllNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// Eviction crash matrix: the same storage.* crash points, but fired from the
// buffer pool's *off-latch* eviction write-back instead of a checkpoint's
// FlushAll. A four-page pool forces dirty evictions on nearly every phase-B
// insert, so the process dies inside WritePage called from an eviction —
// after the WAL-rule fsync, before (or halfway through) the page image
// landing.
// Recovery must still produce a committed state: the fsync-before-write
// ordering is what makes that true off-latch.
// ---------------------------------------------------------------------------

[[noreturn]] void RunEvictionCrashWorkload(const std::string& path,
                                           const std::string& point) {
  DatabaseOptions options;
  options.buffer_pool_pages = 4;  // evictions on nearly every statement
  auto opened = Database::Open(path, options);
  if (!opened.ok()) ::_exit(3);
  std::unique_ptr<Database> db = std::move(opened).value();

  if (!db->Execute("CREATE TABLE t (k INT, v STRING)").ok()) ::_exit(4);
  for (int k = 0; k < kPhaseARows; ++k) {
    if (!InsertRow(db.get(), k)) ::_exit(5);
  }
  if (!db->Flush().ok()) ::_exit(6);

  // Phase B: the overflow-sized rows (RowValue makes every third ~9 KB)
  // churn far more pages than the pool holds, so the armed point fires from
  // a mid-statement eviction write-back, never a Flush.
  wal::CrashPoints::Arm(point);
  for (int k = kPhaseARows; k < kPhaseARows + kPhaseBRows; ++k) {
    if (!InsertRow(db.get(), k)) ::_exit(7);
  }
  ::_exit(1);  // the armed point never fired
}

class EvictionCrashMatrixTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(EvictionCrashMatrixTest, WalRuleHoldsForOffLatchWriteBack) {
  JAGUAR_REQUIRE_FORK();
  const std::string point = GetParam();
  TempDb db("evict_" + point);

  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) RunEvictionCrashWorkload(db.path(), point);  // never returns

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus))
      << "child killed by signal " << WTERMSIG(wstatus);
  ASSERT_EQ(WEXITSTATUS(wstatus), wal::CrashPoints::kExitCode)
      << "crash point '" << point << "' did not fire (child exit "
      << WEXITSTATUS(wstatus) << ")";

  auto opened = Database::Open(db.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> recovered = std::move(opened).value();
  RecoveredState state = VerifyRecovered(recovered.get());
  // The committed-state envelope (contiguous prefix, byte-identical rows)
  // was asserted inside VerifyRecovered. The crash happened after the
  // WAL-rule fsync but before the page image was (fully) durable, so redo
  // must have repaired at least that page.
  EXPECT_GE(state.rows, kPhaseARows);
  EXPECT_GE(recovered->storage()->recovery_stats().pages_replayed, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    OffLatchWriteBackPoints, EvictionCrashMatrixTest,
    ::testing::Values("storage.before_page_write", "storage.mid_page_write"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// The index crash matrix: crash inside B+-tree structure modifications.
//
// The WAL is redo-only, so a crash mid-split can leave the durable image
// with a statement's index pages half-written relative to its heap pages.
// Database::Open detects the crash and rebuilds every index from its heap;
// these tests pin that contract: after recovery, the index answers every
// key query byte-identically to a full-scan recheck and passes the tree's
// own structural invariants.
// ---------------------------------------------------------------------------

constexpr int kIdxPhaseARows = 45;  // enough ~210-byte keys to split the root
constexpr int kIdxPhaseBRows = 40;  // sequential keys refill the right leaf

/// Wide, ordered string key: sequential inserts pile into the rightmost
/// leaf (~38 entries fit), so phase B is guaranteed to split at least once.
std::string WideVal(int k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08d", k);
  return std::string(buf) + std::string(180, 'v');
}

[[noreturn]] void RunIndexCrashWorkload(const std::string& path,
                                        const std::string& point) {
  auto opened = Database::Open(path);
  if (!opened.ok()) ::_exit(3);
  std::unique_ptr<Database> db = std::move(opened).value();

  // Phase A: indexed baseline, checkpointed.
  if (!db->Execute("CREATE TABLE t2 (k INT, v STRING)").ok()) ::_exit(4);
  if (!db->Execute("CREATE INDEX idx_v ON t2 (v)").ok()) ::_exit(5);
  for (int k = 0; k < kIdxPhaseARows; ++k) {
    auto r = db->Execute("INSERT INTO t2 VALUES (" + std::to_string(k) +
                         ", '" + WideVal(k) + "')");
    if (!r.ok()) ::_exit(6);
  }
  if (!db->Flush().ok()) ::_exit(7);

  // Phase B: inserts (leaf writes + splits), then an UPDATE and a DELETE
  // (index delete paths). The armed point fires somewhere in here.
  wal::CrashPoints::Arm(point);
  for (int k = kIdxPhaseARows; k < kIdxPhaseARows + kIdxPhaseBRows; ++k) {
    auto r = db->Execute("INSERT INTO t2 VALUES (" + std::to_string(k) +
                         ", '" + WideVal(k) + "')");
    if (!r.ok()) ::_exit(8);
  }
  if (!db->Execute("UPDATE t2 SET v = '" + WideVal(1000) +
                   "' WHERE k = 10").ok()) {
    ::_exit(9);
  }
  if (!db->Execute("DELETE FROM t2 WHERE k = 11").ok()) ::_exit(10);
  ::_exit(1);  // the armed point never fired
}

class IndexCrashMatrixTest : public ::testing::TestWithParam<std::string> {};

TEST_P(IndexCrashMatrixTest, IndexMatchesHeapAfterRecovery) {
  JAGUAR_REQUIRE_FORK();
  const std::string point = GetParam();
  TempDb db("idxmatrix_" + point);

  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) RunIndexCrashWorkload(db.path(), point);  // never returns

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus))
      << "child killed by signal " << WTERMSIG(wstatus);
  ASSERT_EQ(WEXITSTATUS(wstatus), wal::CrashPoints::kExitCode)
      << "crash point '" << point << "' did not fire (child exit "
      << WEXITSTATUS(wstatus) << ")";

  auto opened = Database::Open(db.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> recovered = std::move(opened).value();

  // Oracle: the heap via a full scan (no WHERE, so no index involvement).
  auto all = recovered->Execute("SELECT k, v FROM t2");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  std::vector<std::pair<std::string, int64_t>> heap_rows;
  for (const Tuple& t : all->rows) {
    heap_rows.emplace_back(t.value(1).AsString(), t.value(0).AsInt());
  }
  // Committed-state envelope: baseline survived, nothing invented.
  EXPECT_GE(heap_rows.size(), static_cast<size_t>(kIdxPhaseARows));
  EXPECT_LE(heap_rows.size(),
            static_cast<size_t>(kIdxPhaseARows + kIdxPhaseBRows));

  // Every key the heap holds must come back through the index, and a key
  // the heap lost must not.
  for (const auto& [v, k] : heap_rows) {
    auto r = recovered->Execute("SELECT k FROM t2 WHERE v = '" + v + "'");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u) << "key for row " << k;
    EXPECT_EQ(r->rows[0].value(0).AsInt(), k);
    EXPECT_EQ(r->metrics_delta.count("exec.index.scans"), 1u)
        << "query did not run through the index";
  }
  auto miss = recovered->Execute("SELECT k FROM t2 WHERE v = '" +
                                 WideVal(kIdxPhaseARows + kIdxPhaseBRows) +
                                 "'");
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->rows.empty());

  // Structural invariants and exact cardinality, straight from the tree.
  auto idx = recovered->catalog()->GetIndex("idx_v");
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  BTree tree(recovered->storage(), (*idx)->root);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.CountEntries().value(), heap_rows.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexCrashPoints, IndexCrashMatrixTest,
    ::testing::ValuesIn(BTree::CrashPointNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// Deterministic, non-fork recovery tests (crash image built by file copy).
// ---------------------------------------------------------------------------

std::vector<uint8_t> RecordBytes(int i) {
  Random rng(5000 + static_cast<uint64_t>(i));
  return rng.Bytes(100);
}

void CopyCrashImage(const TempDb& src, const TempDb& dst) {
  std::filesystem::copy_file(src.path(), dst.path(),
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::copy_file(src.wal_path(), dst.wal_path(),
                             std::filesystem::copy_options::overwrite_existing);
}

TEST(RecoveryTest, RedoReplaysCommittedButUnflushedWrites) {
  TempDb src("redo_src");
  TempDb dst("redo_dst");
  PageId root = kInvalidPageId;
  {
    auto engine = StorageEngine::Open(src.path()).value();
    root = TableHeap::Create(engine.get()).value();
    TableHeap heap(engine.get(), root);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(heap.Insert(Slice(RecordBytes(i))).ok());
    }
    // Log durable; the pages themselves are dirty only in the buffer pool,
    // so the copied db file is the pre-insert on-disk image.
    ASSERT_TRUE(engine->WalCommit().ok());
    CopyCrashImage(src, dst);
    ASSERT_TRUE(engine->Close().ok());
  }

  auto engine = StorageEngine::Open(dst.path()).value();
  EXPECT_GE(engine->recovery_stats().pages_replayed, 1u);
  TableHeap heap(engine.get(), root);
  ASSERT_EQ(heap.CountRecords().value(), 40u);
  auto it = heap.Scan();
  for (int i = 0; i < 40; ++i) {
    auto rec = it.Next().value();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->second, RecordBytes(i)) << "record " << i;
  }
  ASSERT_TRUE(engine->Close().ok());
}

TEST(RecoveryTest, FirstAppendAfterReopenIsTheOnlyOneThatWalks) {
  TempDb src("tail_src");
  TempDb dst("tail_dst");
  auto fetches = [](const QueryResult& r) {
    uint64_t n = 0;
    for (const char* name :
         {"storage.bufferpool.hits", "storage.bufferpool.misses"}) {
      auto it = r.metrics_delta.find(name);
      if (it != r.metrics_delta.end()) n += it->second;
    }
    return n;
  };
  auto row = [](int k) {
    return "(" + std::to_string(k) + ", '" + std::string(100, 'r') + "')";
  };
  {
    auto db = Database::Open(src.path()).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (k INT, v STRING)").ok());
    for (int k = 0; k < 400; k += 100) {
      std::string sql = "INSERT INTO t VALUES " + row(k);
      for (int i = k + 1; i < k + 100; ++i) sql += ", " + row(i);
      ASSERT_TRUE(db->Execute(sql).ok());
    }
    // Every INSERT committed its log records, so the copy is a crash image;
    // `src` itself closes cleanly.
    CopyCrashImage(src, dst);
  }
  for (const TempDb* image : {&src, &dst}) {
    SCOPED_TRACE(image == &src ? "clean reopen" : "crash reopen");
    auto db = Database::Open(image->path()).value();
    if (image == &dst) {
      EXPECT_GE(db->storage()->recovery_stats().pages_replayed, 1u);
    }
    // The first append walks the chain from its first page, once...
    EXPECT_GT(fetches(db->Execute("INSERT INTO t VALUES " + row(400)).value()),
              3u);
    // ...and every later one starts at the tail.
    for (int k = 401; k < 420; ++k) {
      EXPECT_LE(fetches(db->Execute("INSERT INTO t VALUES " + row(k)).value()),
                3u)
          << "row " << k;
    }
    QueryResult r = db->Execute("SELECT k FROM t ORDER BY k").value();
    ASSERT_EQ(r.rows.size(), 420u);
    for (int k = 0; k < 420; ++k) EXPECT_EQ(r.rows[k].value(0).AsInt(), k);
    EXPECT_EQ(db->storage()->buffer_pool()->pinned_frames(), 0u);
  }
}

TEST(RecoveryTest, TornPageHealedByRedo) {
  TempDb src("torn_src");
  TempDb dst("torn_dst");
  PageId root = kInvalidPageId;
  std::vector<uint8_t> old_image(kPageSize);
  {
    auto engine = StorageEngine::Open(src.path()).value();
    root = TableHeap::Create(engine.get()).value();
    TableHeap heap(engine.get(), root);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(heap.Insert(Slice(RecordBytes(i))).ok());
    }
    ASSERT_TRUE(engine->Checkpoint().ok());
    // The on-disk root page is now the checkpointed image; remember it.
    {
      std::ifstream in(src.path(), std::ios::binary);
      in.seekg(static_cast<std::streamoff>(root) * kPageSize);
      in.read(reinterpret_cast<char*>(old_image.data()), kPageSize);
      ASSERT_TRUE(in.good());
    }
    for (int i = 5; i < 10; ++i) {
      ASSERT_TRUE(heap.Insert(Slice(RecordBytes(i))).ok());
    }
    ASSERT_TRUE(engine->WalCommit().ok());
    ASSERT_TRUE(engine->buffer_pool()->FlushAll().ok());
    CopyCrashImage(src, dst);
    ASSERT_TRUE(engine->Close().ok());
  }

  // Tear the flushed root page in the copy: keep the new first half, revert
  // the second half (which holds the cell area and the LSN footer) to the
  // checkpoint image — exactly what a power cut mid-pwrite leaves behind.
  {
    std::fstream f(dst.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(root) * kPageSize + kPageSize / 2);
    f.write(reinterpret_cast<const char*>(old_image.data() + kPageSize / 2),
            kPageSize / 2);
    ASSERT_TRUE(f.good());
  }

  auto engine = StorageEngine::Open(dst.path()).value();
  EXPECT_GE(engine->recovery_stats().pages_replayed, 1u);
  TableHeap heap(engine.get(), root);
  ASSERT_EQ(heap.CountRecords().value(), 10u);
  auto it = heap.Scan();
  for (int i = 0; i < 10; ++i) {
    auto rec = it.Next().value();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->second, RecordBytes(i)) << "record " << i;
  }
  ASSERT_TRUE(engine->Close().ok());
}

TEST(RecoveryTest, CheckpointTruncatesTheLog) {
  TempDb db("ckpt");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), root);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(heap.Insert(Slice(RecordBytes(i))).ok());
  }
  ASSERT_TRUE(engine->WalCommit().ok());
  const uint64_t before = engine->wal()->LogBytes();
  ASSERT_TRUE(engine->Checkpoint().ok());
  const uint64_t after = engine->wal()->LogBytes();
  EXPECT_LT(after, before);
  // Header plus a single checkpoint marker frame.
  EXPECT_LE(after, 128u);
  // LogBytes counts record bytes only; the file adds the fixed header.
  EXPECT_EQ(std::filesystem::file_size(db.wal_path()),
            after + wal::LogManager::kHeaderSize);
  ASSERT_TRUE(engine->Close().ok());
}

TEST(RecoveryTest, GroupCommitSkipsRedundantFsyncs) {
  TempDb db("group");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), root);
  ASSERT_TRUE(heap.Insert(Slice(RecordBytes(0))).ok());
  ASSERT_TRUE(engine->WalCommit().ok());

  auto before = obs::MetricsRegistry::Global()->Snapshot("wal.");
  ASSERT_TRUE(engine->WalCommit().ok());  // nothing new: group commit
  auto delta = obs::SnapshotDelta(before,
                                  obs::MetricsRegistry::Global()->Snapshot("wal."));
  EXPECT_GE(delta["wal.group_commits"], 1u);
  EXPECT_EQ(delta.count("wal.fsyncs"), 0u);
  ASSERT_TRUE(engine->Close().ok());
}

TEST(RecoveryTest, WalRuleMakesLogDurableBeforeEviction) {
  TempDb db("walrule");
  // Tiny pool so inserts force dirty-page eviction long before any commit.
  auto engine = StorageEngine::Open(db.path(), /*pool_pages=*/4).value();
  PageId root = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), root);
  auto before = obs::MetricsRegistry::Global()->Snapshot("wal.");
  Random rng(99);
  for (int i = 0; i < 30; ++i) {
    std::vector<uint8_t> rec = rng.Bytes(3000);
    ASSERT_TRUE(heap.Insert(Slice(rec)).ok());
  }
  auto delta = obs::SnapshotDelta(before,
                                  obs::MetricsRegistry::Global()->Snapshot("wal."));
  // No WalCommit was issued, so any fsync here is the WAL rule firing on
  // write-back of a page whose tail of the log wasn't durable yet.
  EXPECT_GE(delta["wal.fsyncs"], 1u);
  ASSERT_TRUE(engine->Close().ok());
}

TEST(RecoveryTest, StaleWalBesideAFreshDbIsDiscarded) {
  TempDb src("stale_src");
  TempDb dst("stale_dst");
  {
    auto engine = StorageEngine::Open(src.path()).value();
    PageId root = TableHeap::Create(engine.get()).value();
    TableHeap heap(engine.get(), root);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(heap.Insert(Slice(RecordBytes(i))).ok());
    }
    ASSERT_TRUE(engine->WalCommit().ok());
    // Copy only the log: dst has a populated WAL but no database file, as if
    // someone deleted the .db and left the .wal behind.
    std::filesystem::copy_file(src.wal_path(), dst.wal_path());
    ASSERT_TRUE(engine->Close().ok());
  }
  auto engine = StorageEngine::Open(dst.path()).value();
  // The stale records must not be replayed into the fresh file.
  EXPECT_EQ(engine->recovery_stats().pages_replayed, 0u);
  EXPECT_EQ(engine->GetCatalogRoot().value(), kInvalidPageId);
  ASSERT_TRUE(engine->Close().ok());
}

TEST(RecoveryTest, WalDisabledRunsWithoutALogFile) {
  TempDb db("nowal");
  wal::WalOptions options;
  options.enabled = false;
  PageId root = kInvalidPageId;
  {
    auto engine = StorageEngine::Open(db.path(), 256, options).value();
    EXPECT_EQ(engine->wal(), nullptr);
    root = TableHeap::Create(engine.get()).value();
    TableHeap heap(engine.get(), root);
    ASSERT_TRUE(heap.Insert(Slice(RecordBytes(0))).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  EXPECT_FALSE(std::filesystem::exists(db.wal_path()));
  // Cleanly closed: everything is on disk even without a log.
  auto engine = StorageEngine::Open(db.path(), 256, options).value();
  TableHeap heap(engine.get(), root);
  EXPECT_EQ(heap.CountRecords().value(), 1u);
  ASSERT_TRUE(engine->Close().ok());
}

TEST(RecoveryTest, CountersVisibleThroughShowMetrics) {
  TempDb db("metrics");
  auto opened = Database::Open(db.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto database = std::move(opened).value();
  ASSERT_TRUE(database->Execute("CREATE TABLE m (x INT)").ok());
  ASSERT_TRUE(database->Execute("INSERT INTO m VALUES (1)").ok());
  auto r = database->Execute("SHOW METRICS LIKE 'wal.'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool saw_appends = false;
  bool saw_fsyncs = false;
  for (const Tuple& t : r->rows) {
    if (t.value(0).AsString() == "wal.appends") saw_appends = true;
    if (t.value(0).AsString() == "wal.fsyncs") saw_fsyncs = true;
  }
  EXPECT_TRUE(saw_appends);
  EXPECT_TRUE(saw_fsyncs);
}

// ---------------------------------------------------------------------------
// Crash-point registry.
// ---------------------------------------------------------------------------

TEST(CrashPointsTest, RegistryListsTheCanonicalPoints) {
  const auto& names = wal::CrashPoints::AllNames();
  EXPECT_EQ(names.size(), 5u);
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end())
      << "duplicate crash point name";
}

TEST(CrashPointsTest, ArmDisarmToggleIsExact) {
  wal::CrashPoints::Disarm();
  EXPECT_FALSE(wal::CrashPoints::IsArmed("wal.after_log_append"));
  wal::CrashPoints::Arm("wal.after_log_append");
  EXPECT_TRUE(wal::CrashPoints::IsArmed("wal.after_log_append"));
  EXPECT_FALSE(wal::CrashPoints::IsArmed("wal.mid_checkpoint"));
  // Last arm wins.
  wal::CrashPoints::Arm("wal.mid_checkpoint");
  EXPECT_FALSE(wal::CrashPoints::IsArmed("wal.after_log_append"));
  EXPECT_TRUE(wal::CrashPoints::IsArmed("wal.mid_checkpoint"));
  wal::CrashPoints::Disarm();
  EXPECT_FALSE(wal::CrashPoints::IsArmed("wal.mid_checkpoint"));
}

}  // namespace
}  // namespace jaguar
