#ifndef JAGUAR_ENGINE_DATABASE_H_
#define JAGUAR_ENGINE_DATABASE_H_

/// \file database.h
/// The embedded jaguar OR-DBMS: storage + catalog + SQL + UDFs in one object.
/// This is the primary public API; the network server (src/net) and every
/// example/bench build on it.
///
/// ```
///   auto db = Database::Open("/tmp/demo.db").value();
///   db->Execute("CREATE TABLE stocks (symbol STRING, type STRING, "
///               "history BYTEARRAY)");
///   db->Execute("INSERT INTO stocks VALUES ('IBM', 'tech', "
///               "randbytes(1000, 42))");
///   auto r = db->Execute("SELECT symbol FROM stocks S "
///               "WHERE S.type = 'tech' AND InvestVal(S.history) > 5");
/// ```

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>

#include "catalog/catalog.h"
#include "common/deadline.h"
#include "common/status.h"
#include "engine/query_result.h"
#include "udf/quarantine.h"
#include "jvm/vm.h"
#include "storage/storage_engine.h"
#include "udf/udf.h"
#include "udf/udf_manager.h"

namespace jaguar {

namespace sql {
struct Statement;
}  // namespace sql

struct DatabaseOptions {
  /// Buffer pool capacity in pages (8 KB each).
  size_t buffer_pool_pages = 1024;
  /// Per-invocation UDF callback quota (0 = unlimited) — part of the
  /// Section 6.2 resource-management policy.
  uint64_t udf_callback_quota = 0;
  /// JagVM: JIT-compile JJava UDFs (false = interpret; the Figure 6
  /// ablation).
  bool udf_jit = true;
  /// JagVM: emit per-block CPU-budget checks in JIT code (Section 6.2
  /// accounting). The paper's 1998 JVMs had no such policing; disabling
  /// this reproduces their configuration exactly.
  bool udf_jit_budget_checks = true;
  /// JagVM per-invocation instruction budget (0 = unlimited).
  int64_t udf_instruction_budget = 0;
  /// JagVM per-invocation heap quota in bytes (0 = unlimited).
  size_t udf_heap_quota_bytes = 0;
  /// IPC transport for isolated executor channels: "ring" (zero-copy SPSC
  /// ring buffer, zero syscalls on the uncontended path) or "message" (the
  /// copying semaphore-per-message channel). Any other value fails Open with
  /// InvalidArgument.
  std::string ipc_transport = "ring";
  /// Vectorized execution (Section 2.5): operators exchange `batch_size`
  /// tuples per `NextBatch` pull and UDF calls cross the isolation boundary
  /// once per batch instead of once per tuple. Off by default so the
  /// paper-figure benchmarks keep measuring true per-invocation crossings.
  bool vectorized_execution = false;
  /// Tuples per operator batch when `vectorized_execution` is on.
  size_t batch_size = 256;
  /// Capacity (entries) of the per-(UDF, arguments) result memo attached to
  /// each runner; 0 = disabled. Only deterministic, callback-free
  /// invocations are memoized, and re-registration drops the memo.
  size_t udf_memo_entries = 0;
  /// Morsel-driven intra-query parallelism: worker threads per SELECT
  /// (1 = serial). Requires `vectorized_execution`. Covers every plan
  /// shape — scans (LIMIT truncates after the morsel-order merge),
  /// aggregation (per-morsel partial hash tables merged in morsel order)
  /// and ORDER BY (per-morsel sorted runs, k-way merge) — with output
  /// byte-identical to serial. Isolated UDF designs get an executor pool
  /// of this size (one child process per worker).
  size_t num_workers = 1;
  /// Wall-clock deadline per query in milliseconds (0 = unlimited). When it
  /// passes, serial and parallel operators stop between tuples/batches,
  /// JagVM UDFs abort via the instruction-budget/deadline check, and wedged
  /// isolated executor children are SIGKILLed by the watchdog; the query
  /// fails with DeadlineExceeded. Integrated C++ UDFs remain unkillable
  /// mid-invocation (the paper's Table 1 security column). `SET TIMEOUT <ms>`
  /// overrides this per session.
  int64_t query_timeout_ms = 0;
  /// Write-ahead logging (crash recovery). Off = pre-WAL behavior: no log
  /// file, durability only at Flush()/Close().
  bool wal_enabled = true;
  /// fsync the log after every mutating statement. Disabling keeps write
  /// ordering (the WAL rule) but lets a crash lose the last few statements;
  /// benchmarks use this so figures measure UDF costs, not fsyncs.
  bool wal_fsync = true;
  /// Auto-checkpoint (flush + log truncation) once the log exceeds this many
  /// bytes.
  uint64_t wal_checkpoint_bytes = 8ull << 20;
};

/// Server-side large-object store: the target of UDF handle callbacks
/// (Section 5.5's Clip()/Lookup() pattern). Objects persist in a hidden
/// catalog table.
class LobStore {
 public:
  explicit LobStore(Catalog* catalog);

  /// Loads (or creates) the hidden LOB table and its in-memory index.
  Status Init();

  /// Stores `data`; returns the new object's handle.
  Result<int64_t> Store(const std::vector<uint8_t>& data);

  /// Reads `len` bytes at `offset`; clamped at the object's end.
  Result<std::vector<uint8_t>> Fetch(int64_t handle, uint64_t offset,
                                     uint64_t len);

  /// Total size of an object.
  Result<uint64_t> Size(int64_t handle);

 private:
  /// Reads the stored (id, data) tuple of an object.
  Result<Tuple> Load(int64_t handle);

  Catalog* catalog_;
  TableHeap* heap_ = nullptr;  ///< The hidden table's heap (catalog-owned).
  std::unordered_map<int64_t, RecordId> index_;
  int64_t next_id_ = 1;
};

class Database : public UdfCallbackHandler {
 public:
  /// Opens (creating if needed) the database at `path`.
  static Result<std::unique_ptr<Database>> Open(
      const std::string& path, const DatabaseOptions& options = {});

  ~Database() override;

  /// Parses and executes one SQL statement.
  Result<QueryResult> Execute(const std::string& sql);

  /// Registers a UDF in the catalog (payload already verified by the caller
  /// for JJava UDFs; the net server verifies uploads before calling this).
  Status RegisterUdf(UdfInfo info);
  Status DropUdf(const std::string& name);

  /// Large-object API (handles are what UDF callbacks dereference).
  Result<int64_t> StoreLob(const std::vector<uint8_t>& data);
  Result<std::vector<uint8_t>> FetchLob(int64_t handle, uint64_t offset,
                                        uint64_t len);

  /// UdfCallbackHandler — the server side of UDF callbacks.
  /// kind 0: echo `arg` (the paper's data-less benchmark callback).
  /// kind 1: size of LOB `arg`.
  Result<int64_t> Callback(int64_t kind, int64_t arg) override;
  Result<std::vector<uint8_t>> FetchBytes(int64_t handle, uint64_t offset,
                                          uint64_t len) override;

  /// Total callbacks served since open (calibration/visibility).
  uint64_t callbacks_served() const { return callbacks_served_.load(); }

  Catalog* catalog() { return catalog_.get(); }
  StorageEngine* storage() { return storage_.get(); }
  UdfManager* udf_manager() { return udf_manager_.get(); }
  /// The server's single JagVM instance (created at open, lives to close —
  /// the paper's policy for the embedded JVM).
  jvm::Jvm* vm() { return vm_.get(); }
  const DatabaseOptions& options() const { return options_; }

  /// Flushes all state to disk.
  Status Flush();

 private:
  Database() = default;

  /// Dispatches a parsed statement; `Execute` wraps this with the
  /// before/after metrics snapshots that fill `QueryResult::metrics_delta`.
  /// `deadline` is the query's cancellation token (inactive when unbounded);
  /// it lives in `Execute`'s frame for the duration of the statement.
  Result<QueryResult> ExecuteStatement(const sql::Statement& stmt,
                                       const QueryDeadline& deadline);
  Result<QueryResult> ExecuteSelect(const sql::Statement& stmt,
                                    const QueryDeadline& deadline);
  Result<QueryResult> ExecuteAggregate(const sql::Statement& stmt,
                                       const QueryDeadline& deadline);
  Result<QueryResult> ExecuteInsert(const sql::Statement& stmt,
                                    const QueryDeadline& deadline);
  Result<QueryResult> ExecuteDelete(const sql::Statement& stmt,
                                    const QueryDeadline& deadline);
  Result<QueryResult> ExecuteUpdate(const sql::Statement& stmt,
                                    const QueryDeadline& deadline);
  Result<QueryResult> ExecuteShowMetrics(const sql::Statement& stmt);
  Result<QueryResult> ExecuteCreateIndex(const sql::Statement& stmt,
                                         const QueryDeadline& deadline);
  Result<QueryResult> ExecuteDropIndex(const sql::Statement& stmt);

  /// Synchronous secondary-index maintenance, applied to every index on
  /// `table`. NULL keys are never stored; `Validate` rejects over-size keys
  /// *before* the heap mutates so a failed statement leaves both sides
  /// untouched.
  Status ValidateIndexKeys(const TableInfo* table, const Tuple& t) const;
  Status InsertIndexEntries(const TableInfo* table, const Tuple& t,
                            RecordId rid);
  Status DeleteIndexEntries(const TableInfo* table, const Tuple& t,
                            RecordId rid);
  /// Adds every non-NULL key of `idx`'s column in its table to the tree.
  Status BackfillIndex(const IndexInfo* idx, const QueryDeadline& deadline);
  /// Rebuilds every secondary index from its table heap. Run after crash
  /// recovery: the redo-only WAL replays complete *records*, but a crash
  /// mid-statement can leave an index reflecting only part of a structure
  /// modification relative to its heap, so recovery re-derives index state
  /// from the (consistent) heaps.
  Status RebuildIndexesAfterCrash();

  DatabaseOptions options_;
  /// Session-level `SET TIMEOUT` override in ms; 0 = none (use
  /// `options_.query_timeout_ms`).
  int64_t session_timeout_ms_ = 0;
  std::unique_ptr<StorageEngine> storage_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<jvm::Jvm> vm_;
  /// Disables UDFs that keep timing out or crashing (consecutive-strike
  /// policy); re-registration clears the entry. Declared before
  /// `udf_manager_` so it outlives the runners reporting outcomes to it.
  QuarantineTracker quarantine_;
  std::unique_ptr<UdfManager> udf_manager_;
  std::unique_ptr<LobStore> lobs_;
  /// Atomic: parallel scan workers serve callbacks concurrently.
  std::atomic<uint64_t> callbacks_served_{0};
};

}  // namespace jaguar

#endif  // JAGUAR_ENGINE_DATABASE_H_
