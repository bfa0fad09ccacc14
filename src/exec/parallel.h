#ifndef JAGUAR_EXEC_PARALLEL_H_
#define JAGUAR_EXEC_PARALLEL_H_

/// \file parallel.h
/// Morsel-driven intra-query parallelism for scan, aggregation and sort.
///
/// The table heap's page chain is split into fixed-size *morsels* (runs of
/// consecutive pages); `num_workers` threads pull morsel indices from a
/// shared atomic dispenser and push each morsel's tuples through their own
/// filter/project evaluation — batch-at-a-time, so UDF calls cross their
/// design's boundary once per batch exactly as in the serial vectorized
/// path. Per-morsel results are combined in morsel index order, which makes
/// every plan shape deterministic and byte-identical to serial execution:
///   - scans merge per-morsel projected rows (LIMIT truncates after the
///     merge),
///   - aggregations build one partial hash table per morsel and merge the
///     mergeable accumulators in morsel order (exec/aggregate.h),
///   - sorts build one sorted run per morsel (bounded top-k under LIMIT)
///     and k-way-merge the runs (exec/sort.h).
///
/// Shared state touched by workers (buffer pool, UDF runners + memo,
/// metrics, the JagVM) is thread-safe; each worker gets its own TableHeap
/// cursor and UdfContext (the callback quota applies per worker — contexts
/// are per-invocation state).
///
/// Metrics:
///   exec.parallel.queries   morsel-driven queries run (scan/agg/sort)
///   exec.parallel.workers   worker threads launched (sums over queries)
///   exec.parallel.morsels   morsels dispensed
///   exec.parallel.tuples    records examined by morsel scans (scan, aggregate
///                           and sort alike), dropped ones too

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "exec/aggregate.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "exec/sort.h"
#include "storage/storage_engine.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "udf/udf.h"

namespace jaguar {
namespace exec {

/// What every morsel-driven plan shape scans, and how.
struct MorselScanSpec {
  StorageEngine* engine = nullptr;
  PageId first_page = kInvalidPageId;
  /// A UDF-free WHERE clause, checked by each worker's scan before it reads
  /// a record in full.
  ScanPrefix prefix;
  /// A WHERE clause that calls a UDF, over the input schema, run on each
  /// window of scanned records; null = no filter.
  const BoundExpr* predicate = nullptr;
  /// Records per evaluation batch (the vectorized-execution batch size).
  size_t batch_size = 256;
  /// Worker threads; must be >= 1 (1 degenerates to a serial scan).
  size_t num_workers = 2;
  /// Heap pages per morsel. Small enough to balance skewed filters, large
  /// enough that the dispenser is not contended.
  size_t morsel_pages = 4;
  /// Callback target for UDFs (each worker wraps it in its own UdfContext).
  UdfCallbackHandler* callback_handler = nullptr;
  /// Per-context callback quota (0 = unlimited).
  uint64_t callback_quota = 0;
  /// Query deadline; workers check it between batches and stop the scan
  /// (first error wins) once it expires. Null or inactive = unbounded.
  const QueryDeadline* deadline = nullptr;
};

struct ParallelScanSpec : MorselScanSpec {
  /// Output expressions over the input schema (the projection).
  const std::vector<BoundExprPtr>* out_exprs = nullptr;
  /// LIMIT: rows kept after the morsel-order merge (< 0 = all). Workers
  /// still scan every morsel; the truncation happens on merged output, so
  /// the kept prefix is exactly the serial scan's first `limit` rows.
  int64_t limit = -1;
};

/// Runs the parallel scan and returns the projected rows in serial scan
/// order. The first worker error cancels the query and is returned.
Result<std::vector<Tuple>> RunParallelScan(const ParallelScanSpec& spec);

struct ParallelAggregateSpec : MorselScanSpec {
  /// Bound aggregate plan (group keys, specs, output layout); shared
  /// read-only by all workers.
  const AggregatePlan* plan = nullptr;
};

/// Parallel grouped aggregation: one partial aggregator per morsel, merged
/// in morsel index order, finalized into key-ordered output rows identical
/// to the serial HashAggregateOp (see aggregate.h for the determinism and
/// float-sum caveats).
Result<std::vector<Tuple>> RunParallelAggregate(
    const ParallelAggregateSpec& spec);

struct ParallelSortSpec : MorselScanSpec {
  /// Sort key over the input schema.
  const BoundExpr* order_key = nullptr;
  bool descending = false;
  /// LIMIT (< 0 = all); each morsel run is top-k-bounded and the merge
  /// stops after `limit` rows.
  int64_t limit = -1;
  /// Output expressions over the input schema (the projection).
  const std::vector<BoundExprPtr>* out_exprs = nullptr;
};

/// Parallel ORDER BY: one sorted run per morsel (run id = morsel index),
/// k-way merged into output byte-identical to the serial sort.
Result<std::vector<Tuple>> RunParallelSort(const ParallelSortSpec& spec);

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_PARALLEL_H_
