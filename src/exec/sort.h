#ifndef JAGUAR_EXEC_SORT_H_
#define JAGUAR_EXEC_SORT_H_

/// \file sort.h
/// Vectorized ORDER BY: a `Sorter` collects (key, projected row) pairs —
/// keys and output expressions are evaluated batch-at-a-time, so UDFs in
/// either cross their design's boundary once per batch — and orders them
/// under a strict total order that reproduces the engine's historical
/// semantics exactly: ascending = (NULL-first key, scan position),
/// descending = the exact reverse. Because scan position breaks every tie,
/// the order is deterministic and a parallel plan that sorts morsel-local
/// runs (run id = morsel index, position = row within the morsel) and
/// k-way-merges them produces byte-identical output to the serial sort.
///
/// With LIMIT n the sorter switches to a bounded top-k heap: only the n
/// best entries are retained while consuming input, instead of
/// materialize-then-full-sort.
///
/// Metrics:
///   exec.sort.queries          ORDER BY queries executed
///   exec.sort.parallel_queries ORDER BY queries on the morsel-parallel path
///   exec.sort.rows             rows fed into sorters
///   exec.sort.topk_queries     queries served by the bounded top-k heap
///   exec.sort.runs_merged      morsel-local sorted runs k-way merged

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "udf/udf.h"

namespace jaguar {
namespace exec {

/// Orders sort keys and entries; comparison failures (incomparable types)
/// are captured in `status()` instead of thrown through the sort.
class EntryOrder;

class Sorter {
 public:
  struct Entry {
    Value key;
    uint64_t run = 0;  ///< Morsel index on the parallel path, 0 serially.
    uint64_t pos = 0;  ///< Row position within the run, in scan order.
    Tuple row;
  };

  /// `limit` < 0 = unbounded full sort; >= 0 = bounded top-k heap keeping
  /// only the `limit` entries that come first in output order.
  Sorter(bool descending, int64_t limit, uint64_t run_id = 0);
  ~Sorter();

  Sorter(Sorter&&);
  Sorter& operator=(Sorter&&);

  /// Feeds one (key, projected row) pair, in scan order.
  void Add(Value key, Tuple row);

  /// Orders the retained entries; returns the first comparison error, if
  /// any key pair was incomparable.
  Status Finish();

  /// After Finish: entries in output order (for run merging).
  std::vector<Entry> TakeEntries();

  /// After Finish: projected rows in output order.
  std::vector<Tuple> TakeRows();

  bool bounded() const { return limit_ >= 0; }

  /// K-way-merges per-morsel sorted runs (each already in output order,
  /// with run ids in morsel order) into at most `limit` rows (< 0 = all).
  /// Byte-identical to sorting the concatenated input serially.
  static Result<std::vector<Tuple>> MergeRuns(
      std::vector<std::vector<Entry>> runs, bool descending, int64_t limit,
      const QueryDeadline* deadline);

 private:
  int64_t limit_;
  uint64_t run_;
  uint64_t next_pos_ = 0;
  std::unique_ptr<EntryOrder> order_;
  std::vector<Entry> entries_;  ///< Heap-ordered while bounded.
};

/// Evaluates `key` and `out_exprs` over a batch of input tuples (one
/// boundary crossing per batch for UDFs in either) and feeds the projected
/// rows into `sorter`. Shared by SortOp and the parallel morsel workers.
Status SortConsumeBatch(Sorter* sorter, const BoundExpr& key,
                        const std::vector<BoundExprPtr>& out_exprs,
                        const std::vector<Tuple>& tuples, UdfContext* ctx);

/// Sorts already-materialized rows by `key` bound against their schema —
/// the ORDER-BY-over-aggregate-output path. `limit` >= 0 truncates (top-k);
/// `batch_size` 0 evaluates the key per row instead of batch-at-a-time.
Result<std::vector<Tuple>> SortRows(std::vector<Tuple> rows,
                                    const BoundExpr& key, bool descending,
                                    int64_t limit, UdfContext* ctx,
                                    size_t batch_size,
                                    const QueryDeadline* deadline);

/// Pull-operator for the serial engine path: drains its child, sorts
/// (key, projected row) pairs, and emits the projected rows in order.
/// `batch_size` 0 selects the per-tuple scalar pipeline.
class SortOp : public BufferedOp {
 public:
  SortOp(OperatorPtr child, BoundExprPtr order_key,
         std::vector<BoundExprPtr> out_exprs, Schema out_schema,
         bool descending, int64_t limit, UdfContext* ctx, size_t batch_size,
         const QueryDeadline* deadline);

  const Schema& schema() const override { return schema_; }

 private:
  Result<std::vector<Tuple>> Compute() override;

  OperatorPtr child_;
  BoundExprPtr order_key_;
  std::vector<BoundExprPtr> out_exprs_;
  Schema schema_;
  int64_t limit_;
  UdfContext* ctx_;
  size_t batch_size_;
  const QueryDeadline* deadline_;
  Sorter sorter_;
};

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_SORT_H_
