#ifndef JAGUAR_EXEC_INDEX_SCAN_H_
#define JAGUAR_EXEC_INDEX_SCAN_H_

/// \file index_scan.h
/// Index scans and jaguar's two planner rules: the index pick and the scan
/// prefix.
///
/// `PickIndexScan` looks at a bound WHERE clause's top-level AND chain for a
/// conjunct of the form `<column> <cmp> <literal>` (either side) where the
/// column has a B+-tree index and the literal's type matches the column's
/// exactly. The matched conjunct is *removed* from the predicate — the index
/// probe guarantees it — and everything else stays behind as the residual
/// filter, evaluated only on the survivors. That is the paper-motivated win:
/// an expensive UDF predicate written before the indexable one no longer
/// runs on every tuple of the relation.
///
/// Equality conjuncts are preferred over range conjuncts; among equals, the
/// first in writing order wins. Correctness of removing the conjunct relies
/// on index semantics matching predicate semantics: NULL keys are never
/// stored (a NULL comparison is unknown → WHERE-false), and bounds compare
/// with `Value::Compare` exactly like the evaluator.
///
/// Metrics:
///   exec.index.scans        index-scan operators executed
///   exec.index.range_scans  the subset driven by a range (non-equality)
///   exec.index.lookups      record ids produced by index probes
///   exec.index.inserts      entries inserted (maintenance + backfill)
///   exec.index.deletes      entries removed (maintenance)

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/expression.h"
#include "exec/operators.h"
#include "index/btree.h"
#include "storage/table_heap.h"

namespace jaguar {
namespace exec {

/// One indexable column the planner may use (engine-built from the catalog).
struct IndexCandidate {
  size_t column = 0;
  PageId root = kInvalidPageId;
  std::string name;
};

/// The planner's decision: which index, with which bounds.
struct IndexPick {
  PageId root = kInvalidPageId;
  std::string index_name;
  size_t column = 0;
  std::optional<BTree::Bound> lower;
  std::optional<BTree::Bound> upper;
  bool equality = false;
};

/// Examines `*where` (may be null). On a hit, returns the pick and replaces
/// `*where` with the residual predicate (null when the indexable conjunct
/// was the whole clause); on a miss `*where` is unchanged.
std::optional<IndexPick> PickIndexScan(
    BoundExprPtr* where, const std::vector<IndexCandidate>& candidates,
    const Schema& schema);

/// If `*where` (may be null) calls no UDF, moves it to `*taken` and returns
/// it as the scan prefix; otherwise leaves it and returns an empty prefix.
/// Only a UDF-free clause moves: the rows the scan then drops unread are the
/// ones a filter above it would drop, so no UDF invocation changes.
ScanPrefix TakeScanPrefix(BoundExprPtr* where, BoundExprPtr* taken);

/// Probes the B+-tree once on first pull, then streams the matching heap
/// records in (key, rid) order.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(StorageEngine* engine, PageId index_root, PageId heap_first,
              Schema schema, std::optional<BTree::Bound> lower,
              std::optional<BTree::Bound> upper, bool equality);

  /// The base-class NextBatch (a Next() loop) provides the batch protocol;
  /// there are no per-tuple expressions here to vectorize.
  Result<std::optional<Tuple>> Next() override;
  const Schema& schema() const override { return schema_; }

 private:
  Status EnsureProbed();

  BTree tree_;
  TableHeap heap_;
  Schema schema_;
  std::optional<BTree::Bound> lower_;
  std::optional<BTree::Bound> upper_;
  bool equality_;
  bool probed_ = false;
  std::vector<RecordId> rids_;
  size_t pos_ = 0;
};

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_INDEX_SCAN_H_
