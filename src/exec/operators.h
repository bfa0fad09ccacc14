#ifndef JAGUAR_EXEC_OPERATORS_H_
#define JAGUAR_EXEC_OPERATORS_H_

/// \file operators.h
/// Pull-based ("Volcano"-style) query operators. PREDATOR evaluates all
/// expressions — including UDFs — serially per tuple; so do we. The plans the
/// paper's experiments need are SeqScan → Filter → Project → Limit.

#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "exec/expression.h"
#include "exec/tuple_batch.h"
#include "storage/table_heap.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace jaguar {
namespace exec {

class Operator {
 public:
  virtual ~Operator() = default;

  /// \return The next tuple, or nullopt at end of stream.
  virtual Result<std::optional<Tuple>> Next() = 0;

  /// Vectorized pull: clears `out` and fills it with up to `out->capacity()`
  /// tuples. An empty batch signals end of stream. The base implementation
  /// loops over `Next()`, so every operator supports the batch protocol;
  /// operators with a native batch path (scan/filter/project/limit) override
  /// it to evaluate expressions — and invoke UDFs — per batch instead of per
  /// tuple. Calls must not be interleaved with `Next()` on the same stream.
  virtual Status NextBatch(TupleBatch* out);

  /// Output schema of this operator.
  virtual const Schema& schema() const = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// A WHERE clause with no UDF call, which a heap scan checks on a record's
/// leading columns before it reads the record in full (see
/// `TakeScanPrefix`). The scan drops the rows it is not TRUE for, so no
/// filter runs above it.
struct ScanPrefix {
  const BoundExpr* expr = nullptr;  ///< Null: the scan drops nothing.
  size_t columns = 0;  ///< Leading columns `expr` reads.
};

/// Examines the next record of `it`, decoding it straight from its pinned
/// view. The prefix is checked on the columns it reads first — for an
/// overflow record, from its first chunk — and the rest of the record is
/// read only if the prefix holds. \return The record's view, or
/// nullptr at the end of `it`; `*row` is left empty if the prefix drops it.
Result<const TableHeap::Iterator::View*> ScanRecord(
    TableHeap::Iterator* it, const ScanPrefix& prefix,
    std::optional<Tuple>* row);

/// Full scan over a table heap, deserializing stored records to tuples and
/// dropping those its scan prefix rules out.
class SeqScanOp : public Operator {
 public:
  SeqScanOp(StorageEngine* engine, PageId first_page, Schema schema,
            ScanPrefix prefix = {})
      : heap_(engine, first_page),
        iter_(heap_.Scan()),
        schema_(std::move(schema)),
        prefix_(prefix) {}

  Result<std::optional<Tuple>> Next() override;
  /// Each batch holds the survivors of the next `out->capacity()` records,
  /// as a FilterOp over an unfiltered scan would: UDF batches stay the same.
  Status NextBatch(TupleBatch* out) override;
  const Schema& schema() const override { return schema_; }

 private:
  TableHeap heap_;
  TableHeap::Iterator iter_;
  Schema schema_;
  ScanPrefix prefix_;
};

/// A blocking operator: computes all its rows on the first pull, then emits
/// them (aggregation, sort).
class BufferedOp : public Operator {
 public:
  Result<std::optional<Tuple>> Next() override;
  Status NextBatch(TupleBatch* out) override;

 protected:
  /// Produces every output row; called once.
  virtual Result<std::vector<Tuple>> Compute() = 0;

 private:
  Status Fill();
  bool filled_ = false;
  std::vector<Tuple> rows_;
  size_t emit_pos_ = 0;
};

/// Emits only tuples for which the predicate evaluates to true.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, BoundExprPtr predicate, UdfContext* ctx)
      : child_(std::move(child)),
        predicate_(std::move(predicate)),
        ctx_(ctx) {}

  Result<std::optional<Tuple>> Next() override;
  Status NextBatch(TupleBatch* out) override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  OperatorPtr child_;
  BoundExprPtr predicate_;
  UdfContext* ctx_;
};

/// Computes output expressions per input tuple.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<BoundExprPtr> exprs,
            Schema out_schema, UdfContext* ctx)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        schema_(std::move(out_schema)),
        ctx_(ctx) {}

  Result<std::optional<Tuple>> Next() override;
  Status NextBatch(TupleBatch* out) override;
  const Schema& schema() const override { return schema_; }

 private:
  OperatorPtr child_;
  std::vector<BoundExprPtr> exprs_;
  Schema schema_;
  UdfContext* ctx_;
};

/// Stops after `limit` tuples.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit)
      : child_(std::move(child)), remaining_(limit) {}

  Result<std::optional<Tuple>> Next() override;
  Status NextBatch(TupleBatch* out) override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  OperatorPtr child_;
  int64_t remaining_;
};

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_OPERATORS_H_
