#ifndef JAGUAR_EXEC_AGGREGATE_H_
#define JAGUAR_EXEC_AGGREGATE_H_

/// \file aggregate.h
/// Vectorized hash aggregation with mergeable accumulators.
///
/// `PlanAggregate` binds a SELECT's GROUP BY keys, aggregate specs and
/// output layout once; a `HashAggregator` then consumes tuples — batch-at-
/// a-time through `EvalBatch`, so UDFs in group keys or aggregate arguments
/// cross their design's protection boundary once per batch — and keeps one
/// accumulator set per distinct key. count/sum/avg/min/max accumulators are
/// all mergeable, which is what makes the morsel-parallel path work:
/// each morsel builds a partial aggregator and the partials are merged in
/// morsel index order, so the combined state (including min/max ties, which
/// keep the first value in scan order, and the floating-point sum order) is
/// deterministic and key-ordered output matches the serial path exactly.
/// For exactly-representable sums (integers, dyadic doubles) parallel
/// output is byte-identical to serial; inexact double sums are still
/// deterministic run-to-run but may differ from serial in the last ulp
/// because partial sums are added in morsel order, not row order.
///
/// Metrics:
///   exec.agg.queries          aggregate queries executed
///   exec.agg.parallel_queries aggregate queries on the morsel-parallel path
///   exec.agg.rows             input rows consumed by aggregators
///   exec.agg.groups           groups emitted by Finalize
///   exec.agg.partial_merges   partial-aggregator merges (parallel phase 2)

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "sql/ast.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "udf/udf.h"

namespace jaguar {
namespace exec {

/// True for the aggregate functions recognized in SELECT items.
bool IsAggregateFunctionName(const std::string& name);

/// True when any select item is an aggregate function call.
bool SelectHasAggregate(const sql::SelectStmt& sel);

enum class AggFn : uint8_t { kCount, kCountStar, kSum, kAvg, kMin, kMax };

/// One aggregate output column: what to compute.
struct AggSpec {
  AggFn fn = AggFn::kCount;
  BoundExprPtr arg;  ///< Null for count(*).
  TypeId out_type = TypeId::kInt;
};

/// Running state of one aggregate over one group. Mergeable: combining two
/// accumulators built over disjoint row sets (in scan order) yields the
/// accumulator of the union.
struct AggAccum {
  int64_t count = 0;
  bool any = false;
  int64_t sum_int = 0;
  double sum_double = 0;
  bool is_double = false;
  Value min_value;
  Value max_value;

  /// Folds one non-NULL-filtered input value in (NULLs are ignored here,
  /// matching SQL aggregate semantics).
  Status Accumulate(const AggSpec& spec, const Value& v);

  /// Merges `other` (built over rows that come *after* this accumulator's
  /// rows in scan order) into this one. Min/max ties keep this side's
  /// value, so in-order merging reproduces serial first-wins behavior.
  Status Merge(const AggSpec& spec, const AggAccum& other);

  Value Finalize(const AggSpec& spec) const;
};

/// How one select item maps into the output row.
struct AggregateOutput {
  bool is_agg;
  size_t index;  ///< Into AggregatePlan::specs or ::group_keys.
};

/// Bound, immutable description of an aggregate query — shared read-only by
/// all workers on the parallel path.
struct AggregatePlan {
  std::vector<BoundExprPtr> group_keys;
  std::vector<std::string> group_texts;  ///< ToString of each GROUP BY key.
  std::vector<AggSpec> specs;
  std::vector<AggregateOutput> outputs;  ///< One per select item, in order.
  Schema out_schema;

  bool implicit_single_group() const { return group_keys.empty(); }
};

/// Binds GROUP BY keys and select items against `input`: aggregates become
/// AggSpecs; every other item must textually match a GROUP BY key.
Result<AggregatePlan> PlanAggregate(const sql::SelectStmt& sel,
                                    const Schema& input,
                                    const std::string& table_name,
                                    const std::string& table_alias,
                                    UdfResolver* resolver);

/// Resolves an ORDER BY over aggregate output: an expression matching a
/// select item (by text or alias) becomes a reference to that output
/// column; anything else is bound against the aggregate's output schema.
Result<BoundExprPtr> BindAggregateOrderKey(const sql::SelectStmt& sel,
                                           const AggregatePlan& plan,
                                           UdfResolver* resolver);

/// Accumulates grouped aggregate state. Group identity is the serialized
/// key-value bytes; `Finalize` emits groups in key-byte order, which is
/// what the serial engine has always produced.
class HashAggregator {
 public:
  explicit HashAggregator(const AggregatePlan* plan);

  /// Vectorized consume: group keys and aggregate arguments are evaluated
  /// with `EvalBatch` (one boundary crossing per batch for UDFs).
  Status ConsumeBatch(const std::vector<Tuple>& tuples, UdfContext* ctx);

  /// Scalar consume for the non-vectorized engine path: per-tuple `Eval`.
  Status ConsumeTuple(const Tuple& tuple, UdfContext* ctx);

  /// Merges (and drains) `other`, whose rows come after this aggregator's
  /// rows in scan order. `deadline` is polled during the merge loop.
  Status MergeFrom(HashAggregator* other, const QueryDeadline* deadline);

  size_t num_groups() const { return groups_.size(); }

  /// Emits one output row per group, ordered by serialized key bytes.
  Result<std::vector<Tuple>> Finalize(const QueryDeadline* deadline);

 private:
  struct Group {
    std::vector<Value> keys;
    std::vector<AggAccum> accums;
  };

  Status AccumulateRow(Group* group, const std::vector<const Value*>& args);
  Group* FindOrCreateGroup(const std::string& key_bytes,
                           std::vector<Value> keys);

  const AggregatePlan* plan_;
  std::unordered_map<std::string, Group> groups_;
};

/// Pull-operator wrapper over HashAggregator for the serial engine path.
/// `batch_size` 0 selects the per-tuple scalar pipeline (non-vectorized
/// engines keep their per-invocation UDF crossing counts); > 0 drains the
/// child batch-at-a-time.
class HashAggregateOp : public BufferedOp {
 public:
  HashAggregateOp(OperatorPtr child, const AggregatePlan* plan,
                  UdfContext* ctx, size_t batch_size,
                  const QueryDeadline* deadline);

  const Schema& schema() const override { return plan_->out_schema; }

 private:
  Result<std::vector<Tuple>> Compute() override;

  OperatorPtr child_;
  const AggregatePlan* plan_;
  UdfContext* ctx_;
  size_t batch_size_;
  const QueryDeadline* deadline_;
  HashAggregator aggregator_;
};

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_AGGREGATE_H_
