// Unit tests for src/exec: binding, expression evaluation (three-valued
// logic, coercions), and the pull-based operators — tested directly, below
// the engine facade.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "exec/expression.h"
#include "exec/index_scan.h"
#include "exec/operators.h"
#include "sql/parser.h"
#include "storage/storage_engine.h"

namespace jaguar {
namespace exec {
namespace {

Schema TestSchema() {
  return Schema({{"a", TypeId::kInt},
                 {"b", TypeId::kDouble},
                 {"s", TypeId::kString},
                 {"blob", TypeId::kBytes}});
}

Tuple TestTuple() {
  return Tuple({Value::Int(7), Value::Double(2.5), Value::String("hi"),
                Value::Bytes({1, 2, 3})});
}

/// Parses, binds against the test schema, evaluates against the test tuple.
Result<Value> EvalText(const std::string& text,
                       UdfResolver* resolver = nullptr) {
  JAGUAR_ASSIGN_OR_RETURN(sql::ExprPtr expr, sql::ParseExpression(text));
  JAGUAR_ASSIGN_OR_RETURN(BoundExprPtr bound,
                          Bind(*expr, TestSchema(), "t", "T", resolver));
  return Eval(*bound, TestTuple(), nullptr);
}

TEST(ExpressionTest, ColumnsAndArithmetic) {
  EXPECT_EQ(EvalText("a + 1").value().AsInt(), 8);
  EXPECT_EQ(EvalText("a * a - 9").value().AsInt(), 40);
  EXPECT_DOUBLE_EQ(EvalText("b * 2").value().AsDouble(), 5.0);
  // Mixed int/double arithmetic widens.
  EXPECT_DOUBLE_EQ(EvalText("a + b").value().AsDouble(), 9.5);
  EXPECT_EQ(EvalText("-a").value().AsInt(), -7);
  EXPECT_EQ(EvalText("a % 4").value().AsInt(), 3);
}

TEST(ExpressionTest, QualifiedColumns) {
  EXPECT_EQ(EvalText("T.a").value().AsInt(), 7);
  EXPECT_EQ(EvalText("t.a").value().AsInt(), 7);  // table name works too
  EXPECT_TRUE(EvalText("X.a").status().IsInvalidArgument());
}

TEST(ExpressionTest, Comparisons) {
  EXPECT_TRUE(EvalText("a = 7").value().AsBool());
  EXPECT_TRUE(EvalText("a <> 8").value().AsBool());
  EXPECT_TRUE(EvalText("b < a").value().AsBool());
  EXPECT_TRUE(EvalText("s = 'hi'").value().AsBool());
  EXPECT_FALSE(EvalText("s < 'aa'").value().AsBool());
  // Cross-family comparisons fail cleanly.
  EXPECT_FALSE(EvalText("s > 5").ok());
}

TEST(ExpressionTest, ThreeValuedLogic) {
  // NULL propagates through arithmetic; comparisons yield NULL.
  EXPECT_TRUE(EvalText("NULL + 1").value().is_null());
  EXPECT_TRUE(EvalText("a = NULL").value().is_null());
  // AND/OR short-circuit around NULL per SQL: NULL AND TRUE is NULL, but
  // FALSE AND NULL is FALSE (false dominates).
  EXPECT_TRUE(EvalText("(a = NULL) AND (a = 7)").value().is_null());
  EXPECT_EQ(EvalText("(a = 8) AND (a = NULL)").value().AsBool(), false);
  EXPECT_EQ(EvalText("(a = 7) OR (a = NULL)").value().AsBool(), true);
  EXPECT_TRUE(EvalText("(a = NULL) OR (a = NULL)").value().is_null());
  EXPECT_TRUE(EvalText("NOT (a = NULL)").value().is_null());
}

TEST(ExpressionTest, BindErrors) {
  EXPECT_TRUE(EvalText("missing_col").status().IsNotFound());
  EXPECT_TRUE(EvalText("s + 1").status().IsInvalidArgument());
  EXPECT_TRUE(EvalText("-s").status().IsInvalidArgument());
  // Function calls need a resolver.
  EXPECT_TRUE(EvalText("f(a)").status().IsNotSupported());
}

TEST(ExpressionTest, EvalPredicateSemantics) {
  auto check = [](const std::string& text) -> Result<bool> {
    auto expr = sql::ParseExpression(text).value();
    JAGUAR_ASSIGN_OR_RETURN(BoundExprPtr bound,
                            Bind(*expr, TestSchema(), "t", "", nullptr));
    return EvalPredicate(*bound, TestTuple(), nullptr);
  };
  EXPECT_TRUE(check("a > 3").value());
  EXPECT_FALSE(check("a > 30").value());
  // NULL predicate counts as false.
  EXPECT_FALSE(check("a = NULL").value());
  // Non-boolean WHERE is an error.
  EXPECT_TRUE(check("a + 1").status().IsInvalidArgument());
}

BoundExprPtr BindTest(const std::string& text) {
  return Bind(*sql::ParseExpression(text).value(), TestSchema(), "t", "",
              nullptr)
      .value();
}

BoundExprPtr And(BoundExprPtr left, BoundExprPtr right) {
  auto node = std::make_unique<BoundExpr>();
  node->kind = BoundExprKind::kBinary;
  node->binary_op = sql::BinaryOp::kAnd;
  node->result_type = TypeId::kBool;
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

TEST(ScanPrefixTest, OnlyAUdfFreeClauseMovesIntoTheScan) {
  // A stand-in UDF call: the rule looks only at the node kind.
  auto call = [] {
    auto c = std::make_unique<BoundExpr>();
    c->kind = BoundExprKind::kCall;
    c->result_type = TypeId::kBool;
    return c;
  };
  // A UDF call anywhere, even after UDF-free conjuncts: the clause stays.
  BoundExprPtr where =
      And(BindTest("a > 1"), And(call(), BindTest("b < 3.0")));
  const BoundExpr* before = where.get();
  BoundExprPtr taken;
  ScanPrefix prefix = TakeScanPrefix(&where, &taken);
  EXPECT_EQ(prefix.expr, nullptr);
  EXPECT_EQ(where.get(), before);
  EXPECT_EQ(taken, nullptr);

  // No UDF at all: the whole clause moves out, leaving no filter.
  where = And(BindTest("a > 1"), And(BindTest("s = 'x'"), BindTest("b < 3.0")));
  before = where.get();
  prefix = TakeScanPrefix(&where, &taken);
  EXPECT_EQ(where, nullptr);
  EXPECT_EQ(taken.get(), before);
  EXPECT_EQ(prefix.expr, before);
  EXPECT_EQ(prefix.columns, 3u);  // a, b and s

  BoundExprPtr none;
  EXPECT_EQ(TakeScanPrefix(&none, &taken).expr, nullptr);
}

class OperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("jaguar_exec_" + std::to_string(::getpid()) + ".db"))
                .string();
    std::remove(path_.c_str());
    engine_ = StorageEngine::Open(path_).value();
    first_page_ = TableHeap::Create(engine_.get()).value();
    TableHeap heap(engine_.get(), first_page_);
    schema_ = Schema({{"id", TypeId::kInt}, {"name", TypeId::kString}});
    for (int i = 0; i < 10; ++i) {
      Tuple t({Value::Int(i), Value::String("row" + std::to_string(i))});
      ASSERT_TRUE(heap.Insert(Slice(t.Serialize())).ok());
    }
  }
  void TearDown() override {
    engine_->Close().ok();
    engine_.reset();
    std::remove(path_.c_str());
  }

  BoundExprPtr BindText(const std::string& text) {
    auto expr = sql::ParseExpression(text).value();
    return Bind(*expr, schema_, "t", "", nullptr).value();
  }

  std::string path_;
  std::unique_ptr<StorageEngine> engine_;
  PageId first_page_;
  Schema schema_;
};

TEST_F(OperatorTest, SeqScanYieldsAllTuples) {
  SeqScanOp scan(engine_.get(), first_page_, schema_);
  int count = 0;
  while (true) {
    auto t = scan.Next().value();
    if (!t.has_value()) break;
    EXPECT_EQ(t->value(0).AsInt(), count);
    ++count;
  }
  EXPECT_EQ(count, 10);
  // Exhausted operators keep returning end-of-stream.
  EXPECT_FALSE(scan.Next().value().has_value());
}

TEST_F(OperatorTest, FilterProjectsLimitPipeline) {
  auto scan = std::make_unique<SeqScanOp>(engine_.get(), first_page_, schema_);
  auto filter = std::make_unique<FilterOp>(std::move(scan),
                                           BindText("id % 2 = 0"), nullptr);
  std::vector<BoundExprPtr> exprs;
  exprs.push_back(BindText("id * 100"));
  Schema out({{"x", TypeId::kInt}});
  auto project = std::make_unique<ProjectOp>(std::move(filter),
                                             std::move(exprs), out, nullptr);
  LimitOp limit(std::move(project), 3);

  std::vector<int64_t> got;
  while (true) {
    auto t = limit.Next().value();
    if (!t.has_value()) break;
    got.push_back(t->value(0).AsInt());
  }
  EXPECT_EQ(got, (std::vector<int64_t>{0, 200, 400}));
}

TEST_F(OperatorTest, LimitZeroAndOverLimit) {
  {
    auto scan =
        std::make_unique<SeqScanOp>(engine_.get(), first_page_, schema_);
    LimitOp limit(std::move(scan), 0);
    EXPECT_FALSE(limit.Next().value().has_value());
  }
  {
    auto scan =
        std::make_unique<SeqScanOp>(engine_.get(), first_page_, schema_);
    LimitOp limit(std::move(scan), 100);
    int count = 0;
    while (limit.Next().value().has_value()) ++count;
    EXPECT_EQ(count, 10);
  }
}

TEST_F(OperatorTest, NextBatchMatchesScalarAcrossBatchSizes) {
  // The batch path must yield exactly the scalar rows, in order, for batch
  // sizes of 1, a non-divisor of both the table and intermediate
  // cardinalities, and far beyond the row count.
  auto build = [&]() -> OperatorPtr {
    auto scan =
        std::make_unique<SeqScanOp>(engine_.get(), first_page_, schema_);
    auto filter = std::make_unique<FilterOp>(std::move(scan),
                                             BindText("id % 2 = 0"), nullptr);
    std::vector<BoundExprPtr> exprs;
    exprs.push_back(BindText("id * 100"));
    exprs.push_back(BindText("name"));
    Schema out({{"x", TypeId::kInt}, {"name", TypeId::kString}});
    return std::make_unique<ProjectOp>(std::move(filter), std::move(exprs),
                                       out, nullptr);
  };

  std::vector<std::string> scalar_rows;
  {
    OperatorPtr op = build();
    while (true) {
      auto t = op->Next().value();
      if (!t.has_value()) break;
      scalar_rows.push_back(Slice(t->Serialize()).ToString());
    }
  }
  ASSERT_EQ(scalar_rows.size(), 5u);

  for (size_t batch_size : {size_t{1}, size_t{3}, size_t{256}}) {
    OperatorPtr op = build();
    std::vector<std::string> batch_rows;
    TupleBatch batch(batch_size);
    while (true) {
      ASSERT_TRUE(op->NextBatch(&batch).ok());
      if (batch.empty()) break;
      EXPECT_LE(batch.size(), batch_size);
      for (const Tuple& t : batch.tuples()) {
        batch_rows.push_back(Slice(t.Serialize()).ToString());
      }
    }
    EXPECT_EQ(batch_rows, scalar_rows) << "batch size " << batch_size;
    // Exhausted operators keep returning empty batches.
    ASSERT_TRUE(op->NextBatch(&batch).ok());
    EXPECT_TRUE(batch.empty());
  }
}

TEST_F(OperatorTest, ScanPrefixPassesOnTheBatchesOfAFilter) {
  // The scan applying a prefix itself must hand upward exactly the batches
  // a FilterOp over an unfiltered scan would — same rows, same batch
  // boundaries — since upstream UDF batches are built from them.
  const std::string text = "id % 3 = 0 AND id < 8";
  BoundExprPtr pred = BindText(text);
  auto ids = [](Operator* op, size_t batch_size) {
    std::vector<std::vector<int64_t>> batches;
    TupleBatch batch(batch_size);
    while (true) {
      EXPECT_TRUE(op->NextBatch(&batch).ok());
      if (batch.empty()) break;
      batches.emplace_back();
      for (const Tuple& t : batch.tuples()) {
        batches.back().push_back(t.value(0).AsInt());
      }
    }
    return batches;
  };
  for (size_t batch_size : {size_t{1}, size_t{2}, size_t{4}, size_t{256}}) {
    FilterOp filter(
        std::make_unique<SeqScanOp>(engine_.get(), first_page_, schema_),
        BindText(text), nullptr);
    const auto want = ids(&filter, batch_size);

    SeqScanOp scan(engine_.get(), first_page_, schema_,
                   ScanPrefix{pred.get(), 1});
    EXPECT_EQ(ids(&scan, batch_size), want) << "batch size " << batch_size;
  }
  SeqScanOp scalar(engine_.get(), first_page_, schema_,
                   ScanPrefix{pred.get(), 1});
  std::vector<int64_t> got;
  while (true) {
    auto t = scalar.Next().value();
    if (!t.has_value()) break;
    got.push_back(t->value(0).AsInt());
  }
  EXPECT_EQ(got, (std::vector<int64_t>{0, 3, 6}));
}

TEST_F(OperatorTest, NextBatchRespectsLimitAndTail) {
  // LIMIT 7 over 10 rows with batch size 4: batches of 4, 3 (clamped at the
  // limit), then end of stream — the non-divisor tail case.
  auto scan = std::make_unique<SeqScanOp>(engine_.get(), first_page_, schema_);
  LimitOp limit(std::move(scan), 7);
  TupleBatch batch(4);
  std::vector<size_t> sizes;
  int64_t next_id = 0;
  while (true) {
    ASSERT_TRUE(limit.NextBatch(&batch).ok());
    if (batch.empty()) break;
    sizes.push_back(batch.size());
    for (const Tuple& t : batch.tuples()) {
      EXPECT_EQ(t.value(0).AsInt(), next_id++);
    }
  }
  EXPECT_EQ(sizes, (std::vector<size_t>{4, 3}));
  EXPECT_EQ(next_id, 7);
}

TEST_F(OperatorTest, NextBatchErrorPropagates) {
  auto scan = std::make_unique<SeqScanOp>(engine_.get(), first_page_, schema_);
  auto filter = std::make_unique<FilterOp>(
      std::move(scan), BindText("1 / (id - 5) > 0"), nullptr);
  TupleBatch batch(4);
  Status error;
  while (true) {
    Status s = filter->NextBatch(&batch);
    if (!s.ok()) {
      error = s;
      break;
    }
    if (batch.empty()) break;
  }
  EXPECT_TRUE(error.IsRuntimeError());
}

TEST_F(OperatorTest, FilterErrorPropagates) {
  auto scan = std::make_unique<SeqScanOp>(engine_.get(), first_page_, schema_);
  // 1 / (id - 5): division by zero on row 5 surfaces as RuntimeError.
  auto filter = std::make_unique<FilterOp>(
      std::move(scan), BindText("1 / (id - 5) > 0"), nullptr);
  Status error;
  while (true) {
    Result<std::optional<Tuple>> t = filter->Next();
    if (!t.ok()) {
      error = t.status();
      break;
    }
    if (!t->has_value()) break;
  }
  EXPECT_TRUE(error.IsRuntimeError());
}

}  // namespace
}  // namespace exec
}  // namespace jaguar
