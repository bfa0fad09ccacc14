#include "exec/index_scan.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace jaguar {
namespace exec {

namespace {

obs::Counter* ScansCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("exec.index.scans");
  return c;
}

obs::Counter* RangeScansCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("exec.index.range_scans");
  return c;
}

obs::Counter* LookupsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("exec.index.lookups");
  return c;
}

void FlattenAnd(BoundExprPtr e, std::vector<BoundExprPtr>* out) {
  if (e->kind == BoundExprKind::kBinary &&
      e->binary_op == sql::BinaryOp::kAnd) {
    FlattenAnd(std::move(e->left), out);
    FlattenAnd(std::move(e->right), out);
  } else {
    out->push_back(std::move(e));
  }
}

/// Refolds conjuncts left-associatively, matching the parser's AND shape.
/// AND is associative under three-valued logic, so any refold of the same
/// ordered conjuncts evaluates identically.
BoundExprPtr FoldAnd(std::vector<BoundExprPtr> conjuncts) {
  BoundExprPtr acc;
  for (BoundExprPtr& c : conjuncts) {
    if (acc == nullptr) {
      acc = std::move(c);
      continue;
    }
    auto node = std::make_unique<BoundExpr>();
    node->kind = BoundExprKind::kBinary;
    node->binary_op = sql::BinaryOp::kAnd;
    node->result_type = TypeId::kBool;
    node->left = std::move(acc);
    node->right = std::move(c);
    acc = std::move(node);
  }
  return acc;
}

/// False if `e` calls a UDF; otherwise raises `*columns` to 1 + the
/// highest column index `e` reads.
bool ScanEvaluable(const BoundExpr& e, size_t* columns) {
  if (e.kind == BoundExprKind::kCall) return false;
  if (e.kind == BoundExprKind::kColumn) {
    *columns = std::max(*columns, e.column_index + 1);
  }
  return (e.left == nullptr || ScanEvaluable(*e.left, columns)) &&
         (e.right == nullptr || ScanEvaluable(*e.right, columns));
}

sql::BinaryOp MirrorCmp(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kLt: return sql::BinaryOp::kGt;
    case sql::BinaryOp::kLe: return sql::BinaryOp::kGe;
    case sql::BinaryOp::kGt: return sql::BinaryOp::kLt;
    case sql::BinaryOp::kGe: return sql::BinaryOp::kLe;
    default: return op;
  }
}

struct ConjunctMatch {
  size_t column = 0;
  sql::BinaryOp op = sql::BinaryOp::kEq;
  Value literal;
};

std::optional<ConjunctMatch> MatchConjunct(const BoundExpr& e) {
  if (e.kind != BoundExprKind::kBinary) return std::nullopt;
  switch (e.binary_op) {
    case sql::BinaryOp::kEq:
    case sql::BinaryOp::kLt:
    case sql::BinaryOp::kLe:
    case sql::BinaryOp::kGt:
    case sql::BinaryOp::kGe:
      break;
    default:
      return std::nullopt;
  }
  const BoundExpr* col = nullptr;
  const BoundExpr* lit = nullptr;
  bool flipped = false;
  if (e.left->kind == BoundExprKind::kColumn &&
      e.right->kind == BoundExprKind::kLiteral) {
    col = e.left.get();
    lit = e.right.get();
  } else if (e.left->kind == BoundExprKind::kLiteral &&
             e.right->kind == BoundExprKind::kColumn) {
    col = e.right.get();
    lit = e.left.get();
    flipped = true;
  } else {
    return std::nullopt;
  }
  if (lit->literal.is_null()) return std::nullopt;
  ConjunctMatch m;
  m.column = col->column_index;
  m.op = flipped ? MirrorCmp(e.binary_op) : e.binary_op;
  m.literal = lit->literal;
  return m;
}

}  // namespace

std::optional<IndexPick> PickIndexScan(
    BoundExprPtr* where, const std::vector<IndexCandidate>& candidates,
    const Schema& schema) {
  if (where == nullptr || *where == nullptr || candidates.empty()) {
    return std::nullopt;
  }
  std::vector<BoundExprPtr> conjuncts;
  FlattenAnd(std::move(*where), &conjuncts);

  // Two passes: equality conjuncts beat range conjuncts; writing order
  // breaks ties.
  size_t chosen = conjuncts.size();
  const IndexCandidate* chosen_index = nullptr;
  ConjunctMatch chosen_match;
  for (int want_equality = 1; want_equality >= 0 && chosen_index == nullptr;
       --want_equality) {
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      std::optional<ConjunctMatch> m = MatchConjunct(*conjuncts[i]);
      if (!m.has_value()) continue;
      const bool is_eq = m->op == sql::BinaryOp::kEq;
      if (is_eq != (want_equality == 1)) continue;
      // The literal must match the column's declared type exactly: the
      // index compares stored keys, and cross-type comparisons (INT column,
      // DOUBLE literal) have coercion semantics the tree does not model.
      if (m->column >= schema.num_columns() ||
          m->literal.type() != schema.column(m->column).type) {
        continue;
      }
      for (const IndexCandidate& cand : candidates) {
        if (cand.column == m->column) {
          chosen = i;
          chosen_index = &cand;
          chosen_match = std::move(*m);
          break;
        }
      }
      if (chosen_index != nullptr) break;
    }
  }

  if (chosen_index == nullptr) {
    *where = FoldAnd(std::move(conjuncts));  // restore, order preserved
    return std::nullopt;
  }

  IndexPick pick;
  pick.root = chosen_index->root;
  pick.index_name = chosen_index->name;
  pick.column = chosen_match.column;
  switch (chosen_match.op) {
    case sql::BinaryOp::kEq:
      pick.lower = BTree::Bound{chosen_match.literal, true};
      pick.upper = BTree::Bound{chosen_match.literal, true};
      pick.equality = true;
      break;
    case sql::BinaryOp::kLt:
      pick.upper = BTree::Bound{chosen_match.literal, false};
      break;
    case sql::BinaryOp::kLe:
      pick.upper = BTree::Bound{chosen_match.literal, true};
      break;
    case sql::BinaryOp::kGt:
      pick.lower = BTree::Bound{chosen_match.literal, false};
      break;
    case sql::BinaryOp::kGe:
      pick.lower = BTree::Bound{chosen_match.literal, true};
      break;
    default:
      break;
  }
  conjuncts.erase(conjuncts.begin() + chosen);
  *where = FoldAnd(std::move(conjuncts));
  return pick;
}

ScanPrefix TakeScanPrefix(BoundExprPtr* where, BoundExprPtr* taken) {
  ScanPrefix prefix;
  if (*where == nullptr || !ScanEvaluable(**where, &prefix.columns)) {
    return ScanPrefix();
  }
  *taken = std::move(*where);
  prefix.expr = taken->get();
  return prefix;
}

IndexScanOp::IndexScanOp(StorageEngine* engine, PageId index_root,
                         PageId heap_first, Schema schema,
                         std::optional<BTree::Bound> lower,
                         std::optional<BTree::Bound> upper, bool equality)
    : tree_(engine, index_root),
      heap_(engine, heap_first),
      schema_(std::move(schema)),
      lower_(std::move(lower)),
      upper_(std::move(upper)),
      equality_(equality) {}

Status IndexScanOp::EnsureProbed() {
  if (probed_) return Status::OK();
  probed_ = true;
  JAGUAR_ASSIGN_OR_RETURN(rids_, tree_.Scan(lower_, upper_));
  ScansCounter()->Add();
  if (!equality_) RangeScansCounter()->Add();
  LookupsCounter()->Add(rids_.size());
  return Status::OK();
}

Result<std::optional<Tuple>> IndexScanOp::Next() {
  JAGUAR_RETURN_IF_ERROR(EnsureProbed());
  if (pos_ >= rids_.size()) return std::optional<Tuple>();
  const RecordId rid = rids_[pos_++];
  Result<std::vector<uint8_t>> bytes = heap_.Get(rid);
  if (!bytes.ok()) {
    // A dangling entry means maintenance and the heap disagree — surface it
    // as corruption rather than a silent missing row.
    if (bytes.status().IsNotFound()) {
      return Corruption("index entry points at a missing heap record");
    }
    return bytes.status();
  }
  JAGUAR_ASSIGN_OR_RETURN(Tuple t, Tuple::Deserialize(Slice(*bytes)));
  return std::optional<Tuple>(std::move(t));
}

}  // namespace exec
}  // namespace jaguar
