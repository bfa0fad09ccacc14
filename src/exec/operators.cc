#include "exec/operators.h"

#include <algorithm>

#include "obs/metrics.h"

namespace jaguar {
namespace exec {

namespace {

/// Per-operator produced-tuple counters; resolved once per operator kind.
obs::Counter* TuplesCounter(const char* op) {
  return obs::MetricsRegistry::Global()->GetCounter(
      std::string("exec.") + op + ".tuples");
}

}  // namespace

Status Operator::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    JAGUAR_ASSIGN_OR_RETURN(auto t, Next());
    if (!t.has_value()) break;
    out->Add(std::move(*t));
  }
  return Status::OK();
}

Result<const TableHeap::Iterator::View*> ScanRecord(
    TableHeap::Iterator* it, const ScanPrefix& prefix,
    std::optional<Tuple>* row) {
  static obs::Counter* skipped =
      obs::MetricsRegistry::Global()->GetCounter("exec.scan.overflow_skipped");
  row->reset();
  JAGUAR_ASSIGN_OR_RETURN(const TableHeap::Iterator::View* rec, it->NextView());
  if (rec == nullptr) return rec;
  // Judge the prefix on the leading columns: FALSE or NULL drops the record
  // unread. An error, a non-BOOL or a column past an overflow record's
  // first chunk leaves it to the full tuple.
  bool judged = false;
  if (prefix.expr != nullptr) {
    BufferReader lead(rec->head);
    Result<Tuple> leading = Tuple::ReadLeading(&lead, prefix.columns);
    Result<Value> v = leading.ok() ? Eval(*prefix.expr, *leading, nullptr)
                                   : Result<Value>(leading.status());
    if (v.ok() && (v->is_null() || v->type() == TypeId::kBool)) {
      judged = true;
      if (v->is_null() || !v->AsBool()) {
        if (!rec->complete) skipped->Add();
        return rec;
      }
    }
  }
  Tuple t;
  if (rec->complete) {
    JAGUAR_ASSIGN_OR_RETURN(t, Tuple::Deserialize(rec->head));
  } else {
    JAGUAR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, it->ReadRecord());
    JAGUAR_ASSIGN_OR_RETURN(t, Tuple::Deserialize(Slice(bytes)));
  }
  if (!judged && prefix.expr != nullptr) {
    JAGUAR_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*prefix.expr, t, nullptr));
    if (!pass) return rec;
  }
  *row = std::move(t);
  return rec;
}

// exec.seqscan.tuples counts every record examined, dropped ones too.
Result<std::optional<Tuple>> SeqScanOp::Next() {
  static obs::Counter* tuples = TuplesCounter("seqscan");
  std::optional<Tuple> row;
  while (!row.has_value()) {
    JAGUAR_ASSIGN_OR_RETURN(auto rec, ScanRecord(&iter_, prefix_, &row));
    if (rec == nullptr) break;
    tuples->Add();
  }
  return row;
}

Status SeqScanOp::NextBatch(TupleBatch* out) {
  static obs::Counter* tuples = TuplesCounter("seqscan");
  out->Clear();
  for (bool more = true; more && out->empty();) {
    for (size_t i = 0; i < out->capacity(); ++i) {
      std::optional<Tuple> row;
      JAGUAR_ASSIGN_OR_RETURN(auto rec, ScanRecord(&iter_, prefix_, &row));
      more = rec != nullptr;
      if (!more) break;
      tuples->Add();
      if (row.has_value()) out->Add(std::move(*row));
    }
  }
  return Status::OK();
}

Status BufferedOp::Fill() {
  if (filled_) return Status::OK();
  filled_ = true;
  JAGUAR_ASSIGN_OR_RETURN(rows_, Compute());
  return Status::OK();
}

Result<std::optional<Tuple>> BufferedOp::Next() {
  JAGUAR_RETURN_IF_ERROR(Fill());
  if (emit_pos_ >= rows_.size()) return std::optional<Tuple>();
  return std::optional<Tuple>(std::move(rows_[emit_pos_++]));
}

Status BufferedOp::NextBatch(TupleBatch* out) {
  JAGUAR_RETURN_IF_ERROR(Fill());
  out->Clear();
  while (emit_pos_ < rows_.size() && !out->full()) {
    out->Add(std::move(rows_[emit_pos_++]));
  }
  return Status::OK();
}

Result<std::optional<Tuple>> FilterOp::Next() {
  while (true) {
    JAGUAR_ASSIGN_OR_RETURN(auto t, child_->Next());
    if (!t.has_value()) return std::optional<Tuple>();
    JAGUAR_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, *t, ctx_));
    if (pass) {
      static obs::Counter* tuples = TuplesCounter("filter");
      tuples->Add();
      return t;
    }
  }
}

Status FilterOp::NextBatch(TupleBatch* out) {
  out->Clear();
  static obs::Counter* tuples = TuplesCounter("filter");
  TupleBatch input(out->capacity());
  // Pull child batches until at least one tuple passes (or input ends), so a
  // non-empty result is only withheld at true end of stream.
  while (out->empty()) {
    JAGUAR_RETURN_IF_ERROR(child_->NextBatch(&input));
    if (input.empty()) break;
    JAGUAR_RETURN_IF_ERROR(FilterBatch(*predicate_, &input.tuples(), ctx_));
    tuples->Add(input.size());
    for (Tuple& t : input.tuples()) out->Add(std::move(t));
  }
  return Status::OK();
}

Result<std::optional<Tuple>> ProjectOp::Next() {
  JAGUAR_ASSIGN_OR_RETURN(auto t, child_->Next());
  if (!t.has_value()) return std::optional<Tuple>();
  std::vector<Value> out;
  out.reserve(exprs_.size());
  for (const BoundExprPtr& e : exprs_) {
    JAGUAR_ASSIGN_OR_RETURN(Value v, Eval(*e, *t, ctx_));
    out.push_back(std::move(v));
  }
  static obs::Counter* tuples = TuplesCounter("project");
  tuples->Add();
  return std::make_optional(Tuple(std::move(out)));
}

Status ProjectOp::NextBatch(TupleBatch* out) {
  out->Clear();
  TupleBatch input(out->capacity());
  JAGUAR_RETURN_IF_ERROR(child_->NextBatch(&input));
  if (input.empty()) return Status::OK();
  JAGUAR_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                          ProjectBatch(exprs_, input.tuples(), ctx_));
  static obs::Counter* tuples = TuplesCounter("project");
  tuples->Add(rows.size());
  for (Tuple& t : rows) out->Add(std::move(t));
  return Status::OK();
}

Result<std::optional<Tuple>> LimitOp::Next() {
  if (remaining_ <= 0) return std::optional<Tuple>();
  JAGUAR_ASSIGN_OR_RETURN(auto t, child_->Next());
  if (t.has_value()) {
    --remaining_;
    static obs::Counter* tuples = TuplesCounter("limit");
    tuples->Add();
  }
  return t;
}

Status LimitOp::NextBatch(TupleBatch* out) {
  out->Clear();
  if (remaining_ <= 0) return Status::OK();
  // Pull at most `remaining_` tuples so upstream work past the limit is not
  // computed merely to be discarded.
  TupleBatch input(std::min<size_t>(out->capacity(),
                                    static_cast<size_t>(remaining_)));
  JAGUAR_RETURN_IF_ERROR(child_->NextBatch(&input));
  static obs::Counter* tuples = TuplesCounter("limit");
  for (size_t i = 0; i < input.size(); ++i) {
    if (remaining_ <= 0) break;
    --remaining_;
    tuples->Add();
    out->Add(std::move(input[i]));
  }
  return Status::OK();
}

}  // namespace exec
}  // namespace jaguar
