#include "exec/expression.h"

#include "common/string_util.h"

namespace jaguar {
namespace exec {

namespace {

bool IsNumeric(TypeId t) {
  return t == TypeId::kInt || t == TypeId::kDouble || t == TypeId::kBool;
}

bool IsComparisonOp(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kEq:
    case sql::BinaryOp::kNe:
    case sql::BinaryOp::kLt:
    case sql::BinaryOp::kLe:
    case sql::BinaryOp::kGt:
    case sql::BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsLogicalOp(sql::BinaryOp op) {
  return op == sql::BinaryOp::kAnd || op == sql::BinaryOp::kOr;
}

}  // namespace

Result<BoundExprPtr> Bind(const sql::Expr& expr, const Schema& schema,
                          const std::string& table_name,
                          const std::string& table_alias,
                          UdfResolver* resolver) {
  auto bound = std::make_unique<BoundExpr>();
  switch (expr.kind) {
    case sql::ExprKind::kLiteral: {
      bound->kind = BoundExprKind::kLiteral;
      bound->literal = expr.literal;
      bound->result_type = expr.literal.type();
      return bound;
    }
    case sql::ExprKind::kColumnRef: {
      if (!expr.qualifier.empty() &&
          !EqualsIgnoreCase(expr.qualifier, table_alias) &&
          !EqualsIgnoreCase(expr.qualifier, table_name)) {
        return InvalidArgument("unknown table qualifier '" + expr.qualifier +
                               "'");
      }
      bound->kind = BoundExprKind::kColumn;
      JAGUAR_ASSIGN_OR_RETURN(bound->column_index, schema.IndexOf(expr.column));
      bound->result_type = schema.column(bound->column_index).type;
      return bound;
    }
    case sql::ExprKind::kUnary: {
      bound->kind = BoundExprKind::kUnary;
      bound->unary_op = expr.unary_op;
      JAGUAR_ASSIGN_OR_RETURN(
          bound->left,
          Bind(*expr.left, schema, table_name, table_alias, resolver));
      if (expr.unary_op == sql::UnaryOp::kNeg) {
        if (!IsNumeric(bound->left->result_type) &&
            bound->left->result_type != TypeId::kNull) {
          return InvalidArgument("cannot negate " +
                                 std::string(TypeIdToString(
                                     bound->left->result_type)));
        }
        bound->result_type = bound->left->result_type;
      } else {
        bound->result_type = TypeId::kBool;
      }
      return bound;
    }
    case sql::ExprKind::kBinary: {
      bound->kind = BoundExprKind::kBinary;
      bound->binary_op = expr.binary_op;
      JAGUAR_ASSIGN_OR_RETURN(
          bound->left,
          Bind(*expr.left, schema, table_name, table_alias, resolver));
      JAGUAR_ASSIGN_OR_RETURN(
          bound->right,
          Bind(*expr.right, schema, table_name, table_alias, resolver));
      TypeId lt = bound->left->result_type;
      TypeId rt = bound->right->result_type;
      if (IsComparisonOp(expr.binary_op) || IsLogicalOp(expr.binary_op)) {
        bound->result_type = TypeId::kBool;
      } else {
        // Arithmetic.
        if ((!IsNumeric(lt) && lt != TypeId::kNull) ||
            (!IsNumeric(rt) && rt != TypeId::kNull)) {
          return InvalidArgument(
              StringPrintf("cannot apply %s to %s and %s",
                           sql::BinaryOpToString(expr.binary_op),
                           TypeIdToString(lt), TypeIdToString(rt)));
        }
        bound->result_type =
            (lt == TypeId::kDouble || rt == TypeId::kDouble) ? TypeId::kDouble
                                                             : TypeId::kInt;
      }
      return bound;
    }
    case sql::ExprKind::kFunctionCall: {
      if (resolver == nullptr) {
        return NotSupported("function calls are not available here: " +
                            expr.function);
      }
      bound->kind = BoundExprKind::kCall;
      bound->function_name = expr.function;
      std::vector<TypeId> arg_types;
      JAGUAR_ASSIGN_OR_RETURN(
          bound->runner,
          resolver->Resolve(expr.function, &bound->result_type, &arg_types));
      if (expr.args.size() != arg_types.size()) {
        return InvalidArgument(StringPrintf(
            "function %s expects %zu arguments, got %zu",
            expr.function.c_str(), arg_types.size(), expr.args.size()));
      }
      for (const sql::ExprPtr& arg : expr.args) {
        JAGUAR_ASSIGN_OR_RETURN(
            BoundExprPtr bound_arg,
            Bind(*arg, schema, table_name, table_alias, resolver));
        bound->args.push_back(std::move(bound_arg));
      }
      return bound;
    }
  }
  return Internal("unhandled expression kind");
}

namespace {

Result<Value> EvalArithmetic(sql::BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (l.type() == TypeId::kDouble || r.type() == TypeId::kDouble) {
    JAGUAR_ASSIGN_OR_RETURN(double a, l.CoerceDouble());
    JAGUAR_ASSIGN_OR_RETURN(double b, r.CoerceDouble());
    switch (op) {
      case sql::BinaryOp::kAdd: return Value::Double(a + b);
      case sql::BinaryOp::kSub: return Value::Double(a - b);
      case sql::BinaryOp::kMul: return Value::Double(a * b);
      case sql::BinaryOp::kDiv:
        if (b == 0.0) return RuntimeError("division by zero");
        return Value::Double(a / b);
      case sql::BinaryOp::kMod:
        return InvalidArgument("%% is not defined for DOUBLE");
      default: break;
    }
  } else {
    JAGUAR_ASSIGN_OR_RETURN(int64_t a, l.CoerceInt());
    JAGUAR_ASSIGN_OR_RETURN(int64_t b, r.CoerceInt());
    // Integer arithmetic wraps on overflow (two's complement), computed in
    // the unsigned domain so the wrap is defined behavior.
    const uint64_t ua = static_cast<uint64_t>(a);
    const uint64_t ub = static_cast<uint64_t>(b);
    switch (op) {
      case sql::BinaryOp::kAdd:
        return Value::Int(static_cast<int64_t>(ua + ub));
      case sql::BinaryOp::kSub:
        return Value::Int(static_cast<int64_t>(ua - ub));
      case sql::BinaryOp::kMul:
        return Value::Int(static_cast<int64_t>(ua * ub));
      case sql::BinaryOp::kDiv:
        if (b == 0) return RuntimeError("division by zero");
        if (b == -1) return Value::Int(static_cast<int64_t>(-ua));
        return Value::Int(a / b);
      case sql::BinaryOp::kMod:
        if (b == 0) return RuntimeError("modulo by zero");
        if (b == -1) return Value::Int(0);
        return Value::Int(a % b);
      default: break;
    }
  }
  return Internal("unhandled arithmetic op");
}

Result<Value> EvalComparison(sql::BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (op == sql::BinaryOp::kEq) return Value::Bool(l.Equals(r));
  if (op == sql::BinaryOp::kNe) return Value::Bool(!l.Equals(r));
  JAGUAR_ASSIGN_OR_RETURN(int c, l.Compare(r));
  switch (op) {
    case sql::BinaryOp::kLt: return Value::Bool(c < 0);
    case sql::BinaryOp::kLe: return Value::Bool(c <= 0);
    case sql::BinaryOp::kGt: return Value::Bool(c > 0);
    case sql::BinaryOp::kGe: return Value::Bool(c >= 0);
    default: break;
  }
  return Internal("unhandled comparison op");
}

/// Three-valued logic per SQL. NULL is "unknown".
Result<Value> EvalLogical(sql::BinaryOp op, const BoundExpr& le,
                          const BoundExpr& re, const Tuple& tuple,
                          UdfContext* ctx) {
  JAGUAR_ASSIGN_OR_RETURN(Value l, Eval(le, tuple, ctx));
  auto as_tristate = [](const Value& v) -> Result<int> {
    if (v.is_null()) return -1;  // unknown
    if (v.type() != TypeId::kBool) {
      return InvalidArgument("logical operand is not BOOL");
    }
    return v.AsBool() ? 1 : 0;
  };
  JAGUAR_ASSIGN_OR_RETURN(int lt, as_tristate(l));
  if (op == sql::BinaryOp::kAnd && lt == 0) return Value::Bool(false);
  if (op == sql::BinaryOp::kOr && lt == 1) return Value::Bool(true);
  JAGUAR_ASSIGN_OR_RETURN(Value r, Eval(re, tuple, ctx));
  JAGUAR_ASSIGN_OR_RETURN(int rt, as_tristate(r));
  if (op == sql::BinaryOp::kAnd) {
    if (rt == 0) return Value::Bool(false);
    if (lt == -1 || rt == -1) return Value::Null();
    return Value::Bool(true);
  }
  if (rt == 1) return Value::Bool(true);
  if (lt == -1 || rt == -1) return Value::Null();
  return Value::Bool(false);
}

}  // namespace

Result<Value> Eval(const BoundExpr& expr, const Tuple& tuple, UdfContext* ctx) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
      return expr.literal;
    case BoundExprKind::kColumn:
      if (expr.column_index >= tuple.num_values()) {
        return Internal("column index out of range");
      }
      return tuple.value(expr.column_index);
    case BoundExprKind::kUnary: {
      JAGUAR_ASSIGN_OR_RETURN(Value v, Eval(*expr.left, tuple, ctx));
      if (v.is_null()) return Value::Null();
      if (expr.unary_op == sql::UnaryOp::kNeg) {
        if (v.type() == TypeId::kDouble) return Value::Double(-v.AsDouble());
        JAGUAR_ASSIGN_OR_RETURN(int64_t i, v.CoerceInt());
        return Value::Int(static_cast<int64_t>(-static_cast<uint64_t>(i)));
      }
      if (v.type() != TypeId::kBool) {
        return InvalidArgument("NOT operand is not BOOL");
      }
      return Value::Bool(!v.AsBool());
    }
    case BoundExprKind::kBinary: {
      if (IsLogicalOp(expr.binary_op)) {
        return EvalLogical(expr.binary_op, *expr.left, *expr.right, tuple,
                           ctx);
      }
      JAGUAR_ASSIGN_OR_RETURN(Value l, Eval(*expr.left, tuple, ctx));
      JAGUAR_ASSIGN_OR_RETURN(Value r, Eval(*expr.right, tuple, ctx));
      if (IsComparisonOp(expr.binary_op)) {
        return EvalComparison(expr.binary_op, l, r);
      }
      return EvalArithmetic(expr.binary_op, l, r);
    }
    case BoundExprKind::kCall: {
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const BoundExprPtr& arg : expr.args) {
        JAGUAR_ASSIGN_OR_RETURN(Value v, Eval(*arg, tuple, ctx));
        args.push_back(std::move(v));
      }
      return expr.runner->Invoke(args, ctx);
    }
  }
  return Internal("unhandled bound expression kind");
}

Result<bool> EvalPredicate(const BoundExpr& expr, const Tuple& tuple,
                           UdfContext* ctx) {
  JAGUAR_ASSIGN_OR_RETURN(Value v, Eval(expr, tuple, ctx));
  if (v.is_null()) return false;
  if (v.type() != TypeId::kBool) {
    return InvalidArgument("WHERE clause is not a boolean expression");
  }
  return v.AsBool();
}

Result<std::vector<Value>> EvalBatch(const BoundExpr& expr,
                                     const std::vector<Tuple>& tuples,
                                     UdfContext* ctx) {
  std::vector<Value> out;
  out.reserve(tuples.size());
  switch (expr.kind) {
    case BoundExprKind::kCall: {
      // The batching payoff: evaluate each argument expression over the
      // whole batch, transpose to per-tuple argument rows, and cross into
      // the UDF once for all of them.
      std::vector<std::vector<Value>> arg_columns;
      arg_columns.reserve(expr.args.size());
      for (const BoundExprPtr& arg : expr.args) {
        JAGUAR_ASSIGN_OR_RETURN(std::vector<Value> column,
                                EvalBatch(*arg, tuples, ctx));
        arg_columns.push_back(std::move(column));
      }
      std::vector<std::vector<Value>> args_batch(tuples.size());
      for (size_t row = 0; row < tuples.size(); ++row) {
        args_batch[row].reserve(arg_columns.size());
        for (std::vector<Value>& column : arg_columns) {
          args_batch[row].push_back(std::move(column[row]));
        }
      }
      return expr.runner->InvokeBatch(args_batch, ctx);
    }
    case BoundExprKind::kBinary:
      if (IsLogicalOp(expr.binary_op)) break;  // per-tuple (short-circuit)
      {
        JAGUAR_ASSIGN_OR_RETURN(std::vector<Value> left,
                                EvalBatch(*expr.left, tuples, ctx));
        JAGUAR_ASSIGN_OR_RETURN(std::vector<Value> right,
                                EvalBatch(*expr.right, tuples, ctx));
        for (size_t row = 0; row < tuples.size(); ++row) {
          Result<Value> v =
              IsComparisonOp(expr.binary_op)
                  ? EvalComparison(expr.binary_op, left[row], right[row])
                  : EvalArithmetic(expr.binary_op, left[row], right[row]);
          JAGUAR_RETURN_IF_ERROR(v.status());
          out.push_back(std::move(*v));
        }
        return out;
      }
    default:
      break;
  }
  // Leaves (literal/column), unary ops and logical ops evaluate per tuple —
  // they cross no boundary, so batching buys nothing, and logical ops must
  // keep their three-valued short-circuit evaluation order.
  for (const Tuple& tuple : tuples) {
    JAGUAR_ASSIGN_OR_RETURN(Value v, Eval(expr, tuple, ctx));
    out.push_back(std::move(v));
  }
  return out;
}

Result<std::vector<Tuple>> ProjectBatch(const std::vector<BoundExprPtr>& exprs,
                                        const std::vector<Tuple>& tuples,
                                        UdfContext* ctx) {
  std::vector<std::vector<Value>> columns;
  columns.reserve(exprs.size());
  for (const BoundExprPtr& e : exprs) {
    JAGUAR_ASSIGN_OR_RETURN(std::vector<Value> column,
                            EvalBatch(*e, tuples, ctx));
    columns.push_back(std::move(column));
  }
  std::vector<Tuple> rows;
  rows.reserve(tuples.size());
  for (size_t row = 0; row < tuples.size(); ++row) {
    std::vector<Value> values;
    values.reserve(columns.size());
    for (std::vector<Value>& column : columns) {
      values.push_back(std::move(column[row]));
    }
    rows.push_back(Tuple(std::move(values)));
  }
  return rows;
}

Status FilterBatch(const BoundExpr& expr, std::vector<Tuple>* tuples,
                   UdfContext* ctx) {
  JAGUAR_ASSIGN_OR_RETURN(std::vector<Value> values,
                          EvalBatch(expr, *tuples, ctx));
  size_t kept = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) continue;
    if (values[i].type() != TypeId::kBool) {
      return InvalidArgument("WHERE clause is not a boolean expression");
    }
    if (!values[i].AsBool()) continue;
    if (kept != i) (*tuples)[kept] = std::move((*tuples)[i]);
    ++kept;
  }
  tuples->resize(kept);
  return Status::OK();
}

}  // namespace exec
}  // namespace jaguar
