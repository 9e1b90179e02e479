#include "engine/binder.h"

#include "common/strings.h"
#include "exec/aggregates.h"

namespace bornsql::engine {
namespace {

using exec::BoundExpr;
using exec::BoundExprPtr;
using exec::BoundKind;

exec::BoundUnaryOp LowerUnary(sql::UnaryOp op) {
  switch (op) {
    case sql::UnaryOp::kNegate:
      return exec::BoundUnaryOp::kNegate;
    case sql::UnaryOp::kNot:
      return exec::BoundUnaryOp::kNot;
    case sql::UnaryOp::kPlus:
      return exec::BoundUnaryOp::kPlus;
  }
  return exec::BoundUnaryOp::kNegate;
}

exec::BoundBinaryOp LowerBinary(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kAdd: return exec::BoundBinaryOp::kAdd;
    case sql::BinaryOp::kSub: return exec::BoundBinaryOp::kSub;
    case sql::BinaryOp::kMul: return exec::BoundBinaryOp::kMul;
    case sql::BinaryOp::kDiv: return exec::BoundBinaryOp::kDiv;
    case sql::BinaryOp::kMod: return exec::BoundBinaryOp::kMod;
    case sql::BinaryOp::kEq: return exec::BoundBinaryOp::kEq;
    case sql::BinaryOp::kNotEq: return exec::BoundBinaryOp::kNotEq;
    case sql::BinaryOp::kLt: return exec::BoundBinaryOp::kLt;
    case sql::BinaryOp::kLtEq: return exec::BoundBinaryOp::kLtEq;
    case sql::BinaryOp::kGt: return exec::BoundBinaryOp::kGt;
    case sql::BinaryOp::kGtEq: return exec::BoundBinaryOp::kGtEq;
    case sql::BinaryOp::kAnd: return exec::BoundBinaryOp::kAnd;
    case sql::BinaryOp::kOr: return exec::BoundBinaryOp::kOr;
    case sql::BinaryOp::kConcat: return exec::BoundBinaryOp::kConcat;
    case sql::BinaryOp::kLike: return exec::BoundBinaryOp::kLike;
  }
  return exec::BoundBinaryOp::kAdd;
}

// Appends the expression's source span to an error message when the parser
// recorded one. The innermost failing expression wins: once a message
// carries a span, enclosing frames leave it untouched.
Status WithLoc(const Status& st, const sql::SourceLoc& loc) {
  if (st.ok() || !loc.valid() ||
      st.message().find("(at line ") != std::string::npos) {
    return st;
  }
  return Status(st.code(), StrFormat("%s (at line %zu:%zu)",
                                     st.message().c_str(), loc.line,
                                     loc.column));
}

Result<BoundExprPtr> BindExprImpl(const sql::Expr& e, const Schema& schema,
                                  std::span<const Value> args);

}  // namespace

Result<BoundExprPtr> BindExpr(const sql::Expr& e, const Schema& schema,
                              std::span<const Value> args) {
  auto r = BindExprImpl(e, schema, args);
  if (!r.ok()) return WithLoc(r.status(), e.loc);
  return r;
}

namespace {

Result<BoundExprPtr> BindExprImpl(const sql::Expr& e, const Schema& schema,
                                  std::span<const Value> args) {
  auto out = std::make_unique<BoundExpr>();
  switch (e.kind) {
    case sql::ExprKind::kLiteral:
      out->kind = BoundKind::kLiteral;
      out->literal = e.literal;
      return out;
    case sql::ExprKind::kColumnRef: {
      BORNSQL_ASSIGN_OR_RETURN(size_t idx,
                               schema.Resolve(e.qualifier, e.column));
      out->kind = BoundKind::kColumn;
      out->column_index = idx;
      return out;
    }
    case sql::ExprKind::kUnary: {
      out->kind = BoundKind::kUnary;
      out->unary_op = LowerUnary(e.unary_op);
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr child,
                               BindExpr(*e.left, schema, args));
      out->children.push_back(std::move(child));
      return out;
    }
    case sql::ExprKind::kBinary: {
      out->kind = BoundKind::kBinary;
      out->binary_op = LowerBinary(e.binary_op);
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr l, BindExpr(*e.left, schema, args));
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr r,
                               BindExpr(*e.right, schema, args));
      out->children.push_back(std::move(l));
      out->children.push_back(std::move(r));
      return out;
    }
    case sql::ExprKind::kFunctionCall: {
      exec::AggFunc agg;
      if (exec::LookupAggFunc(e.func_name, &agg)) {
        return Status::BindError("aggregate function " + e.func_name +
                                 "() is not allowed in this context");
      }
      BORNSQL_ASSIGN_OR_RETURN(
          exec::ScalarFunc func,
          exec::LookupScalarFunc(e.func_name, e.args.size()));
      out->kind = BoundKind::kCall;
      out->func = func;
      for (const auto& arg : e.args) {
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*arg, schema, args));
        out->children.push_back(std::move(b));
      }
      return out;
    }
    case sql::ExprKind::kWindow:
      return Status::BindError("window function " + e.func_name +
                               "() is not allowed in this context");
    case sql::ExprKind::kStar:
      return Status::BindError("'*' is only allowed inside COUNT(*)");
    case sql::ExprKind::kCase: {
      out->kind = BoundKind::kCase;
      for (const auto& [when, then] : e.when_clauses) {
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr w, BindExpr(*when, schema, args));
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr t, BindExpr(*then, schema, args));
        out->children.push_back(std::move(w));
        out->children.push_back(std::move(t));
      }
      if (e.else_clause) {
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr el,
                                 BindExpr(*e.else_clause, schema, args));
        out->children.push_back(std::move(el));
        out->has_else = true;
      }
      return out;
    }
    case sql::ExprKind::kIsNull: {
      out->kind = BoundKind::kIsNull;
      out->negated = e.negated;
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr child,
                               BindExpr(*e.left, schema, args));
      out->children.push_back(std::move(child));
      return out;
    }
    case sql::ExprKind::kScalarSubquery:
    case sql::ExprKind::kInSubquery:
    case sql::ExprKind::kExists:
      return Status::BindError(
          "subqueries are only supported where the planner can fold them "
          "(uncorrelated, in SELECT/UPDATE/DELETE expressions)");
    case sql::ExprKind::kParameter:
      if (!args.empty()) {
        if (e.param_index == 0 || e.param_index > args.size()) {
          return Status::Internal(
              StrFormat("parameter $%zu out of range (have %zu arguments)",
                        e.param_index, args.size()));
        }
        out->kind = BoundKind::kLiteral;
        out->literal = args[e.param_index - 1];
        return out;
      }
      // Without arguments a parameter binds like a literal (no schema
      // dependency) so optimizer rules treat parameterized predicates
      // exactly like constant ones; evaluating it is an error
      // (exec/evaluator.cc).
      out->kind = BoundKind::kParameter;
      out->column_index = e.param_index;
      return out;
    case sql::ExprKind::kInSet: {
      out->kind = BoundKind::kInSet;
      out->negated = e.negated;
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr subject,
                               BindExpr(*e.left, schema, args));
      out->children.push_back(std::move(subject));
      auto set = std::make_shared<exec::ValueSet>();
      for (const Value& v : e.set_values) {
        if (v.is_null()) {
          set->has_null = true;
        } else {
          set->values.insert(v);
        }
      }
      out->in_set = std::move(set);
      return out;
    }
    case sql::ExprKind::kInList: {
      out->kind = BoundKind::kInList;
      out->negated = e.negated;
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr subject,
                               BindExpr(*e.left, schema, args));
      out->children.push_back(std::move(subject));
      for (const auto& item : e.args) {
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*item, schema, args));
        out->children.push_back(std::move(b));
      }
      return out;
    }
  }
  return Status::Internal("bad expression kind in binder");
}

}  // namespace

bool BindsTo(const sql::Expr& expr, const Schema& schema) {
  return BindExpr(expr, schema).ok();
}

void SplitConjuncts(sql::ExprPtr expr, std::vector<sql::ExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind == sql::ExprKind::kBinary &&
      expr->binary_op == sql::BinaryOp::kAnd) {
    SplitConjuncts(std::move(expr->left), out);
    SplitConjuncts(std::move(expr->right), out);
    return;
  }
  out->push_back(std::move(expr));
}

bool ExprEquals(const sql::Expr& a, const sql::Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case sql::ExprKind::kLiteral:
      if (a.literal.is_null() != b.literal.is_null()) return false;
      if (a.literal.is_null()) return true;
      return a.literal.type() == b.literal.type() &&
             Value::Compare(a.literal, b.literal) == 0;
    case sql::ExprKind::kColumnRef:
      return EqualsIgnoreCase(a.qualifier, b.qualifier) &&
             EqualsIgnoreCase(a.column, b.column);
    case sql::ExprKind::kUnary:
      return a.unary_op == b.unary_op && ExprEquals(*a.left, *b.left);
    case sql::ExprKind::kBinary:
      return a.binary_op == b.binary_op && ExprEquals(*a.left, *b.left) &&
             ExprEquals(*a.right, *b.right);
    case sql::ExprKind::kFunctionCall:
    case sql::ExprKind::kWindow: {
      if (!EqualsIgnoreCase(a.func_name, b.func_name)) return false;
      if (a.args.size() != b.args.size()) return false;
      for (size_t i = 0; i < a.args.size(); ++i) {
        if (!ExprEquals(*a.args[i], *b.args[i])) return false;
      }
      if (a.kind == sql::ExprKind::kWindow) {
        if (a.partition_by.size() != b.partition_by.size()) return false;
        for (size_t i = 0; i < a.partition_by.size(); ++i) {
          if (!ExprEquals(*a.partition_by[i], *b.partition_by[i])) return false;
        }
        if (a.window_order_by.size() != b.window_order_by.size()) return false;
        for (size_t i = 0; i < a.window_order_by.size(); ++i) {
          if (a.window_order_by[i].second != b.window_order_by[i].second ||
              !ExprEquals(*a.window_order_by[i].first,
                          *b.window_order_by[i].first)) {
            return false;
          }
        }
      }
      return true;
    }
    case sql::ExprKind::kStar:
      return true;
    case sql::ExprKind::kCase: {
      if (a.when_clauses.size() != b.when_clauses.size()) return false;
      for (size_t i = 0; i < a.when_clauses.size(); ++i) {
        if (!ExprEquals(*a.when_clauses[i].first, *b.when_clauses[i].first) ||
            !ExprEquals(*a.when_clauses[i].second,
                        *b.when_clauses[i].second)) {
          return false;
        }
      }
      if ((a.else_clause == nullptr) != (b.else_clause == nullptr)) {
        return false;
      }
      return a.else_clause == nullptr ||
             ExprEquals(*a.else_clause, *b.else_clause);
    }
    case sql::ExprKind::kIsNull:
      return a.negated == b.negated && ExprEquals(*a.left, *b.left);
    case sql::ExprKind::kInList: {
      if (a.negated != b.negated) return false;
      if (!ExprEquals(*a.left, *b.left)) return false;
      if (a.args.size() != b.args.size()) return false;
      for (size_t i = 0; i < a.args.size(); ++i) {
        if (!ExprEquals(*a.args[i], *b.args[i])) return false;
      }
      return true;
    }
    case sql::ExprKind::kScalarSubquery:
    case sql::ExprKind::kInSubquery:
    case sql::ExprKind::kExists:
    case sql::ExprKind::kInSet:
      // Subquery nodes are folded before any rewrite that relies on
      // structural equality; never treat two of them as interchangeable.
      return false;
    case sql::ExprKind::kParameter:
      return a.param_index == b.param_index;
  }
  return false;
}

bool ContainsAggregate(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kFunctionCall) {
    exec::AggFunc agg;
    if (exec::LookupAggFunc(e.func_name, &agg)) return true;
  }
  if (e.kind == sql::ExprKind::kWindow) {
    // A window call's arguments evaluate per-row, not as group aggregates.
    return false;
  }
  if (e.left && ContainsAggregate(*e.left)) return true;
  if (e.right && ContainsAggregate(*e.right)) return true;
  for (const auto& a : e.args) {
    if (ContainsAggregate(*a)) return true;
  }
  for (const auto& [w, t] : e.when_clauses) {
    if (ContainsAggregate(*w) || ContainsAggregate(*t)) return true;
  }
  if (e.else_clause && ContainsAggregate(*e.else_clause)) return true;
  return false;
}

bool ContainsWindow(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kWindow) return true;
  if (e.left && ContainsWindow(*e.left)) return true;
  if (e.right && ContainsWindow(*e.right)) return true;
  for (const auto& a : e.args) {
    if (ContainsWindow(*a)) return true;
  }
  for (const auto& [w, t] : e.when_clauses) {
    if (ContainsWindow(*w) || ContainsWindow(*t)) return true;
  }
  if (e.else_clause && ContainsWindow(*e.else_clause)) return true;
  return false;
}

Result<Value> EvalConstExpr(const sql::Expr& expr,
                            std::span<const Value> args) {
  BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr bound,
                           BindExpr(expr, Schema(), args));
  exec::DataChunk one_row;  // no columns, one row
  one_row.SetCardinality(1);
  std::vector<Value> out;
  BORNSQL_RETURN_IF_ERROR(exec::EvalChunk(*bound, one_row, &out));
  return out[0];
}

bool IsEquiPair(const sql::Expr& e, const Schema& left, const Schema& right,
                const sql::Expr** lexpr, const sql::Expr** rexpr) {
  if (e.kind != sql::ExprKind::kBinary ||
      e.binary_op != sql::BinaryOp::kEq) {
    return false;
  }
  if (BindsTo(*e.left, left) && BindsTo(*e.right, right)) {
    *lexpr = e.left.get();
    *rexpr = e.right.get();
    return true;
  }
  if (BindsTo(*e.left, right) && BindsTo(*e.right, left)) {
    *lexpr = e.right.get();
    *rexpr = e.left.get();
    return true;
  }
  return false;
}

}  // namespace bornsql::engine
