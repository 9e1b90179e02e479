#include "sql/ast.h"

namespace bornsql::sql {

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumnRef(std::string qualifier, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->left = std::move(left);
  e->right = std::move(right);
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->left = std::move(operand);
  return e;
}

ExprPtr MakeCall(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunctionCall;
  e->func_name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr CloneExpr(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->loc = e.loc;
  out->literal = e.literal;
  out->qualifier = e.qualifier;
  out->column = e.column;
  out->unary_op = e.unary_op;
  out->binary_op = e.binary_op;
  if (e.left) out->left = CloneExpr(*e.left);
  if (e.right) out->right = CloneExpr(*e.right);
  out->func_name = e.func_name;
  for (const auto& a : e.args) out->args.push_back(CloneExpr(*a));
  for (const auto& p : e.partition_by) out->partition_by.push_back(CloneExpr(*p));
  for (const auto& [ex, desc] : e.window_order_by) {
    out->window_order_by.emplace_back(CloneExpr(*ex), desc);
  }
  for (const auto& [when, then] : e.when_clauses) {
    out->when_clauses.emplace_back(CloneExpr(*when), CloneExpr(*then));
  }
  if (e.else_clause) out->else_clause = CloneExpr(*e.else_clause);
  out->negated = e.negated;
  if (e.subquery) out->subquery = CloneSelect(*e.subquery);
  out->set_values = e.set_values;
  out->param_index = e.param_index;
  return out;
}

SelectCore CloneCore(const SelectCore& core) {
  SelectCore c;
  c.distinct = core.distinct;
  for (const auto& item : core.items) {
    SelectItem si;
    si.is_star = item.is_star;
    si.star_qualifier = item.star_qualifier;
    if (item.expr) si.expr = CloneExpr(*item.expr);
    si.alias = item.alias;
    c.items.push_back(std::move(si));
  }
  for (const auto& ref : core.from) {
    TableRef r;
    r.loc = ref.loc;
    r.table_name = ref.table_name;
    if (ref.subquery) r.subquery = CloneSelect(*ref.subquery);
    r.alias = ref.alias;
    r.join_kind = ref.join_kind;
    if (ref.join_condition) r.join_condition = CloneExpr(*ref.join_condition);
    c.from.push_back(std::move(r));
  }
  if (core.where) c.where = CloneExpr(*core.where);
  for (const auto& g : core.group_by) c.group_by.push_back(CloneExpr(*g));
  if (core.having) c.having = CloneExpr(*core.having);
  return c;
}

std::unique_ptr<SelectStmt> CloneSelect(const SelectStmt& s) {
  auto out = std::make_unique<SelectStmt>();
  for (const auto& cte : s.ctes) {
    CommonTableExpr c;
    c.loc = cte.loc;
    c.name = cte.name;
    c.select = CloneSelect(*cte.select);
    out->ctes.push_back(std::move(c));
  }
  for (const auto& core : s.cores) {
    out->cores.push_back(CloneCore(core));
  }
  for (const auto& o : s.order_by) {
    OrderItem item;
    item.expr = CloneExpr(*o.expr);
    item.desc = o.desc;
    out->order_by.push_back(std::move(item));
  }
  if (s.limit) out->limit = CloneExpr(*s.limit);
  if (s.offset) out->offset = CloneExpr(*s.offset);
  return out;
}

}  // namespace bornsql::sql
