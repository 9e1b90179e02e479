#include "engine/parameters.h"

#include <functional>
#include <unordered_set>
#include <utility>

#include "common/strings.h"

namespace bornsql::engine {
namespace {

using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;
using sql::Statement;

// Same convention as the binder's span helper: the innermost frame that
// attaches a span wins.
Status WithSpan(const Status& st, const sql::SourceLoc& loc) {
  if (st.ok() || !loc.valid() ||
      st.message().find("(at line ") != std::string::npos) {
    return st;
  }
  return Status(st.code(), StrFormat("%s (at line %zu:%zu)",
                                     st.message().c_str(), loc.line,
                                     loc.column));
}

// The canonical walk. Every consumer of parameter or literal ordering in
// this module goes through these three functions, so insert (PREPARE,
// auto-parameterize) and lookup (EXECUTE, cache key) always agree. The
// visit order is pre-order over struct fields, which matches source order
// for parser-built trees (binaries are left-associative, clause fields are
// declared in clause order).
//
// `ordinal_sensitive` is true inside the positions the plan builder treats
// positionally or const-evaluates at build time: ORDER BY keys, LIMIT and
// OFFSET of each SELECT (including nested ones, each for itself).
using Visitor = std::function<void(Expr*, bool ordinal_sensitive)>;

void WalkSelect(SelectStmt* s, const Visitor& fn);

void WalkExpr(Expr* e, bool os, const Visitor& fn) {
  if (e == nullptr) return;
  fn(e, os);
  if (e->left) WalkExpr(e->left.get(), os, fn);
  if (e->right) WalkExpr(e->right.get(), os, fn);
  for (auto& a : e->args) WalkExpr(a.get(), os, fn);
  for (auto& p : e->partition_by) WalkExpr(p.get(), os, fn);
  for (auto& [oe, desc] : e->window_order_by) WalkExpr(oe.get(), os, fn);
  for (auto& [when, then] : e->when_clauses) {
    WalkExpr(when.get(), os, fn);
    WalkExpr(then.get(), os, fn);
  }
  if (e->else_clause) WalkExpr(e->else_clause.get(), os, fn);
  if (e->subquery) WalkSelect(e->subquery.get(), fn);
}

void WalkSelect(SelectStmt* s, const Visitor& fn) {
  if (s == nullptr) return;
  for (auto& cte : s->ctes) WalkSelect(cte.select.get(), fn);
  for (auto& core : s->cores) {
    for (auto& item : core.items) WalkExpr(item.expr.get(), false, fn);
    for (auto& ref : core.from) {
      if (ref.subquery) WalkSelect(ref.subquery.get(), fn);
      WalkExpr(ref.join_condition.get(), false, fn);
    }
    WalkExpr(core.where.get(), false, fn);
    for (auto& g : core.group_by) WalkExpr(g.get(), false, fn);
    WalkExpr(core.having.get(), false, fn);
  }
  for (auto& o : s->order_by) WalkExpr(o.expr.get(), true, fn);
  WalkExpr(s->limit.get(), true, fn);
  WalkExpr(s->offset.get(), true, fn);
}

void WalkStatement(Statement* stmt, const Visitor& fn) {
  if (stmt == nullptr) return;
  switch (stmt->kind) {
    case sql::StatementKind::kSelect:
      WalkSelect(stmt->select.get(), fn);
      break;
    case sql::StatementKind::kInsert:
      for (auto& row : stmt->insert->values) {
        for (auto& cell : row) WalkExpr(cell.get(), false, fn);
      }
      WalkSelect(stmt->insert->select.get(), fn);
      if (stmt->insert->on_conflict) {
        for (auto& [col, expr] : stmt->insert->on_conflict->set_clauses) {
          WalkExpr(expr.get(), false, fn);
        }
      }
      break;
    case sql::StatementKind::kUpdate:
      for (auto& [col, expr] : stmt->update->set_clauses) {
        WalkExpr(expr.get(), false, fn);
      }
      WalkExpr(stmt->update->where.get(), false, fn);
      break;
    case sql::StatementKind::kDelete:
      WalkExpr(stmt->del->where.get(), false, fn);
      break;
    default:
      // Other kinds never carry placeholders (the parser restricts PREPARE
      // bodies, and callers gate on cacheable kinds before walking).
      break;
  }
}

// Numbered parameters beyond this are rejected: the slot vector is sized by
// the highest ordinal, so an absurd $n would otherwise allocate absurdly.
constexpr size_t kMaxParameters = 1000;

}  // namespace

Result<std::vector<ParameterSlot>> AnalyzeParameters(sql::Statement* stmt) {
  std::vector<Expr*> params;
  WalkStatement(stmt, [&](Expr* e, bool) {
    if (e->kind == ExprKind::kParameter) params.push_back(e);
  });
  if (params.empty()) return std::vector<ParameterSlot>{};

  bool any_bare = false;
  bool any_numbered = false;
  for (const Expr* p : params) {
    (p->param_index == 0 ? any_bare : any_numbered) = true;
  }
  if (any_bare && any_numbered) {
    return WithSpan(
        Status::InvalidArgument(
            "cannot mix '?' and '$n' parameter styles in one statement"),
        params.front()->loc);
  }

  std::vector<ParameterSlot> slots;
  if (any_bare) {
    if (params.size() > kMaxParameters) {
      return Status::InvalidArgument(
          StrFormat("too many parameters (%zu; limit %zu)", params.size(),
                    kMaxParameters));
    }
    slots.resize(params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->param_index = i + 1;
      slots[i].loc = params[i]->loc;
    }
    return slots;
  }

  size_t max_ordinal = 0;
  for (const Expr* p : params) {
    if (p->param_index > kMaxParameters) {
      return WithSpan(Status::InvalidArgument(
                          StrFormat("parameter number $%zu out of range "
                                    "(limit $%zu)",
                                    p->param_index, kMaxParameters)),
                      p->loc);
    }
    if (p->param_index > max_ordinal) max_ordinal = p->param_index;
  }
  slots.resize(max_ordinal);
  std::vector<char> seen(max_ordinal, 0);
  for (const Expr* p : params) {
    size_t i = p->param_index - 1;
    if (!seen[i]) {
      seen[i] = 1;
      slots[i].loc = p->loc;
    }
  }
  for (size_t i = 0; i < max_ordinal; ++i) {
    if (!seen[i]) {
      return WithSpan(
          Status::InvalidArgument(StrFormat(
              "parameter $%zu is never used: numbered parameters must "
              "cover $1..$%zu without gaps",
              i + 1, max_ordinal)),
          params.front()->loc);
    }
  }
  return slots;
}

void InferParameterTypes(const sql::Statement& stmt,
                         const catalog::Catalog& catalog,
                         std::vector<ParameterSlot>* slots) {
  if (slots->empty()) return;
  auto* mut = const_cast<Statement*>(&stmt);  // walk only; never mutated here

  // Tables the statement can reference, for column-type lookup. CTE and
  // derived-table names are not resolved (best-effort inference only).
  std::vector<const storage::Table*> tables;
  std::unordered_set<const storage::Table*> dedup;
  auto add_table = [&](const std::string& name) {
    auto t = catalog.GetTable(name);
    if (t.ok() && dedup.insert(*t).second) tables.push_back(*t);
  };
  std::function<void(const SelectStmt*)> add_select_tables =
      [&](const SelectStmt* s) {
        if (s == nullptr) return;
        for (const auto& cte : s->ctes) add_select_tables(cte.select.get());
        for (const auto& core : s->cores) {
          for (const auto& ref : core.from) {
            if (!ref.table_name.empty()) add_table(ref.table_name);
            add_select_tables(ref.subquery.get());
          }
        }
      };
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      add_select_tables(stmt.select.get());
      break;
    case sql::StatementKind::kInsert:
      add_table(stmt.insert->table);
      add_select_tables(stmt.insert->select.get());
      break;
    case sql::StatementKind::kUpdate:
      add_table(stmt.update->table);
      break;
    case sql::StatementKind::kDelete:
      add_table(stmt.del->table);
      break;
    default:
      break;
  }

  // First unambiguous inference wins; a conflicting second source resets
  // the slot to dynamic for good (coercing to either side could be wrong).
  std::vector<char> conflicted(slots->size(), 0);
  auto note = [&](size_t ordinal, ValueType t) {
    if (ordinal == 0 || ordinal > slots->size()) return;
    if (t == ValueType::kNull || conflicted[ordinal - 1]) return;
    ParameterSlot& slot = (*slots)[ordinal - 1];
    if (slot.type == ValueType::kNull) {
      slot.type = t;
    } else if (slot.type != t) {
      slot.type = ValueType::kNull;
      conflicted[ordinal - 1] = 1;
    }
  };
  auto column_type = [&](const Expr& col) -> ValueType {
    ValueType found = ValueType::kNull;
    for (const storage::Table* t : tables) {
      size_t i = t->schema().FindUnqualified(col.column);
      if (i == Schema::kNpos) continue;
      ValueType ct = t->schema().column(i).type;
      if (ct == ValueType::kNull) continue;
      if (found == ValueType::kNull) {
        found = ct;
      } else if (found != ct) {
        return ValueType::kNull;  // ambiguous across tables
      }
    }
    return found;
  };

  // INSERT VALUES: a placeholder cell takes its column's declared type.
  if (stmt.kind == sql::StatementKind::kInsert && !tables.empty()) {
    const Schema& schema = tables.front()->schema();
    const auto& cols = stmt.insert->columns;
    for (const auto& row : stmt.insert->values) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (row[i] == nullptr || row[i]->kind != ExprKind::kParameter) {
          continue;
        }
        ValueType t = ValueType::kNull;
        if (cols.empty()) {
          if (i < schema.size()) t = schema.column(i).type;
        } else {
          size_t ci = schema.FindUnqualified(cols[i]);
          if (ci != Schema::kNpos) t = schema.column(ci).type;
        }
        note(row[i]->param_index, t);
      }
    }
  }

  // UPDATE SET col = ?: the target column's declared type.
  if (stmt.kind == sql::StatementKind::kUpdate && !tables.empty()) {
    const Schema& schema = tables.front()->schema();
    for (const auto& [col, expr] : stmt.update->set_clauses) {
      if (expr && expr->kind == ExprKind::kParameter) {
        size_t ci = schema.FindUnqualified(col);
        if (ci != Schema::kNpos) {
          note(expr->param_index, schema.column(ci).type);
        }
      }
    }
  }

  // Comparisons of a column against a placeholder, anywhere in the tree.
  WalkStatement(mut, [&](Expr* e, bool) {
    if (e->kind == ExprKind::kBinary) {
      const Expr* col = nullptr;
      const Expr* param = nullptr;
      if (e->left && e->right) {
        if (e->left->kind == ExprKind::kColumnRef &&
            e->right->kind == ExprKind::kParameter) {
          col = e->left.get();
          param = e->right.get();
        } else if (e->right->kind == ExprKind::kColumnRef &&
                   e->left->kind == ExprKind::kParameter) {
          col = e->right.get();
          param = e->left.get();
        }
      }
      if (col == nullptr) return;
      switch (e->binary_op) {
        case sql::BinaryOp::kEq:
        case sql::BinaryOp::kNotEq:
        case sql::BinaryOp::kLt:
        case sql::BinaryOp::kLtEq:
        case sql::BinaryOp::kGt:
        case sql::BinaryOp::kGtEq:
          note(param->param_index, column_type(*col));
          break;
        case sql::BinaryOp::kLike:
          note(param->param_index, ValueType::kText);
          break;
        default:
          break;
      }
    } else if (e->kind == ExprKind::kInList && e->left &&
               e->left->kind == ExprKind::kColumnRef) {
      ValueType t = column_type(*e->left);
      for (const auto& a : e->args) {
        if (a->kind == ExprKind::kParameter) note(a->param_index, t);
      }
    }
  });
}

Result<std::vector<Value>> CoerceArguments(
    const std::vector<ParameterSlot>& slots, const std::string& name,
    std::vector<Value> args) {
  if (args.size() != slots.size()) {
    return Status::InvalidArgument(StrFormat(
        "prepared statement '%s' expects %zu parameter%s, got %zu",
        name.c_str(), slots.size(), slots.size() == 1 ? "" : "s",
        args.size()));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    const ParameterSlot& slot = slots[i];
    if (slot.type == ValueType::kNull || args[i].is_null()) continue;
    auto coerced = args[i].CoerceTo(slot.type);
    if (!coerced.ok()) {
      return WithSpan(
          Status(coerced.status().code(),
                 StrFormat("parameter $%zu of prepared statement '%s' "
                           "expects %s: %s",
                           i + 1, name.c_str(), ValueTypeName(slot.type),
                           coerced.status().message().c_str())),
          slot.loc);
    }
    args[i] = std::move(*coerced);
  }
  return args;
}

bool HasParameters(const sql::Statement& stmt) {
  bool found = false;
  WalkStatement(const_cast<Statement*>(&stmt), [&](Expr* e, bool) {
    if (e->kind == ExprKind::kParameter) found = true;
  });
  return found;
}

bool IsCacheable(const sql::Statement& stmt) {
  if (stmt.kind != sql::StatementKind::kSelect) return false;
  bool cacheable = true;
  WalkStatement(const_cast<Statement*>(&stmt), [&](Expr* e, bool os) {
    const bool subquery = e->kind == ExprKind::kScalarSubquery ||
                          e->kind == ExprKind::kInSubquery ||
                          e->kind == ExprKind::kExists;
    if (subquery || (os && e->kind == ExprKind::kParameter)) {
      cacheable = false;
    }
  });
  return cacheable;
}

size_t ParameterizeLiterals(sql::Statement* stmt, std::vector<Value>* args) {
  size_t count = 0;
  WalkStatement(stmt, [&](Expr* e, bool ordinal_sensitive) {
    if (ordinal_sensitive || e->kind != ExprKind::kLiteral) return;
    // Only literals with a source span (planner-synthesized nodes stay
    // put) and a non-NULL value (NULL often changes plan shape through
    // const-folding, and "= NULL" is a no-match anyway).
    if (!e->loc.valid() || e->literal.is_null()) return;
    if (args->size() >= kMaxParameters) return;
    args->push_back(e->literal);
    e->literal = Value();
    e->kind = ExprKind::kParameter;
    e->param_index = args->size();
    ++count;
  });
  return count;
}

std::string KeptLiteralSuffix(const sql::Statement& stmt) {
  std::string out;
  WalkStatement(const_cast<Statement*>(&stmt), [&](Expr* e, bool) {
    if (e->kind != ExprKind::kLiteral) return;
    if (!out.empty()) out += ',';
    const Value& v = e->literal;
    switch (v.type()) {
      case ValueType::kNull:
        out += 'n';
        break;
      case ValueType::kInt:
        out += StrFormat("i%lld", static_cast<long long>(v.AsInt()));
        break;
      case ValueType::kDouble:
        out += 'd';
        out += v.ToString();
        break;
      case ValueType::kText:
        // Length-prefixed so text containing ',' cannot alias another key.
        out += StrFormat("t%zu:%s", v.AsText().size(), v.AsText().c_str());
        break;
    }
  });
  return out;
}

}  // namespace bornsql::engine
