#include "lint/linter.h"

#include <set>
#include <string>
#include <unordered_map>

#include "common/strings.h"
#include "sql/parser.h"

namespace bornsql::lint {
namespace {

using sql::Expr;
using sql::ExprKind;
using sql::SelectCore;
using sql::SelectStmt;
using sql::TableRef;

// The name a FROM item exposes to column qualifiers.
std::string RefQualifier(const TableRef& ref) {
  if (!ref.alias.empty()) return ref.alias;
  return ref.table_name;  // empty for an unaliased subquery
}

// Splits an AND tree into its conjuncts (non-destructively).
void SplitConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary && e.binary_op == sql::BinaryOp::kAnd) {
    SplitConjuncts(*e.left, out);
    SplitConjuncts(*e.right, out);
    return;
  }
  out->push_back(&e);
}

// Walks every sub-expression of `e` without descending into subqueries
// (they are a different name scope).
template <typename Fn>
void ForEachExpr(const Expr& e, const Fn& fn) {
  fn(e);
  if (e.left) ForEachExpr(*e.left, fn);
  if (e.right) ForEachExpr(*e.right, fn);
  for (const auto& a : e.args) ForEachExpr(*a, fn);
  for (const auto& p : e.partition_by) ForEachExpr(*p, fn);
  for (const auto& [ex, desc] : e.window_order_by) ForEachExpr(*ex, fn);
  for (const auto& [w, t] : e.when_clauses) {
    ForEachExpr(*w, fn);
    ForEachExpr(*t, fn);
  }
  if (e.else_clause) ForEachExpr(*e.else_clause, fn);
}

bool ContainsColumn(const Expr& e) {
  bool found = false;
  ForEachExpr(e, [&](const Expr& sub) {
    if (sub.kind == ExprKind::kColumnRef) found = true;
  });
  return found;
}

bool IsComparisonOp(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kEq:
    case sql::BinaryOp::kNotEq:
    case sql::BinaryOp::kLt:
    case sql::BinaryOp::kLtEq:
    case sql::BinaryOp::kGt:
    case sql::BinaryOp::kGtEq:
      return true;
    default:
      return false;
  }
}

bool IsTextType(ValueType t) { return t == ValueType::kText; }
bool IsNumericType(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble;
}

class Linter {
 public:
  explicit Linter(const catalog::Catalog* catalog) : catalog_(catalog) {}

  void LintStmt(const sql::Statement& stmt) {
    switch (stmt.kind) {
      case sql::StatementKind::kSelect:
        LintSelect(*stmt.select);
        break;
      case sql::StatementKind::kExplain:
        LintStmt(*stmt.explained);
        break;
      case sql::StatementKind::kCreateTable:
        if (stmt.create_table->as_select != nullptr) {
          LintSelect(*stmt.create_table->as_select);
        }
        break;
      case sql::StatementKind::kInsert:
        LintInsert(*stmt.insert);
        break;
      case sql::StatementKind::kUpdate:
        if (stmt.update->where == nullptr) {
          Add("BSL007", Severity::kWarning,
              StrFormat("UPDATE on '%s' has no WHERE clause and will touch "
                        "every row",
                        stmt.update->table.c_str()),
              stmt.update->loc);
        }
        break;
      case sql::StatementKind::kDelete:
        if (stmt.del->where == nullptr) {
          Add("BSL007", Severity::kWarning,
              StrFormat("DELETE on '%s' has no WHERE clause and will remove "
                        "every row",
                        stmt.del->table.c_str()),
              stmt.del->loc);
        }
        break;
      default:
        break;
    }
  }

  std::vector<Diagnostic> Take() {
    SortAndDedupe(&diags_);
    return std::move(diags_);
  }

 private:
  void Add(const char* code, Severity sev, std::string message,
           sql::SourceLoc loc) {
    Diagnostic d;
    d.code = code;
    d.severity = sev;
    d.message = std::move(message);
    d.loc = loc;
    diags_.push_back(std::move(d));
  }

  // `nested` marks a derived table or CTE body, where an ORDER BY without
  // LIMIT cannot affect the outer query's result (BSL008).
  void LintSelect(const SelectStmt& s, bool nested = false) {
    for (size_t i = 0; i < s.ctes.size(); ++i) {
      CheckUnusedCte(s, i);
      LintSelect(*s.ctes[i].select, /*nested=*/true);
    }
    for (const SelectCore& core : s.cores) LintCore(core);
    // BSL006: LIMIT picks rows from an unspecified order.
    if (s.limit != nullptr && s.order_by.empty()) {
      Add("BSL006", Severity::kWarning,
          "LIMIT without ORDER BY returns an arbitrary subset of the rows",
          s.limit->loc);
    }
    // BSL008: a subquery's row order is not observable unless LIMIT trims
    // by it, so the sort is pure wasted work.
    if (nested && !s.order_by.empty() && s.limit == nullptr) {
      Add("BSL008", Severity::kWarning,
          "ORDER BY in a derived table or CTE without LIMIT has no effect "
          "and wastes a sort",
          s.order_by[0].expr->loc);
    }
  }

  void LintCore(const SelectCore& core) {
    std::vector<const Expr*> conjuncts;
    if (core.where != nullptr) SplitConjuncts(*core.where, &conjuncts);

    CheckCartesianJoins(core, conjuncts);
    const Scope scope = BuildScope(core);
    for (const Expr* c : conjuncts) {
      CheckNonSargable(*c);
      CheckCoercion(*c, scope);
    }
    for (const TableRef& ref : core.from) {
      if (ref.join_condition != nullptr) {
        std::vector<const Expr*> on;
        SplitConjuncts(*ref.join_condition, &on);
        for (const Expr* c : on) CheckCoercion(*c, scope);
      }
      if (ref.subquery != nullptr) LintSelect(*ref.subquery, /*nested=*/true);
    }
    // Lint subqueries reachable from this core's expressions.
    auto lint_sub = [this](const Expr& e) {
      if (e.subquery != nullptr) LintSelect(*e.subquery);
    };
    for (const sql::SelectItem& item : core.items) {
      if (item.expr) ForEachExpr(*item.expr, lint_sub);
    }
    if (core.where) ForEachExpr(*core.where, lint_sub);
    if (core.having) ForEachExpr(*core.having, lint_sub);
    for (const auto& g : core.group_by) ForEachExpr(*g, lint_sub);
  }

  // ---- BSL001: comma join with no connecting predicate ------------------

  void CheckCartesianJoins(const SelectCore& core,
                           const std::vector<const Expr*>& conjuncts) {
    for (size_t i = 1; i < core.from.size(); ++i) {
      const TableRef& ref = core.from[i];
      if (ref.join_kind != TableRef::JoinKind::kComma) continue;
      const std::string right = AsciiToLower(RefQualifier(ref));
      std::set<std::string> left;
      for (size_t j = 0; j < i; ++j) {
        left.insert(AsciiToLower(RefQualifier(core.from[j])));
      }
      bool connected = false;
      for (const Expr* c : conjuncts) {
        bool touches_right = false;
        bool touches_left = false;
        ForEachExpr(*c, [&](const Expr& e) {
          if (e.kind != ExprKind::kColumnRef) return;
          if (e.qualifier.empty()) {
            // An unqualified column could bind to either side; give the
            // predicate the benefit of the doubt.
            touches_right = touches_left = true;
          } else if (AsciiToLower(e.qualifier) == right) {
            touches_right = true;
          } else if (left.count(AsciiToLower(e.qualifier)) > 0) {
            touches_left = true;
          }
        });
        if (touches_right && touches_left) {
          connected = true;
          break;
        }
      }
      if (!connected) {
        const std::string name =
            ref.table_name.empty() ? "subquery" : "'" + ref.table_name + "'";
        Add("BSL001", Severity::kWarning,
            StrFormat("comma join brings in %s with no predicate connecting "
                      "it to the preceding tables (cartesian product); write "
                      "CROSS JOIN if this is intended",
                      name.c_str()),
            ref.loc);
      }
    }
  }

  // ---- BSL002: non-sargable predicate ------------------------------------

  void CheckNonSargable(const Expr& conjunct) {
    if (conjunct.kind != ExprKind::kBinary ||
        !IsComparisonOp(conjunct.binary_op)) {
      return;
    }
    auto flags = [&](const Expr& computed, const Expr& other) {
      const bool wraps_column =
          (computed.kind == ExprKind::kFunctionCall ||
           computed.kind == ExprKind::kUnary ||
           computed.kind == ExprKind::kBinary ||
           computed.kind == ExprKind::kCase) &&
          ContainsColumn(computed);
      return wraps_column && !ContainsColumn(other);
    };
    if (flags(*conjunct.left, *conjunct.right) ||
        flags(*conjunct.right, *conjunct.left)) {
      Add("BSL002", Severity::kWarning,
          "comparison applies a function or arithmetic to a column; an "
          "index on that column cannot serve this predicate (non-sargable)",
          conjunct.loc);
    }
  }

  // ---- BSL003: implicit text/numeric coercion ----------------------------

  // Base-table schemas visible in one core, keyed by lower-cased exposed
  // qualifier. CTEs and subqueries are absent: their column types are not
  // declared anywhere the linter can see.
  using Scope = std::unordered_map<std::string, const Schema*>;

  Scope BuildScope(const SelectCore& core) const {
    Scope scope;
    if (catalog_ == nullptr) return scope;
    for (const TableRef& ref : core.from) {
      if (ref.table_name.empty()) continue;
      auto table = catalog_->GetTable(ref.table_name);
      if (!table.ok()) continue;  // CTE or missing: the binder will say so
      scope[AsciiToLower(RefQualifier(ref))] = &(*table)->schema();
    }
    return scope;
  }

  // Declared type of a bare column reference, or kNull when unresolvable.
  ValueType ColumnType(const Expr& e, const Scope& scope) const {
    if (e.kind != ExprKind::kColumnRef) return ValueType::kNull;
    if (!e.qualifier.empty()) {
      auto it = scope.find(AsciiToLower(e.qualifier));
      if (it == scope.end()) return ValueType::kNull;
      const size_t idx = it->second->FindUnqualified(e.column);
      if (idx == Schema::kNpos) return ValueType::kNull;
      return it->second->column(idx).type;
    }
    const Schema* found = nullptr;
    size_t found_idx = 0;
    for (const auto& [qual, schema] : scope) {
      const size_t idx = schema->FindUnqualified(e.column);
      if (idx == Schema::kNpos) continue;
      if (found != nullptr) return ValueType::kNull;  // ambiguous
      found = schema;
      found_idx = idx;
    }
    return found != nullptr ? found->column(found_idx).type : ValueType::kNull;
  }

  // Static type of one comparison operand: a bare column's declared type or
  // a literal's type; anything else is unknown.
  ValueType OperandType(const Expr& e, const Scope& scope) const {
    if (e.kind == ExprKind::kColumnRef) return ColumnType(e, scope);
    if (e.kind == ExprKind::kLiteral) return e.literal.type();
    return ValueType::kNull;
  }

  void CheckCoercion(const Expr& conjunct, const Scope& scope) {
    if (conjunct.kind != ExprKind::kBinary ||
        !IsComparisonOp(conjunct.binary_op)) {
      return;
    }
    const ValueType lt = OperandType(*conjunct.left, scope);
    const ValueType rt = OperandType(*conjunct.right, scope);
    if ((IsTextType(lt) && IsNumericType(rt)) ||
        (IsNumericType(lt) && IsTextType(rt))) {
      Add("BSL003", Severity::kWarning,
          StrFormat("comparison mixes %s and %s operands and relies on "
                    "implicit coercion",
                    ValueTypeName(lt), ValueTypeName(rt)),
          conjunct.loc);
    }
  }

  // ---- BSL004: unused CTE ------------------------------------------------

  void CheckUnusedCte(const SelectStmt& s, size_t cte_index) {
    const std::string& name = s.ctes[cte_index].name;
    size_t uses = 0;
    // Later CTEs and the statement body may reference it. (A same-named CTE
    // in a nested scope would shadow it; the linter accepts that rare false
    // negative.)
    for (size_t j = cte_index + 1; j < s.ctes.size(); ++j) {
      uses += CountUsesSelect(*s.ctes[j].select, name);
    }
    for (const SelectCore& core : s.cores) uses += CountUsesCore(core, name);
    for (const auto& o : s.order_by) uses += CountUsesExpr(*o.expr, name);
    if (s.limit) uses += CountUsesExpr(*s.limit, name);
    if (s.offset) uses += CountUsesExpr(*s.offset, name);
    if (uses == 0) {
      Add("BSL004", Severity::kWarning,
          StrFormat("CTE '%s' is defined but never referenced", name.c_str()),
          s.ctes[cte_index].loc);
    }
  }

  size_t CountUsesSelect(const SelectStmt& s, const std::string& name) const {
    size_t uses = 0;
    for (const auto& cte : s.ctes) uses += CountUsesSelect(*cte.select, name);
    for (const SelectCore& core : s.cores) uses += CountUsesCore(core, name);
    for (const auto& o : s.order_by) uses += CountUsesExpr(*o.expr, name);
    if (s.limit) uses += CountUsesExpr(*s.limit, name);
    if (s.offset) uses += CountUsesExpr(*s.offset, name);
    return uses;
  }

  size_t CountUsesCore(const SelectCore& core, const std::string& name) const {
    size_t uses = 0;
    for (const TableRef& ref : core.from) {
      if (EqualsIgnoreCase(ref.table_name, name)) ++uses;
      if (ref.subquery) uses += CountUsesSelect(*ref.subquery, name);
      if (ref.join_condition) {
        uses += CountUsesExpr(*ref.join_condition, name);
      }
    }
    for (const sql::SelectItem& item : core.items) {
      if (item.expr) uses += CountUsesExpr(*item.expr, name);
    }
    if (core.where) uses += CountUsesExpr(*core.where, name);
    for (const auto& g : core.group_by) uses += CountUsesExpr(*g, name);
    if (core.having) uses += CountUsesExpr(*core.having, name);
    return uses;
  }

  size_t CountUsesExpr(const Expr& e, const std::string& name) const {
    size_t uses = 0;
    ForEachExpr(e, [&](const Expr& sub) {
      if (sub.subquery) uses += CountUsesSelect(*sub.subquery, name);
    });
    return uses;
  }

  // ---- BSL005: ON CONFLICT target vs unique key --------------------------

  void LintInsert(const sql::InsertStmt& ins) {
    if (ins.select != nullptr) LintSelect(*ins.select);
    if (ins.on_conflict == nullptr || catalog_ == nullptr) return;
    auto table_r = catalog_->GetTable(ins.table);
    if (!table_r.ok()) return;  // unknown table: binder reports it
    const storage::Table* table = *table_r;
    if (!table->has_unique_key()) {
      Add("BSL005", Severity::kError,
          StrFormat("ON CONFLICT requires a unique key on '%s', which "
                    "declares none",
                    ins.table.c_str()),
          {});
      return;
    }
    if (ins.on_conflict->target_columns.empty()) return;
    std::set<std::string> target;
    for (const std::string& c : ins.on_conflict->target_columns) {
      target.insert(AsciiToLower(c));
    }
    std::set<std::string> key;
    for (size_t idx : table->key_columns()) {
      key.insert(AsciiToLower(table->schema().column(idx).name));
    }
    if (target != key) {
      Add("BSL005", Severity::kError,
          StrFormat("ON CONFLICT target (%s) does not match the unique key "
                    "(%s) of '%s'",
                    Join(ins.on_conflict->target_columns, ", ").c_str(),
                    Join(std::vector<std::string>(key.begin(), key.end()),
                         ", ")
                        .c_str(),
                    ins.table.c_str()),
          {});
    }
  }

  const catalog::Catalog* catalog_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> LintStatement(const sql::Statement& stmt,
                                      const catalog::Catalog* catalog) {
  Linter linter(catalog);
  linter.LintStmt(stmt);
  return linter.Take();
}

Result<std::vector<Diagnostic>> LintSql(std::string_view sql,
                                        const catalog::Catalog* catalog) {
  BORNSQL_ASSIGN_OR_RETURN(std::vector<sql::ScriptStatement> script,
                           sql::ParseScript(sql));
  Linter linter(catalog);
  for (const sql::ScriptStatement& s : script) linter.LintStmt(s.stmt);
  return linter.Take();
}

}  // namespace bornsql::lint
