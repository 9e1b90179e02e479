#include "engine/logical_builder.h"

#include <utility>

#include "common/strings.h"
#include "engine/binder.h"
#include "exec/aggregates.h"

namespace bornsql::engine {

using exec::BoundExprPtr;
using plan::LogicalKind;
using plan::LogicalPtr;

namespace {

// RAII push/pop of one CTE scope.
class ScopeGuard {
 public:
  explicit ScopeGuard(
      std::vector<std::unordered_map<
          std::string, std::shared_ptr<plan::CteBinding>>>* scopes)
      : scopes_(scopes) {
    scopes_->emplace_back();
  }
  ~ScopeGuard() { scopes_->pop_back(); }

 private:
  std::vector<std::unordered_map<std::string,
                                 std::shared_ptr<plan::CteBinding>>>* scopes_;
};

// Collects distinct (structurally) aggregate calls in `e` into `out`.
void CollectAggCalls(const sql::Expr& e, std::vector<const sql::Expr*>* out) {
  if (e.kind == sql::ExprKind::kFunctionCall) {
    exec::AggFunc agg;
    if (exec::LookupAggFunc(e.func_name, &agg)) {
      for (const sql::Expr* seen : *out) {
        if (ExprEquals(*seen, e)) return;
      }
      out->push_back(&e);
      return;  // no nested aggregates
    }
  }
  if (e.kind == sql::ExprKind::kWindow) return;
  if (e.left) CollectAggCalls(*e.left, out);
  if (e.right) CollectAggCalls(*e.right, out);
  for (const auto& a : e.args) CollectAggCalls(*a, out);
  for (const auto& [w, t] : e.when_clauses) {
    CollectAggCalls(*w, out);
    CollectAggCalls(*t, out);
  }
  if (e.else_clause) CollectAggCalls(*e.else_clause, out);
}

void CollectWindowCalls(const sql::Expr& e,
                        std::vector<const sql::Expr*>* out) {
  if (e.kind == sql::ExprKind::kWindow) {
    for (const sql::Expr* seen : *out) {
      if (ExprEquals(*seen, e)) return;
    }
    out->push_back(&e);
    return;
  }
  if (e.left) CollectWindowCalls(*e.left, out);
  if (e.right) CollectWindowCalls(*e.right, out);
  for (const auto& a : e.args) CollectWindowCalls(*a, out);
  for (const auto& [w, t] : e.when_clauses) {
    CollectWindowCalls(*w, out);
    CollectWindowCalls(*t, out);
  }
  if (e.else_clause) CollectWindowCalls(*e.else_clause, out);
}

// Rewrites `e`, replacing subtrees equal to replacements[i].first with a
// fresh ColumnRef replacements[i].second = (qualifier, name).
sql::ExprPtr RewriteWithReplacements(
    const sql::Expr& e,
    const std::vector<std::pair<const sql::Expr*,
                                std::pair<std::string, std::string>>>&
        replacements) {
  for (const auto& [target, ref] : replacements) {
    if (ExprEquals(*target, e)) {
      return sql::MakeColumnRef(ref.first, ref.second);
    }
  }
  sql::ExprPtr out = sql::CloneExpr(e);
  // Rewrite children in place on the clone.
  if (out->left) out->left = RewriteWithReplacements(*out->left, replacements);
  if (out->right) {
    out->right = RewriteWithReplacements(*out->right, replacements);
  }
  for (auto& a : out->args) a = RewriteWithReplacements(*a, replacements);
  for (auto& [w, t] : out->when_clauses) {
    w = RewriteWithReplacements(*w, replacements);
    t = RewriteWithReplacements(*t, replacements);
  }
  if (out->else_clause) {
    out->else_clause = RewriteWithReplacements(*out->else_clause, replacements);
  }
  return out;
}

struct ExpandedItem {
  sql::ExprPtr expr;
  std::string name;
};

// ---- derived-table pull-up ------------------------------------------------
//
// A derived table that is a plain projection of one base table is merged
// into the outer query: the ref becomes the base table itself and every
// outer reference to the alias is replaced by the projected expression.
// This is what lets an equi join against the derived table turn into an
// index probe on the base table — the optimization that makes single-item
// inference cheap after deployment (Fig. 6). It rewrites the AST (the only
// rule that must run before the logical tree exists), gated by
// rules.derived_table_pullup.

// True if `stmt` is a plain projection of a single named table.
bool IsSimpleProjection(const sql::SelectStmt& stmt) {
  if (stmt.cores.size() != 1 || !stmt.ctes.empty() ||
      !stmt.order_by.empty() || stmt.limit != nullptr ||
      stmt.offset != nullptr) {
    return false;
  }
  const sql::SelectCore& c = stmt.cores[0];
  if (c.distinct || c.where != nullptr || !c.group_by.empty() ||
      c.having != nullptr) {
    return false;
  }
  if (c.from.size() != 1 || c.from[0].subquery != nullptr ||
      c.from[0].join_condition != nullptr) {
    return false;
  }
  for (const sql::SelectItem& item : c.items) {
    if (item.is_star || item.expr == nullptr) return false;
    if (ContainsAggregate(*item.expr) || ContainsWindow(*item.expr)) {
      return false;
    }
  }
  return true;
}

void RequalifyColumns(sql::Expr* e, const std::string& qualifier) {
  if (e->kind == sql::ExprKind::kColumnRef) {
    e->qualifier = qualifier;
    return;
  }
  if (e->left) RequalifyColumns(e->left.get(), qualifier);
  if (e->right) RequalifyColumns(e->right.get(), qualifier);
  for (auto& a : e->args) RequalifyColumns(a.get(), qualifier);
  for (auto& p : e->partition_by) RequalifyColumns(p.get(), qualifier);
  for (auto& [oe, d] : e->window_order_by) RequalifyColumns(oe.get(), qualifier);
  for (auto& [w, t] : e->when_clauses) {
    RequalifyColumns(w.get(), qualifier);
    RequalifyColumns(t.get(), qualifier);
  }
  if (e->else_clause) RequalifyColumns(e->else_clause.get(), qualifier);
}

// Collects the column references in `e` into qualified/unqualified name sets.
void CollectColumnRefs(const sql::Expr& e,
                       std::vector<const sql::Expr*>* out) {
  if (e.kind == sql::ExprKind::kColumnRef) {
    out->push_back(&e);
    return;
  }
  if (e.left) CollectColumnRefs(*e.left, out);
  if (e.right) CollectColumnRefs(*e.right, out);
  for (const auto& a : e.args) CollectColumnRefs(*a, out);
  for (const auto& p : e.partition_by) CollectColumnRefs(*p, out);
  for (const auto& [oe, d] : e.window_order_by) CollectColumnRefs(*oe, out);
  for (const auto& [w, t] : e.when_clauses) {
    CollectColumnRefs(*w, out);
    CollectColumnRefs(*t, out);
  }
  if (e.else_clause) CollectColumnRefs(*e.else_clause, out);
}

// Replaces `alias.col` references inside *e using the substitution map.
void SubstituteAliasRefs(
    sql::ExprPtr* e, const std::string& alias,
    const std::unordered_map<std::string, const sql::Expr*>& subs) {
  if ((*e)->kind == sql::ExprKind::kColumnRef) {
    if (EqualsIgnoreCase((*e)->qualifier, alias)) {
      auto it = subs.find(AsciiToLower((*e)->column));
      if (it != subs.end()) *e = sql::CloneExpr(*it->second);
    }
    return;
  }
  sql::Expr* node = e->get();
  if (node->left) SubstituteAliasRefs(&node->left, alias, subs);
  if (node->right) SubstituteAliasRefs(&node->right, alias, subs);
  for (auto& a : node->args) SubstituteAliasRefs(&a, alias, subs);
  for (auto& p : node->partition_by) SubstituteAliasRefs(&p, alias, subs);
  for (auto& [oe, d] : node->window_order_by) {
    SubstituteAliasRefs(&oe, alias, subs);
  }
  for (auto& [w, t] : node->when_clauses) {
    SubstituteAliasRefs(&w, alias, subs);
    SubstituteAliasRefs(&t, alias, subs);
  }
  if (node->else_clause) {
    SubstituteAliasRefs(&node->else_clause, alias, subs);
  }
}

// Pulls simple-projection derived tables up into `core`, rewriting
// `order_exprs` alongside. Conservative: bails out per-ref on stars or on
// references it cannot prove safe. Returns the number of refs pulled up.
int PullUpSimpleSubqueries(sql::SelectCore* core,
                           std::vector<sql::ExprPtr>* order_exprs) {
  // Any star in the outer projection makes column provenance ambiguous.
  for (const sql::SelectItem& item : core->items) {
    if (item.is_star) return 0;
  }
  int counter = 0;
  for (sql::TableRef& ref : core->from) {
    if (ref.subquery == nullptr || ref.alias.empty()) continue;
    if (ref.join_kind == sql::TableRef::JoinKind::kLeft) continue;
    if (!IsSimpleProjection(*ref.subquery)) continue;
    const sql::SelectCore& inner = ref.subquery->cores[0];

    // Output map: exposed column name -> inner expression.
    std::unordered_map<std::string, const sql::Expr*> subs;
    bool nameable = true;
    for (const sql::SelectItem& item : inner.items) {
      std::string name = item.alias;
      if (name.empty() && item.expr->kind == sql::ExprKind::kColumnRef) {
        name = item.expr->column;
      }
      if (name.empty()) {
        nameable = false;
        break;
      }
      subs[AsciiToLower(name)] = item.expr.get();
    }
    if (!nameable) continue;

    // Gather every outer expression that might reference the alias.
    std::vector<sql::ExprPtr*> outer_exprs;
    for (sql::SelectItem& item : core->items) outer_exprs.push_back(&item.expr);
    if (core->where) outer_exprs.push_back(&core->where);
    for (sql::ExprPtr& g : core->group_by) outer_exprs.push_back(&g);
    if (core->having) outer_exprs.push_back(&core->having);
    for (sql::TableRef& other : core->from) {
      if (other.join_condition) outer_exprs.push_back(&other.join_condition);
    }
    for (sql::ExprPtr& o : *order_exprs) outer_exprs.push_back(&o);

    // Safety: every qualified use of the alias must resolve in the map, and
    // no *unqualified* reference may collide with an output name (it might
    // belong to the subquery).
    bool safe = true;
    for (sql::ExprPtr* e : outer_exprs) {
      std::vector<const sql::Expr*> refs;
      CollectColumnRefs(**e, &refs);
      for (const sql::Expr* r : refs) {
        if (EqualsIgnoreCase(r->qualifier, ref.alias)) {
          if (subs.find(AsciiToLower(r->column)) == subs.end()) safe = false;
        } else if (r->qualifier.empty() &&
                   subs.find(AsciiToLower(r->column)) != subs.end()) {
          safe = false;
        }
      }
    }
    if (!safe) continue;

    // Perform the pull-up: requalify the inner expressions onto a fresh
    // alias for the base table, substitute, and swap the ref.
    std::string new_alias = StrFormat("#pu%d_%s", counter++,
                                      ref.alias.c_str());
    std::vector<sql::ExprPtr> owned;
    std::unordered_map<std::string, const sql::Expr*> requalified;
    for (auto& [name, expr] : subs) {
      sql::ExprPtr clone = sql::CloneExpr(*expr);
      RequalifyColumns(clone.get(), new_alias);
      requalified[name] = clone.get();
      owned.push_back(std::move(clone));
    }
    for (sql::ExprPtr* e : outer_exprs) {
      SubstituteAliasRefs(e, ref.alias, requalified);
    }
    ref.table_name = inner.from[0].table_name;
    ref.alias = new_alias;
    ref.subquery.reset();
  }
  return counter;
}

// Expands stars against `schema` and names every output column.
Result<std::vector<ExpandedItem>> ExpandItems(
    const std::vector<sql::SelectItem>& items, const Schema& schema) {
  std::vector<ExpandedItem> out;
  for (size_t i = 0; i < items.size(); ++i) {
    const sql::SelectItem& item = items[i];
    if (item.is_star) {
      bool matched = false;
      for (const Column& c : schema.columns()) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(c.qualifier, item.star_qualifier)) {
          continue;
        }
        ExpandedItem e;
        e.expr = sql::MakeColumnRef(c.qualifier, c.name);
        e.name = c.name;
        out.push_back(std::move(e));
        matched = true;
      }
      if (!matched) {
        return Status::BindError("no columns match '" + item.star_qualifier +
                                 ".*'");
      }
      continue;
    }
    ExpandedItem e;
    e.expr = sql::CloneExpr(*item.expr);
    if (!item.alias.empty()) {
      e.name = item.alias;
    } else if (item.expr->kind == sql::ExprKind::kColumnRef) {
      e.name = item.expr->column;
    } else {
      e.name = StrFormat("col%zu", i + 1);
    }
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace

std::shared_ptr<plan::CteBinding> LogicalBuilder::FindCte(
    const std::string& name) const {
  std::string key = AsciiToLower(name);
  for (auto it = cte_scopes_.rbegin(); it != cte_scopes_.rend(); ++it) {
    auto found = it->find(key);
    if (found != it->end()) return found->second;
  }
  return nullptr;
}

Result<plan::LogicalPlan> LogicalBuilder::Build(const sql::SelectStmt& stmt) {
  BORNSQL_ASSIGN_OR_RETURN(LogicalPtr root, BuildStmt(stmt));
  plan::LogicalPlan out;
  out.ctes = plan::CollectCtes(*root);
  out.root = std::move(root);
  return out;
}

Status LogicalBuilder::FoldSubqueries(sql::Expr* e) {
  switch (e->kind) {
    case sql::ExprKind::kScalarSubquery:
    case sql::ExprKind::kInSubquery:
    case sql::ExprKind::kExists:
      if (!hooks_.execute) {
        return Status::Internal("no subquery execution hook installed");
      }
      break;
    default:
      break;
  }
  switch (e->kind) {
    case sql::ExprKind::kScalarSubquery: {
      BORNSQL_ASSIGN_OR_RETURN(LogicalPtr root, BuildStmt(*e->subquery));
      BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks result,
                               hooks_.execute(std::move(root)));
      if (result.schema.size() != 1) {
        return Status::BindError("scalar subquery must return one column");
      }
      if (result.row_count > 1) {
        return Status::ExecutionError(
            "scalar subquery returned more than one row");
      }
      Value v = result.row_count == 0
                    ? Value::Null()
                    : std::move(result.chunks[0].column(0)[0]);
      e->kind = sql::ExprKind::kLiteral;
      e->literal = std::move(v);
      e->subquery.reset();
      return Status::OK();
    }
    case sql::ExprKind::kInSubquery: {
      BORNSQL_ASSIGN_OR_RETURN(LogicalPtr root, BuildStmt(*e->subquery));
      BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks result,
                               hooks_.execute(std::move(root)));
      if (result.schema.size() != 1) {
        return Status::BindError("IN subquery must return one column");
      }
      e->kind = sql::ExprKind::kInSet;
      e->set_values.clear();
      e->set_values.reserve(result.row_count);
      for (exec::DataChunk& chunk : result.chunks) {
        for (Value& v : chunk.column(0)) e->set_values.push_back(std::move(v));
      }
      e->subquery.reset();
      return FoldSubqueries(e->left.get());
    }
    case sql::ExprKind::kExists: {
      BORNSQL_ASSIGN_OR_RETURN(LogicalPtr body, BuildStmt(*e->subquery));
      LogicalPtr root = plan::MakeLogical(LogicalKind::kLimit);
      root->schema = body->schema;
      root->limit = 1;
      root->children.push_back(std::move(body));
      BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks result,
                               hooks_.execute(std::move(root)));
      e->kind = sql::ExprKind::kLiteral;
      e->literal = Value::Bool(result.row_count > 0);
      e->subquery.reset();
      return Status::OK();
    }
    default:
      break;
  }
  if (e->left) BORNSQL_RETURN_IF_ERROR(FoldSubqueries(e->left.get()));
  if (e->right) BORNSQL_RETURN_IF_ERROR(FoldSubqueries(e->right.get()));
  for (auto& a : e->args) BORNSQL_RETURN_IF_ERROR(FoldSubqueries(a.get()));
  for (auto& p : e->partition_by) {
    BORNSQL_RETURN_IF_ERROR(FoldSubqueries(p.get()));
  }
  for (auto& [oe, d] : e->window_order_by) {
    BORNSQL_RETURN_IF_ERROR(FoldSubqueries(oe.get()));
  }
  for (auto& [w, t] : e->when_clauses) {
    BORNSQL_RETURN_IF_ERROR(FoldSubqueries(w.get()));
    BORNSQL_RETURN_IF_ERROR(FoldSubqueries(t.get()));
  }
  if (e->else_clause) {
    BORNSQL_RETURN_IF_ERROR(FoldSubqueries(e->else_clause.get()));
  }
  return Status::OK();
}

Result<LogicalPtr> LogicalBuilder::BuildStmt(const sql::SelectStmt& stmt) {
  ScopeGuard scope(&cte_scopes_);
  for (const sql::CommonTableExpr& cte : stmt.ctes) {
    auto binding = std::make_shared<plan::CteBinding>();
    binding->name = cte.name;
    binding->stmt = cte.select.get();
    cte_scopes_.back()[AsciiToLower(cte.name)] = std::move(binding);
  }

  // Cores (UNION ALL chain). A single core handles ORDER BY itself so sort
  // keys may reference non-projected input columns.
  LogicalPtr op;
  if (stmt.cores.size() == 1) {
    BORNSQL_ASSIGN_OR_RETURN(op, BuildCore(stmt.cores[0], &stmt.order_by));
  } else {
    std::vector<LogicalPtr> children;
    size_t arity = 0;
    for (size_t i = 0; i < stmt.cores.size(); ++i) {
      BORNSQL_ASSIGN_OR_RETURN(LogicalPtr child,
                               BuildCore(stmt.cores[i], nullptr));
      if (i == 0) {
        arity = child->schema.size();
      } else if (child->schema.size() != arity) {
        return Status::BindError(
            "UNION ALL operands have different column counts");
      }
      children.push_back(std::move(child));
    }
    LogicalPtr u = plan::MakeLogical(LogicalKind::kUnion);
    // Positional schema from the first child, unqualified (a UNION result
    // is a fresh relation) -- mirrors exec::UnionAllOp.
    for (const Column& c : children[0]->schema.columns()) {
      u->schema.Add(Column{"", c.name, c.type});
    }
    u->children = std::move(children);
    op = std::move(u);

    // ORDER BY over a UNION binds against the union's output schema only.
    if (!stmt.order_by.empty()) {
      std::vector<plan::SortKeySpec> keys;
      for (const sql::OrderItem& item : stmt.order_by) {
        plan::SortKeySpec key;
        key.desc = item.desc;
        if (item.expr->kind == sql::ExprKind::kLiteral &&
            item.expr->literal.is_int()) {
          int64_t ordinal = item.expr->literal.AsInt();
          if (ordinal < 1 ||
              ordinal > static_cast<int64_t>(op->schema.size())) {
            return Status::BindError(
                StrFormat("ORDER BY position %lld is out of range",
                          static_cast<long long>(ordinal)));
          }
          key.ordinal = static_cast<size_t>(ordinal - 1);
        } else {
          BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr b,
                                   BindExpr(*item.expr, op->schema));
          (void)b;  // validation only; lowering re-binds
          key.expr = sql::CloneExpr(*item.expr);
        }
        keys.push_back(std::move(key));
      }
      LogicalPtr sort = plan::MakeLogical(LogicalKind::kSort);
      sort->schema = op->schema;
      sort->sort_keys = std::move(keys);
      sort->children.push_back(std::move(op));
      op = std::move(sort);
    }
  }

  if (stmt.limit != nullptr) {
    BORNSQL_ASSIGN_OR_RETURN(Value limit_v,
                             EvalConstExpr(*stmt.limit, args_));
    BORNSQL_ASSIGN_OR_RETURN(Value limit_i, limit_v.CoerceTo(ValueType::kInt));
    int64_t offset = 0;
    if (stmt.offset != nullptr) {
      BORNSQL_ASSIGN_OR_RETURN(Value off_v,
                               EvalConstExpr(*stmt.offset, args_));
      BORNSQL_ASSIGN_OR_RETURN(Value off_i, off_v.CoerceTo(ValueType::kInt));
      offset = off_i.AsInt();
    }
    LogicalPtr limit = plan::MakeLogical(LogicalKind::kLimit);
    limit->schema = op->schema;
    limit->limit = limit_i.AsInt();
    limit->offset = offset;
    limit->children.push_back(std::move(op));
    op = std::move(limit);
  }
  return op;
}

Result<LogicalPtr> LogicalBuilder::BuildTableRef(const sql::TableRef& ref) {
  if (ref.subquery != nullptr) {
    BORNSQL_ASSIGN_OR_RETURN(LogicalPtr sub, BuildStmt(*ref.subquery));
    LogicalPtr node = plan::MakeLogical(LogicalKind::kRelabel);
    node->qualifier = ref.alias;
    node->schema = sub->schema.WithQualifier(ref.alias);
    node->children.push_back(std::move(sub));
    return node;
  }
  const std::string qualifier =
      ref.alias.empty() ? ref.table_name : ref.alias;
  if (auto binding = FindCte(ref.table_name)) {
    if (binding->plan == nullptr) {
      // First reference: build (and rule-optimize) the body once. Every
      // later reference -- including ones inside plan-time-executed
      // subqueries -- shares this plan instead of building it again.
      // Result cells are per lowered tree (see engine/lowering.h).
      BORNSQL_ASSIGN_OR_RETURN(binding->plan, BuildStmt(*binding->stmt));
      if (hooks_.optimize) {
        BORNSQL_RETURN_IF_ERROR(hooks_.optimize(binding->plan.get()));
      }
    }
    LogicalPtr node = plan::MakeLogical(LogicalKind::kCteRef);
    node->qualifier = qualifier;
    node->schema = binding->plan->schema.WithQualifier(qualifier);
    node->cte = std::move(binding);
    return node;
  }
  // System views resolve after CTEs but are shadowed by real tables, so a
  // user table that happens to be named born_stat_* keeps working.
  if (system_views_ != nullptr && !catalog_->Exists(ref.table_name) &&
      system_views_->IsSystemView(ref.table_name)) {
    exec::OperatorPtr view =
        system_views_->MakeViewScan(ref.table_name, qualifier);
    LogicalPtr node = plan::MakeLogical(LogicalKind::kScan);
    node->table_name = ref.table_name;
    node->is_system_view = true;
    node->qualifier = qualifier;
    node->schema = view->schema();
    return node;
  }
  BORNSQL_ASSIGN_OR_RETURN(storage::Table * table,
                           catalog_->GetTable(ref.table_name));
  LogicalPtr node = plan::MakeLogical(LogicalKind::kScan);
  node->table_name = ref.table_name;
  node->table = table;
  node->qualifier = qualifier;
  node->schema = table->schema().WithQualifier(qualifier);
  return node;
}

Result<LogicalPtr> LogicalBuilder::BuildFrom(
    const sql::SelectCore& core, std::vector<sql::ExprPtr>* conjuncts) {
  LogicalPtr current;
  // Node pointers a pool conjunct may eventually be placed on: every FROM
  // leaf and every join output (heap nodes; stable across the moves below).
  std::vector<const plan::LogicalNode*> subtrees;

  if (core.from.empty()) {
    current = plan::MakeLogical(LogicalKind::kSingleRow);
    subtrees.push_back(current.get());
  } else {
    std::vector<LogicalPtr> refs;
    refs.reserve(core.from.size());
    for (const sql::TableRef& ref : core.from) {
      BORNSQL_ASSIGN_OR_RETURN(LogicalPtr node, BuildTableRef(ref));
      subtrees.push_back(node.get());
      refs.push_back(std::move(node));
    }

    // Fold INNER JOIN ... ON conditions into the conjunct pool: for inner
    // joins they are equivalent to WHERE predicates.
    for (const sql::TableRef& ref : core.from) {
      if (ref.join_kind == sql::TableRef::JoinKind::kInner &&
          ref.join_condition != nullptr) {
        SplitConjuncts(sql::CloneExpr(*ref.join_condition), conjuncts);
      }
    }

    current = std::move(refs[0]);
    for (size_t i = 1; i < refs.size(); ++i) {
      LogicalPtr right = std::move(refs[i]);
      const sql::TableRef& ref = core.from[i];
      LogicalPtr join = plan::MakeLogical(LogicalKind::kJoin);
      join->schema = Schema::Concat(current->schema, right->schema);

      if (ref.join_kind == sql::TableRef::JoinKind::kLeft) {
        join->join_kind = plan::LogicalJoinKind::kLeft;
        // The old planner bound a LEFT ON clause that was not a pure
        // conjunction of equi pairs against the concatenated schema, and
        // surfaced bind errors right here. Validate on the same condition
        // so user errors keep their BindError (the logical verifier would
        // otherwise report them as rule bugs).
        std::vector<sql::ExprPtr> on;
        if (ref.join_condition != nullptr) {
          SplitConjuncts(sql::CloneExpr(*ref.join_condition), &on);
        }
        bool all_equi = config_->join_strategy != JoinStrategy::kNestedLoop;
        if (all_equi) {
          for (const sql::ExprPtr& c : on) {
            const sql::Expr *le = nullptr, *re = nullptr;
            if (!IsEquiPair(*c, current->schema, right->schema, &le, &re)) {
              all_equi = false;
              break;
            }
          }
        }
        if (!(all_equi && !on.empty()) && ref.join_condition != nullptr) {
          BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr pred,
                                   BindExpr(*ref.join_condition,
                                            join->schema));
          (void)pred;  // validation only; lowering re-binds
        }
        if (ref.join_condition != nullptr) {
          join->on_condition = sql::CloneExpr(*ref.join_condition);
        }
      } else {
        // Comma / INNER / CROSS: the naive form is a cross product; the
        // equi-join extraction rule recovers keys from the conjunct pool.
        join->join_kind = plan::LogicalJoinKind::kCross;
      }

      join->children.push_back(std::move(current));
      join->children.push_back(std::move(right));
      current = std::move(join);
      subtrees.push_back(current.get());
    }
  }

  // Every pool conjunct must bind to some subtree of the FROM product --
  // exactly where the old planner would have placed (and bound) it. A
  // conjunct that binds nowhere is a user error; reproduce the monolith's
  // message by binding it against the full output schema.
  for (const sql::ExprPtr& c : *conjuncts) {
    bool binds = false;
    for (const plan::LogicalNode* n : subtrees) {
      if (BindsTo(*c, n->schema)) {
        binds = true;
        break;
      }
    }
    if (!binds) {
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr pred,
                               BindExpr(*c, current->schema));
      (void)pred;  // not reached: BindsTo false on every subtree
    }
  }
  return current;
}

Result<LogicalPtr> LogicalBuilder::BuildCore(
    const sql::SelectCore& original_core,
    const std::vector<sql::OrderItem>* order_by) {
  // Work on a private copy: derived-table pull-up rewrites the core and
  // the ORDER BY expressions in place.
  sql::SelectCore core = sql::CloneCore(original_core);
  std::vector<sql::ExprPtr> order_exprs;
  if (order_by != nullptr) {
    for (const sql::OrderItem& item : *order_by) {
      order_exprs.push_back(sql::CloneExpr(*item.expr));
    }
  }
  if (config_->rules.derived_table_pullup) {
    int pulled = PullUpSimpleSubqueries(&core, &order_exprs);
    if (stats_ != nullptr) {
      stats_->Record("derived_table_pullup", static_cast<uint64_t>(pulled));
    }
  }

  // Fold uncorrelated subqueries everywhere an expression may hold one.
  for (sql::SelectItem& item : core.items) {
    if (item.expr) BORNSQL_RETURN_IF_ERROR(FoldSubqueries(item.expr.get()));
  }
  if (core.where) BORNSQL_RETURN_IF_ERROR(FoldSubqueries(core.where.get()));
  for (sql::ExprPtr& g : core.group_by) {
    BORNSQL_RETURN_IF_ERROR(FoldSubqueries(g.get()));
  }
  if (core.having) {
    BORNSQL_RETURN_IF_ERROR(FoldSubqueries(core.having.get()));
  }
  for (sql::TableRef& ref : core.from) {
    if (ref.join_condition) {
      BORNSQL_RETURN_IF_ERROR(FoldSubqueries(ref.join_condition.get()));
    }
  }
  for (sql::ExprPtr& o : order_exprs) {
    BORNSQL_RETURN_IF_ERROR(FoldSubqueries(o.get()));
  }

  std::vector<sql::ExprPtr> conjuncts;
  if (core.where != nullptr) {
    SplitConjuncts(std::move(core.where), &conjuncts);
  }
  BORNSQL_ASSIGN_OR_RETURN(LogicalPtr input, BuildFrom(core, &conjuncts));

  // The naive plan keeps the whole pool in one Filter above the join tree
  // (WHERE conjuncts first, then inner ON conjuncts); predicate pushdown
  // and equi-join extraction take it apart from here.
  if (!conjuncts.empty()) {
    LogicalPtr filter = plan::MakeLogical(LogicalKind::kFilter);
    filter->schema = input->schema;
    filter->conjuncts = std::move(conjuncts);
    filter->children.push_back(std::move(input));
    input = std::move(filter);
  }

  BORNSQL_ASSIGN_OR_RETURN(std::vector<ExpandedItem> items,
                           ExpandItems(core.items, input->schema));

  // ---- aggregation ----
  bool has_agg = !core.group_by.empty();
  for (const ExpandedItem& item : items) {
    if (ContainsAggregate(*item.expr)) has_agg = true;
  }
  if (core.having != nullptr && ContainsAggregate(*core.having)) {
    has_agg = true;
  }
  for (const sql::ExprPtr& o : order_exprs) {
    if (ContainsAggregate(*o)) has_agg = true;
  }
  sql::ExprPtr having =
      core.having != nullptr ? sql::CloneExpr(*core.having) : nullptr;

  if (has_agg) {
    const Schema in_schema = input->schema;
    // Group expressions, with select-alias substitution (PostgreSQL/SQLite
    // allow GROUP BY <output alias>).
    std::vector<sql::ExprPtr> group_exprs;
    for (const sql::ExprPtr& g : core.group_by) {
      sql::ExprPtr expr = sql::CloneExpr(*g);
      if (expr->kind == sql::ExprKind::kColumnRef &&
          expr->qualifier.empty() && !BindsTo(*expr, in_schema)) {
        for (size_t i = 0; i < core.items.size(); ++i) {
          if (!core.items[i].is_star &&
              EqualsIgnoreCase(core.items[i].alias, expr->column)) {
            expr = sql::CloneExpr(*items[i].expr);
            break;
          }
        }
      }
      group_exprs.push_back(std::move(expr));
    }

    Schema agg_schema;
    for (size_t i = 0; i < group_exprs.size(); ++i) {
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr b,
                               BindExpr(*group_exprs[i], in_schema));
      Column col;
      if (group_exprs[i]->kind == sql::ExprKind::kColumnRef) {
        col = in_schema.column(b->column_index);
      } else {
        col = Column{"", StrFormat("#g%zu", i), ValueType::kNull};
      }
      agg_schema.Add(col);
    }

    // Aggregate calls across select items, HAVING and ORDER BY. The calls
    // are cloned into owned storage: replacement targets must stay valid
    // while the very expressions they came from are being rewritten.
    std::vector<const sql::Expr*> agg_call_ptrs;
    for (const ExpandedItem& item : items) {
      CollectAggCalls(*item.expr, &agg_call_ptrs);
    }
    if (having != nullptr) CollectAggCalls(*having, &agg_call_ptrs);
    for (const sql::ExprPtr& o : order_exprs) {
      CollectAggCalls(*o, &agg_call_ptrs);
    }
    std::vector<sql::ExprPtr> agg_calls;
    for (const sql::Expr* call : agg_call_ptrs) {
      agg_calls.push_back(sql::CloneExpr(*call));
    }

    for (size_t k = 0; k < agg_calls.size(); ++k) {
      const sql::Expr& call = *agg_calls[k];
      if (call.args.size() == 1 &&
          call.args[0]->kind == sql::ExprKind::kStar) {
        // COUNT(*): no argument to validate.
      } else if (call.args.size() == 1) {
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr arg,
                                 BindExpr(*call.args[0], in_schema));
        (void)arg;  // validation only; lowering re-binds
      } else {
        return Status::BindError("aggregate " + call.func_name +
                                 "() takes exactly one argument");
      }
      agg_schema.Add(Column{"", StrFormat("#a%zu", k), ValueType::kNull});
    }

    LogicalPtr agg = plan::MakeLogical(LogicalKind::kAggregate);
    agg->schema = agg_schema;
    agg->group_exprs = std::move(group_exprs);
    agg->agg_calls = std::move(agg_calls);
    agg->children.push_back(std::move(input));
    input = std::move(agg);

    // Rewrite select items and HAVING against the aggregate output.
    std::vector<
        std::pair<const sql::Expr*, std::pair<std::string, std::string>>>
        replacements;
    for (size_t i = 0; i < input->group_exprs.size(); ++i) {
      const Column& col = agg_schema.column(i);
      replacements.emplace_back(input->group_exprs[i].get(),
                                std::make_pair(col.qualifier, col.name));
    }
    for (size_t k = 0; k < input->agg_calls.size(); ++k) {
      const Column& col = agg_schema.column(input->group_exprs.size() + k);
      replacements.emplace_back(input->agg_calls[k].get(),
                                std::make_pair(col.qualifier, col.name));
    }
    for (ExpandedItem& item : items) {
      item.expr = RewriteWithReplacements(*item.expr, replacements);
    }
    for (sql::ExprPtr& o : order_exprs) {
      o = RewriteWithReplacements(*o, replacements);
    }
    if (having != nullptr) {
      having = RewriteWithReplacements(*having, replacements);
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr pred,
                               BindExpr(*having, input->schema));
      (void)pred;  // validation only; lowering re-binds
      // HAVING stays one unsplit conjunct: the old planner emitted a single
      // FilterOp for it, and plan goldens pin that shape.
      LogicalPtr hf = plan::MakeLogical(LogicalKind::kFilter);
      hf->schema = input->schema;
      hf->conjuncts.push_back(std::move(having));
      hf->children.push_back(std::move(input));
      input = std::move(hf);
    }
  } else if (having != nullptr) {
    return Status::BindError("HAVING without aggregation is not supported");
  }

  // ---- window functions ----
  std::vector<const sql::Expr*> window_call_ptrs;
  for (const ExpandedItem& item : items) {
    CollectWindowCalls(*item.expr, &window_call_ptrs);
  }
  for (const sql::ExprPtr& o : order_exprs) {
    CollectWindowCalls(*o, &window_call_ptrs);
  }
  if (!window_call_ptrs.empty()) {
    const Schema in_schema = input->schema;
    std::vector<plan::WindowItem> window_items;
    for (size_t i = 0; i < window_call_ptrs.size(); ++i) {
      sql::ExprPtr call = sql::CloneExpr(*window_call_ptrs[i]);
      if (!EqualsIgnoreCase(call->func_name, "row_number") &&
          !EqualsIgnoreCase(call->func_name, "rank") &&
          !EqualsIgnoreCase(call->func_name, "dense_rank")) {
        return Status::Unsupported(
            "window function " + call->func_name +
            "() is not supported (ROW_NUMBER, RANK, DENSE_RANK)");
      }
      if (!call->args.empty()) {
        return Status::BindError(call->func_name + "() takes no arguments");
      }
      if (!EqualsIgnoreCase(call->func_name, "row_number") &&
          call->window_order_by.empty()) {
        return Status::BindError(call->func_name +
                                 "() requires an ORDER BY in its window");
      }
      for (const sql::ExprPtr& p : call->partition_by) {
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*p, in_schema));
        (void)b;  // validation only; lowering re-binds
      }
      for (const auto& [expr, desc] : call->window_order_by) {
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*expr, in_schema));
        (void)b;  // validation only; lowering re-binds
      }
      plan::WindowItem item;
      item.output_name = StrFormat("#w%zu", i);
      item.call = std::move(call);
      window_items.push_back(std::move(item));
    }
    LogicalPtr win = plan::MakeLogical(LogicalKind::kWindow);
    win->schema = in_schema;
    for (const plan::WindowItem& w : window_items) {
      win->schema.Add(Column{"", w.output_name, ValueType::kInt});
    }
    win->windows = std::move(window_items);
    win->children.push_back(std::move(input));
    input = std::move(win);

    std::vector<
        std::pair<const sql::Expr*, std::pair<std::string, std::string>>>
        replacements;
    for (const plan::WindowItem& w : input->windows) {
      replacements.emplace_back(w.call.get(),
                                std::make_pair("", w.output_name));
    }
    for (ExpandedItem& item : items) {
      item.expr = RewriteWithReplacements(*item.expr, replacements);
    }
    for (sql::ExprPtr& o : order_exprs) {
      o = RewriteWithReplacements(*o, replacements);
    }
  }

  // ---- projection (with hidden ORDER BY columns where needed) ----
  const Schema in_schema = input->schema;
  std::vector<plan::ProjectItem> proj_items;
  Schema out_schema;
  for (ExpandedItem& item : items) {
    BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*item.expr, in_schema));
    (void)b;  // validation only; lowering re-binds
    plan::ProjectItem pi;
    pi.expr = std::move(item.expr);
    proj_items.push_back(std::move(pi));
    out_schema.Add(Column{"", item.name, ValueType::kNull});
  }
  const size_t visible_columns = items.size();

  // Resolve each ORDER BY key to a post-projection column: an ordinal, an
  // output name/alias, or a hidden column computed from the input schema.
  std::vector<plan::SortKeySpec> sort_keys;
  size_t hidden = 0;
  for (size_t i = 0; i < order_exprs.size(); ++i) {
    const sql::Expr& oe = *order_exprs[i];
    plan::SortKeySpec key;
    key.desc = (*order_by)[i].desc;
    if (oe.kind == sql::ExprKind::kLiteral && oe.literal.is_int()) {
      int64_t ordinal = oe.literal.AsInt();
      if (ordinal < 1 || ordinal > static_cast<int64_t>(visible_columns)) {
        return Status::BindError(
            StrFormat("ORDER BY position %lld is out of range",
                      static_cast<long long>(ordinal)));
      }
      key.ordinal = static_cast<size_t>(ordinal - 1);
    } else if (auto bound = BindExpr(oe, out_schema); bound.ok()) {
      key.expr = sql::CloneExpr(oe);
    } else {
      // Hidden column over the pre-projection schema.
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(oe, in_schema));
      (void)b;  // validation only; lowering re-binds
      if (core.distinct) {
        return Status::BindError(
            "for SELECT DISTINCT, ORDER BY expressions must appear in the "
            "select list");
      }
      plan::ProjectItem pi;
      pi.expr = sql::CloneExpr(oe);
      proj_items.push_back(std::move(pi));
      out_schema.Add(Column{"", StrFormat("#s%zu", hidden++),
                            ValueType::kNull});
      key.ordinal = out_schema.size() - 1;
    }
    sort_keys.push_back(std::move(key));
  }

  LogicalPtr proj = plan::MakeLogical(LogicalKind::kProject);
  proj->schema = out_schema;
  proj->items = std::move(proj_items);
  proj->children.push_back(std::move(input));
  LogicalPtr op = std::move(proj);

  if (core.distinct) {
    LogicalPtr distinct = plan::MakeLogical(LogicalKind::kDistinct);
    distinct->schema = op->schema;
    distinct->children.push_back(std::move(op));
    op = std::move(distinct);
  }
  if (!sort_keys.empty()) {
    LogicalPtr sort = plan::MakeLogical(LogicalKind::kSort);
    sort->schema = op->schema;
    sort->sort_keys = std::move(sort_keys);
    sort->children.push_back(std::move(op));
    op = std::move(sort);
  }
  if (hidden > 0) {
    // Strip the hidden sort columns.
    LogicalPtr strip = plan::MakeLogical(LogicalKind::kProject);
    for (size_t i = 0; i < visible_columns; ++i) {
      plan::ProjectItem pi;
      pi.ordinal = i;  // pass-through
      strip->items.push_back(std::move(pi));
      strip->schema.Add(out_schema.column(i));
    }
    strip->children.push_back(std::move(op));
    op = std::move(strip);
  }
  return op;
}

}  // namespace bornsql::engine
