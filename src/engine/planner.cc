#include "engine/planner.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "engine/binder.h"
#include "engine/lowering.h"
#include "engine/optimizer.h"

namespace bornsql::engine {

using exec::BoundExprPtr;
using exec::OperatorPtr;

namespace {

// Index of column `name` in `schema`; a BindError names it as `what` of
// `table` otherwise.
Result<size_t> ColumnOf(const Schema& schema, const std::string& name,
                        const char* what, const std::string& table) {
  const size_t idx = schema.FindUnqualified(name);
  if (idx == Schema::kNpos) {
    return Status::BindError(StrFormat("%s '%s' is not a column of '%s'",
                                       what, name.c_str(), table.c_str()));
  }
  return idx;
}

}  // namespace

LogicalBuildHooks Planner::MakeHooks(bool optimize) {
  LogicalBuildHooks hooks;
  if (optimize) {
    hooks.optimize = [this](plan::LogicalNode* root) {
      Optimizer opt(config_, opt_stats_, recorder_, trace_);
      opt.set_validation_log(validation_log_);
      return opt.Run(root);
    };
  }
  hooks.execute =
      [this](plan::LogicalPtr root) -> Result<exec::MaterializedChunks> {
    Optimizer opt(config_, opt_stats_, recorder_, trace_);
    opt.set_validation_log(validation_log_);
    BORNSQL_RETURN_IF_ERROR(opt.Run(root.get()));
    Lowering lowering(config_, system_views_, args_);
    // A query tracker as the statement's own, declared before the tree so
    // it outlives the operators' reservations; the folded result is
    // charged as a statement's result buffer is.
    obs::MemoryTracker query_mem("query", "query", mem_parent_);
    if (mem_limit_ > 0) query_mem.set_limit(mem_limit_);
    BORNSQL_ASSIGN_OR_RETURN(OperatorPtr op, lowering.Lower(*root));
    op->SetMemoryTracker(&query_mem);
    op->SetVectorSize(config_->vector_size);
    BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks data,
                             exec::DrainChunks(*op));
    BORNSQL_RETURN_IF_ERROR(
        query_mem.TryReserve(data.ApproxRowBytes(), "result buffer"));
    return data;
  };
  return hooks;
}

Result<OperatorPtr> Planner::PlanSelect(const sql::SelectStmt& stmt) {
  BORNSQL_ASSIGN_OR_RETURN(plan::LogicalPlan lp, BuildLogical(stmt));
  BORNSQL_RETURN_IF_ERROR(OptimizeLogical(&lp));
  return LowerLogical(lp);
}

Result<OperatorPtr> Planner::PlanStatement(const sql::Statement& stmt) {
  exec::WriteSpec spec;
  OperatorPtr rows;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      return PlanSelect(*stmt.select);
    case sql::StatementKind::kInsert:
      BORNSQL_RETURN_IF_ERROR(PlanInsert(*stmt.insert, &spec, &rows));
      break;
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete: {
      const bool update = stmt.kind == sql::StatementKind::kUpdate;
      spec.kind = update ? exec::WriteKind::kUpdate : exec::WriteKind::kDelete;
      spec.target = update ? stmt.update->table : stmt.del->table;
      BORNSQL_ASSIGN_OR_RETURN(spec.table, catalog_->GetTable(spec.target));
      spec.set_input = spec.table->schema().WithQualifier(spec.target);
      // The rows to write: a scan carrying row ids, under the WHERE filter.
      rows = std::make_unique<exec::SeqScanOp>(spec.table, spec.set_input,
                                               /*row_ids=*/true);
      const sql::Expr* where =
          update ? stmt.update->where.get() : stmt.del->where.get();
      if (where != nullptr) {
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr pred,
                                 BindFolded(*where, spec.set_input));
        rows = std::make_unique<exec::FilterOp>(std::move(rows),
                                                std::move(pred));
      }
      if (update) {
        BORNSQL_RETURN_IF_ERROR(BindSets(stmt.update->set_clauses, &spec));
      }
      break;
    }
    case sql::StatementKind::kCreateTable: {
      const sql::CreateTableStmt& create = *stmt.create_table;
      if (create.as_select == nullptr) break;
      spec.kind = exec::WriteKind::kCreateTableAs;
      spec.target = create.table;
      spec.catalog = catalog_;
      spec.if_not_exists = create.if_not_exists;
      BORNSQL_ASSIGN_OR_RETURN(rows, PlanSelect(*create.as_select));
      break;
    }
    default:
      break;
  }
  if (rows == nullptr) {
    return Status::Internal("statement has no operator plan");
  }
  return OperatorPtr(
      std::make_unique<exec::WriteOp>(std::move(rows), std::move(spec)));
}

Status Planner::PlanInsert(const sql::InsertStmt& stmt, exec::WriteSpec* spec,
                           OperatorPtr* rows) {
  spec->target = stmt.table;
  BORNSQL_ASSIGN_OR_RETURN(spec->table, catalog_->GetTable(stmt.table));
  const Schema& schema = spec->table->schema();
  if (stmt.columns.empty()) {
    spec->columns.resize(schema.size());
    std::iota(spec->columns.begin(), spec->columns.end(), size_t{0});
  }
  for (const std::string& name : stmt.columns) {
    BORNSQL_ASSIGN_OR_RETURN(size_t idx,
                             ColumnOf(schema, name, "column", stmt.table));
    spec->columns.push_back(idx);
  }
  const size_t width = spec->columns.size();
  if (stmt.select != nullptr) {
    BORNSQL_ASSIGN_OR_RETURN(*rows, PlanSelect(*stmt.select));
    if ((*rows)->schema().size() != width) {
      return Status::BindError(
          StrFormat("INSERT expects %zu columns, SELECT produced %zu", width,
                    (*rows)->schema().size()));
    }
  } else {
    std::vector<std::vector<BoundExprPtr>> values;
    for (const std::vector<sql::ExprPtr>& exprs : stmt.values) {
      if (exprs.size() != width) {
        return Status::BindError(
            StrFormat("INSERT expects %zu values per row, got %zu", width,
                      exprs.size()));
      }
      std::vector<BoundExprPtr>& row = values.emplace_back();
      for (const sql::ExprPtr& e : exprs) {
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr bound, BindFolded(*e, Schema()));
        row.push_back(std::move(bound));
      }
    }
    *rows = std::make_unique<exec::ValuesOp>(std::move(values), width);
  }
  if (stmt.on_conflict == nullptr) return Status::OK();

  spec->on_conflict = true;
  if (!spec->table->has_unique_key()) {
    return Status::BindError("ON CONFLICT requires a unique key on '" +
                             stmt.table + "'");
  }
  std::vector<size_t> targets;
  for (const std::string& name : stmt.on_conflict->target_columns) {
    BORNSQL_ASSIGN_OR_RETURN(
        size_t idx, ColumnOf(schema, name, "ON CONFLICT column", stmt.table));
    targets.push_back(idx);
  }
  const std::vector<size_t>& key = spec->table->key_columns();
  if (targets.size() != key.size() ||
      !std::is_permutation(targets.begin(), targets.end(), key.begin())) {
    return Status::BindError(
        "ON CONFLICT target does not match the table's unique key");
  }
  // SET clauses see the existing row under the table's name and the
  // incoming row under 'excluded'.
  spec->set_input = schema.WithQualifier(stmt.table);
  for (const Column& c : schema.columns()) {
    spec->set_input.Add(Column{"excluded", c.name, c.type});
  }
  if (stmt.on_conflict->do_nothing) return Status::OK();
  return BindSets(stmt.on_conflict->set_clauses, spec);
}

Status Planner::BindSets(
    const std::vector<std::pair<std::string, sql::ExprPtr>>& clauses,
    exec::WriteSpec* spec) {
  for (const auto& [col, expr] : clauses) {
    BORNSQL_ASSIGN_OR_RETURN(size_t idx, ColumnOf(spec->table->schema(), col,
                                                  "SET column", spec->target));
    BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr bound,
                             BindFolded(*expr, spec->set_input));
    spec->sets.emplace_back(idx, std::move(bound));
  }
  return Status::OK();
}

Result<BoundExprPtr> Planner::BindFolded(const sql::Expr& expr,
                                         const Schema& schema) {
  sql::ExprPtr folded = sql::CloneExpr(expr);
  LogicalBuilder builder(catalog_, config_, system_views_, opt_stats_,
                         MakeHooks(/*optimize=*/true), args_);
  BORNSQL_RETURN_IF_ERROR(builder.FoldSubqueries(folded.get()));
  return BindExpr(*folded, schema, args_);
}

Result<plan::LogicalPlan> Planner::BuildLogical(const sql::SelectStmt& stmt,
                                                bool optimize_ctes) {
  LogicalBuilder builder(catalog_, config_, system_views_, opt_stats_,
                         MakeHooks(optimize_ctes), args_);
  return builder.Build(stmt);
}

Status Planner::OptimizeLogical(plan::LogicalPlan* plan) {
  Optimizer opt(config_, opt_stats_, recorder_, trace_);
  opt.set_validation_log(validation_log_);
  return opt.Run(plan);
}

Result<OperatorPtr> Planner::LowerLogical(const plan::LogicalPlan& plan) {
  Lowering lowering(config_, system_views_, args_);
  return lowering.Lower(*plan.root);
}

}  // namespace bornsql::engine
