// Planner facade: statement AST -> executable operator tree. A SELECT
// plans as a three-stage pipeline with an explicit logical plan in the
// middle:
//
//   engine/logical_builder.h   AST -> naive logical tree (name-level only)
//   engine/optimizer.h         named rewrite rules over the logical tree
//   engine/lowering.h          logical tree -> bound physical operators
//
// The stages are also exposed individually (BuildLogical / OptimizeLogical /
// LowerLogical) for EXPLAIN LOGICAL, the shell's .plan command and tests.
// Optimizations -- predicate pushdown, equi-join extraction, CTE
// materialize/inline, derived-table pull-up, constant folding, filter
// reordering, projection pruning -- are all named optimizer rules with
// per-rule enable flags (EngineConfig::rules) and ablation benches.
#ifndef BORNSQL_ENGINE_PLANNER_H_
#define BORNSQL_ENGINE_PLANNER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/engine_config.h"
#include "engine/logical_builder.h"
#include "exec/operators.h"
#include "exec/sinks.h"
#include "obs/memory.h"
#include "obs/optimizer_stats.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"
#include "sql/ast.h"
#include "types/value.h"

namespace bornsql::engine {

struct RewriteValidationLog;  // engine/optimizer.h

class Planner {
 public:
  // `opt_stats` feeds born_stat_optimizer; `recorder` + `trace` add one
  // trace span per optimizer rule to the statement's trace. All three may
  // be null (and default so: existing call sites keep working).
  Planner(catalog::Catalog* catalog, const EngineConfig* config,
          const SystemCatalog* system_views = nullptr,
          obs::OptimizerStatsRegistry* opt_stats = nullptr,
          const obs::TraceRecorder* recorder = nullptr,
          obs::StatementTrace* trace = nullptr)
      : catalog_(catalog),
        config_(config),
        system_views_(system_views),
        opt_stats_(opt_stats),
        recorder_(recorder),
        trace_(trace) {}

  // Builds the operator tree for `stmt` (build + optimize + lower). The
  // returned tree is self-contained except that base-table scans borrow the
  // catalog's tables: the catalog must outlive execution, and tables must
  // not be mutated while the tree runs.
  Result<exec::OperatorPtr> PlanSelect(const sql::SelectStmt& stmt);

  // The operator tree of a statement that produces or writes rows: a
  // SELECT's, or a write sink (exec/sinks.h) at the root of INSERT, UPDATE,
  // DELETE and CREATE TABLE ... AS. Everything it names binds here, so
  // plain EXPLAIN fails as execution does. DML expressions bind against
  // the table with subqueries folded; no optimizer rule runs on them.
  Result<exec::OperatorPtr> PlanStatement(const sql::Statement& stmt);

  // ---- individual pipeline stages ----

  // AST -> logical plan. When `optimize_ctes` is false, CTE bodies are
  // built naive too (EXPLAIN LOGICAL's "before rules" rendering).
  Result<plan::LogicalPlan> BuildLogical(const sql::SelectStmt& stmt,
                                         bool optimize_ctes = true);
  // Runs the rule pipeline over `plan` in place.
  Status OptimizeLogical(plan::LogicalPlan* plan);
  // Logical -> physical. Expects an optimized plan (a naive one lowers
  // correctly but reproduces the unoptimized execution).
  Result<exec::OperatorPtr> LowerLogical(const plan::LogicalPlan& plan);

  // Collects translation-validation results (BSV011-016) into `log`
  // instead of failing the statement; see Optimizer::set_validation_log.
  void set_validation_log(RewriteValidationLog* log) {
    validation_log_ = log;
  }

  // The parent and byte limit (0 = none) of the query tracker a folded
  // subquery runs under: the ones the statement's own execution uses.
  void set_memory_budget(obs::MemoryTracker* parent, uint64_t limit) {
    mem_parent_ = parent;
    mem_limit_ = limit;
  }

  // The statement's arguments: `$n` binds to args[n-1] wherever this
  // planner binds or const-evaluates (lowering, folded subqueries, DML
  // expressions, LIMIT and OFFSET). None by default: placeholders then stay
  // unbound, as in a plan built for the cache. Must outlive the planner.
  void set_arguments(std::span<const Value> args) { args_ = args; }

 private:
  // Hook bundle for a LogicalBuilder. `optimize` controls whether CTE
  // bodies get the rule pipeline; the execute hook always runs full
  // optimize + lower (plan-time subquery results must match execution).
  LogicalBuildHooks MakeHooks(bool optimize);
  // Fills `spec` and plans the rows an INSERT writes.
  Status PlanInsert(const sql::InsertStmt& stmt, exec::WriteSpec* spec,
                    exec::OperatorPtr* rows);
  // Binds SET clauses against spec->set_input into spec->sets.
  Status BindSets(
      const std::vector<std::pair<std::string, sql::ExprPtr>>& clauses,
      exec::WriteSpec* spec);
  // Binds `expr` against `schema` after evaluating every uncorrelated
  // subquery in it and folding the result into the tree: scalar subqueries
  // become literals, EXISTS a boolean, IN (SELECT ...) a hashed constant
  // set. Correlated subqueries fail with BindError.
  Result<exec::BoundExprPtr> BindFolded(const sql::Expr& expr,
                                        const Schema& schema);

  catalog::Catalog* catalog_;
  const EngineConfig* config_;
  const SystemCatalog* system_views_;  // may be null (no system views)
  obs::OptimizerStatsRegistry* opt_stats_;  // may be null
  const obs::TraceRecorder* recorder_;      // may be null
  obs::StatementTrace* trace_;              // may be null
  RewriteValidationLog* validation_log_ = nullptr;  // may be null
  obs::MemoryTracker* mem_parent_ = nullptr;        // may be null
  uint64_t mem_limit_ = 0;
  std::span<const Value> args_;
};

}  // namespace bornsql::engine

#endif  // BORNSQL_ENGINE_PLANNER_H_
