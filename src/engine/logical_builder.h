// AST -> logical plan. First stage of the planning pipeline
// (logical_builder -> optimizer -> lowering; engine/planner.h is the
// facade).
//
// The builder does name-level work only: star expansion, select-alias
// substitution, aggregate/window rewrites, CTE scoping, and plan-time
// subquery folding. It deliberately performs NO optimization -- the tree it
// emits is the naive form (left-deep cross joins with one Filter holding
// every WHERE/ON conjunct above them), and every rewrite the old monolithic
// planner did inline is now a named optimizer rule. One exception rides
// along by necessity: derived-table pull-up rewrites the AST itself (a
// logical tree has no "merge this subquery into my FROM list" edit), so it
// runs here, but it is still gated and counted as the rule
// "derived_table_pullup".
//
// Expressions are validated eagerly at exactly the points the monolith
// bound them, so user-facing BindError messages (and their order) are
// unchanged; the bindings themselves are discarded and lowering re-binds.
#ifndef BORNSQL_ENGINE_LOGICAL_BUILDER_H_
#define BORNSQL_ENGINE_LOGICAL_BUILDER_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/engine_config.h"
#include "obs/optimizer_stats.h"
#include "plan/logical_plan.h"
#include "sql/ast.h"
#include "types/value.h"

namespace bornsql::engine {

// Callbacks into the rest of the pipeline. The builder cannot depend on the
// optimizer or the lowering pass directly (they sit above it), but it needs
// both: CTE bodies are optimized when first built so a plan-time subquery
// execution and the outer query lower one consistent body, and subquery
// folding executes complete sub-pipelines at plan time.
struct LogicalBuildHooks {
  // Runs the rule pipeline over a freshly built CTE body. Null = no rules
  // (EXPLAIN LOGICAL uses this for its "before" rendering).
  std::function<Status(plan::LogicalNode*)> optimize;
  // Optimizes, lowers and drains a subquery plan (FoldSubqueries). Must be
  // set whenever statements can contain subqueries.
  std::function<Result<exec::MaterializedChunks>(plan::LogicalPtr)> execute;
};

class LogicalBuilder {
 public:
  // `args` are the statement's arguments, read where the builder
  // const-evaluates (LIMIT and OFFSET); everywhere else `$n` stays in the
  // plan for lowering to bind.
  LogicalBuilder(catalog::Catalog* catalog, const EngineConfig* config,
                 const SystemCatalog* system_views,
                 obs::OptimizerStatsRegistry* stats, LogicalBuildHooks hooks,
                 std::span<const Value> args = {})
      : catalog_(catalog),
        config_(config),
        system_views_(system_views),
        stats_(stats),
        hooks_(std::move(hooks)),
        args_(args) {}

  // Builds the logical plan for `stmt`. `plan.ctes` holds the bindings
  // reachable from the root, in first-reference order.
  Result<plan::LogicalPlan> Build(const sql::SelectStmt& stmt);

  // Evaluates every uncorrelated subquery inside `expr` (via the execute
  // hook) and folds the result into the tree: scalar subqueries become
  // literals, EXISTS becomes a boolean, IN (SELECT ...) a constant set. An
  // EXISTS subquery runs under a Limit(1): its first row decides it.
  Status FoldSubqueries(sql::Expr* expr);

 private:
  using CteScope =
      std::unordered_map<std::string, std::shared_ptr<plan::CteBinding>>;

  Result<plan::LogicalPtr> BuildStmt(const sql::SelectStmt& stmt);
  Result<plan::LogicalPtr> BuildCore(const sql::SelectCore& core,
                                     const std::vector<sql::OrderItem>* order_by);
  // Builds the FROM clause as a left-deep cross-join tree. `conjuncts` is
  // the WHERE pool; inner-join ON conditions are appended to it, and every
  // entry is checked to bind against some subtree of the result (the
  // monolith's bind-error behavior, kept eager so the logical verifier
  // never mistakes a user typo for a rule bug).
  Result<plan::LogicalPtr> BuildFrom(const sql::SelectCore& core,
                                     std::vector<sql::ExprPtr>* conjuncts);
  Result<plan::LogicalPtr> BuildTableRef(const sql::TableRef& ref);

  // Null if `name` is not a CTE in any enclosing scope.
  std::shared_ptr<plan::CteBinding> FindCte(const std::string& name) const;

  catalog::Catalog* catalog_;
  const EngineConfig* config_;
  const SystemCatalog* system_views_;  // may be null (no system views)
  obs::OptimizerStatsRegistry* stats_;  // may be null (stats not collected)
  LogicalBuildHooks hooks_;
  std::span<const Value> args_;
  std::vector<CteScope> cte_scopes_;
};

}  // namespace bornsql::engine

#endif  // BORNSQL_ENGINE_LOGICAL_BUILDER_H_
