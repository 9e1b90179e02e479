// Logical plan IR: the relational-algebra tree between the AST and the
// physical operator tree.
//
// The pipeline (engine/logical_builder.h -> engine/optimizer.h ->
// engine/lowering.h) is:
//
//   sql::SelectStmt --build--> LogicalPlan --rules--> LogicalPlan
//                  --lower--> exec::OperatorPtr
//
// Like the AST, nodes use one tagged struct rather than a class hierarchy:
// rewrite rules pattern-match on `kind` and mutate payload fields in place,
// which stays simple precisely because there is no virtual interface to
// preserve. Expressions are carried unbound (sql::Expr, name-based): rules
// move predicates and prune columns by rewriting trees of names, and the
// lowering pass re-binds everything to column indices at the end, so no
// rule ever has to fix up indices after a rewrite.
//
// The IR holds no physical state. Once the rules have run, a plan is
// immutable: lowering only reads it (and keeps the CTE results of the one
// tree it builds to itself), so the serving plan cache lowers one shared
// plan from many sessions at once, and `$n` placeholders stay in the plan
// until lowering binds them to the statement's arguments.
#ifndef BORNSQL_PLAN_LOGICAL_PLAN_H_
#define BORNSQL_PLAN_LOGICAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "storage/table.h"
#include "types/schema.h"

namespace bornsql::plan {

struct LogicalNode;
using LogicalPtr = std::unique_ptr<LogicalNode>;

// One WITH entry within one statement. Shared (shared_ptr) by every
// CteRef that resolves to it, so a subquery folded at plan time and the
// outer query read one body plan. Each lowered tree materializes the body
// at most once (engine/lowering.h).
struct CteBinding {
  std::string name;
  const sql::SelectStmt* stmt = nullptr;  // definition; not owned
  // Logical plan of the body. Built (and rule-optimized) lazily at the
  // first reference, so a WITH entry that is never referenced is never
  // planned -- and never has the chance to fail.
  LogicalPtr plan;
};

enum class LogicalKind {
  kScan,       // base table or system view
  kCteRef,     // reference to a CteBinding
  kSingleRow,  // FROM-less SELECT: one empty row
  kRelabel,    // expose child under a new qualifier (derived-table alias)
  kFilter,     // conjunct list, applied in order
  kProject,    // computed and/or pass-through columns
  kJoin,
  kAggregate,
  kWindow,
  kSort,
  kLimit,
  kDistinct,
  kUnion,  // UNION ALL
};

enum class LogicalJoinKind { kInner, kLeft, kCross };

// One output column of a Project. Either a computed expression or a
// pass-through of child column `ordinal` (expr == nullptr); pass-throughs
// are what projection pruning inserts, and they copy the child column
// verbatim (qualifier included) so name resolution above is undisturbed.
struct ProjectItem {
  sql::ExprPtr expr;
  size_t ordinal = 0;
};

// One ORDER BY key: an expression over the input schema, or (expr ==
// nullptr) a positional reference resolved at build time (ordinal syntax
// and the planner's hidden sort columns).
struct SortKeySpec {
  sql::ExprPtr expr;
  size_t ordinal = 0;
  bool desc = false;
};

// One window function call plus the name of the column it appends.
struct WindowItem {
  sql::ExprPtr call;  // sql::ExprKind::kWindow
  std::string output_name;
};

// One extracted equi-join key pair, side-ordered (left binds to the left
// child, right to the right child).
struct JoinKeyPair {
  sql::ExprPtr left;
  sql::ExprPtr right;
};

struct LogicalNode {
  LogicalKind kind = LogicalKind::kSingleRow;
  sql::SourceLoc loc;
  // Output schema, maintained by the builder and refreshed via
  // RecomputeSchemas after rules that change column sets.
  Schema schema;
  std::vector<LogicalPtr> children;

  // kScan. `table` is null for system views (resolved again at lowering).
  std::string table_name;
  bool is_system_view = false;
  const storage::Table* table = nullptr;

  // kScan / kCteRef / kRelabel: exposed qualifier (alias or table name).
  std::string qualifier;

  // kCteRef
  std::shared_ptr<CteBinding> cte;

  // kFilter: ANDed conjuncts; lowering emits one FilterOp per conjunct, in
  // order (first conjunct innermost).
  std::vector<sql::ExprPtr> conjuncts;

  // kProject
  std::vector<ProjectItem> items;

  // kJoin. `keys` is filled by equi-join extraction; `on_condition` holds a
  // LEFT JOIN's ON clause while it is not (or cannot be) key-extracted.
  LogicalJoinKind join_kind = LogicalJoinKind::kCross;
  std::vector<JoinKeyPair> keys;
  sql::ExprPtr on_condition;

  // kAggregate: schema is group columns then one column per call.
  std::vector<sql::ExprPtr> group_exprs;
  std::vector<sql::ExprPtr> agg_calls;

  // kWindow: schema is the child's columns plus one per item.
  std::vector<WindowItem> windows;

  // kSort
  std::vector<SortKeySpec> sort_keys;

  // kLimit (values already const-evaluated by the builder)
  int64_t limit = 0;
  int64_t offset = 0;
};

// A statement's logical plan: the root plus every CTE binding created while
// building it (in first-reference order; for rendering and bookkeeping --
// CteRef nodes hold their own shared_ptr).
struct LogicalPlan {
  LogicalPtr root;
  std::vector<std::shared_ptr<CteBinding>> ctes;
};

LogicalPtr MakeLogical(LogicalKind kind);

// Deep copy of the tree. CteBindings are shared, not cloned.
LogicalPtr CloneLogical(const LogicalNode& node);

// Recomputes `schema` bottom-up from the children for every node whose
// schema is derived (joins, filters, projects, ...). Leaf schemas (Scan,
// CteRef, SingleRow) are trusted as stored. Called after rules that narrow
// column sets (projection pruning).
void RecomputeSchemas(LogicalNode* node);

// Every CteBinding reachable from `root` (through CteRef nodes, descending
// into bodies), deduplicated, in first-encounter DFS order. Used to refresh
// LogicalPlan::ctes after rules that add or remove references (cte_inline).
std::vector<std::shared_ptr<CteBinding>> CollectCtes(const LogicalNode& root);

// Compact SQL-ish rendering of an expression for EXPLAIN LOGICAL and plan
// goldens (there is deliberately no parse-back guarantee).
std::string ExprToText(const sql::Expr& e);

// One line per node, two-space indent per depth, followed by a "with
// <name>:" section per CTE binding in `plan.ctes`.
std::vector<std::string> RenderLogicalLines(const LogicalPlan& plan);
// Renders a subtree only (no CTE sections).
std::vector<std::string> RenderLogicalTree(const LogicalNode& node);

}  // namespace bornsql::plan

#endif  // BORNSQL_PLAN_LOGICAL_PLAN_H_
