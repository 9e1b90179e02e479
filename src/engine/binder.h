// Lowers parsed sql::Expr trees into index-resolved exec::BoundExpr trees
// against a schema, plus the AST analysis helpers the planner needs
// (conjunct splitting, aggregate/window detection, structural equality).
#ifndef BORNSQL_ENGINE_BINDER_H_
#define BORNSQL_ENGINE_BINDER_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "exec/evaluator.h"
#include "sql/ast.h"
#include "types/schema.h"
#include "types/value.h"

namespace bornsql::engine {

// Binds `expr` against `schema`. Aggregate and window calls are rejected:
// the planner rewrites them into plain column references before binding.
// `args` are the statement's arguments: with any, `$n` binds to the
// literal args[n-1]; without, it stays a BoundKind::kParameter placeholder.
Result<exec::BoundExprPtr> BindExpr(const sql::Expr& expr,
                                    const Schema& schema,
                                    std::span<const Value> args = {});

// True if `expr` binds against `schema` without error (used for predicate
// placement during join planning).
bool BindsTo(const sql::Expr& expr, const Schema& schema);

// Appends the top-level AND conjuncts of `expr` to `out` (ownership moves).
void SplitConjuncts(sql::ExprPtr expr, std::vector<sql::ExprPtr>* out);

// Structural equality, case-insensitive on identifiers and function names.
bool ExprEquals(const sql::Expr& a, const sql::Expr& b);

// True if the tree contains an aggregate function call (outside windows).
bool ContainsAggregate(const sql::Expr& expr);

// True if the tree contains a window function node.
bool ContainsWindow(const sql::Expr& expr);

// Evaluates a constant expression (no column references); `$n` reads
// args[n-1].
Result<Value> EvalConstExpr(const sql::Expr& expr,
                            std::span<const Value> args = {});

// True if `e` is `lhs = rhs` with lhs bindable to `left` and rhs to `right`
// (or flipped); outputs the side-ordered subexpressions. Shared by the
// equi-join extraction rule (engine/optimizer.cc) and the logical builder's
// LEFT JOIN handling.
bool IsEquiPair(const sql::Expr& e, const Schema& left, const Schema& right,
                const sql::Expr** lexpr, const sql::Expr** rexpr);

}  // namespace bornsql::engine

#endif  // BORNSQL_ENGINE_BINDER_H_
