// Typed parameter placeholders for PREPARE/EXECUTE and plan caching.
//
// The lexer produces `?` (unnumbered) and `$n` (numbered) placeholders;
// the parser carries them as sql::ExprKind::kParameter. This module is the
// single ordering authority for them: AnalyzeParameters walks a statement
// in one canonical order, assigns 1-based ordinals to bare `?` occurrences,
// validates `$n` numbering, and records each parameter's source span for
// EXECUTE-time diagnostics. InferParameterTypes adds best-effort types from
// context (INSERT column lists, UPDATE SET targets, comparisons against
// catalog columns) so EXECUTE can coerce arguments up front and report
// mismatches with the placeholder's line:column instead of failing mid-scan.
// The statement itself is never rewritten: its arguments go to the planner,
// which binds `$n` to the n-th one (engine/binder.h).
//
// The same walker powers the serving layer's plan cache (serve/plan_cache.h):
// IsCacheable decides once, at PREPARE, whether a body's plan can be cached;
// ParameterizeLiterals turns an ad-hoc SELECT into a parameterized template
// (literals -> fresh `?` ordinals, except in ordinal-sensitive positions:
// ORDER BY keys, LIMIT and OFFSET keep their literals, matching the builder
// which resolves ORDER BY 2 positionally and const-evaluates LIMIT), and
// KeptLiteralSuffix feeds the literals that stayed inline into the cache
// key, so "ORDER BY 1" and "ORDER BY 2" never collide on the normalized
// text "ORDER BY ?".
#ifndef BORNSQL_ENGINE_PARAMETERS_H_
#define BORNSQL_ENGINE_PARAMETERS_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "sql/ast.h"
#include "types/value.h"

namespace bornsql::engine {

// One parameter of a prepared statement.
struct ParameterSlot {
  sql::SourceLoc loc;                 // first occurrence in the source
  ValueType type = ValueType::kNull;  // inferred; kNull => dynamic
};

// Assigns ordinals to bare `?` placeholders (canonical walk order) and
// validates `$n` numbering: mixing `?` with `$n` in one statement is an
// error (the ordinal order would be ambiguous), and numbered parameters
// must cover 1..N without gaps. Returns one slot per ordinal. A statement
// without placeholders yields an empty vector.
Result<std::vector<ParameterSlot>> AnalyzeParameters(sql::Statement* stmt);

// Best-effort type inference from context; leaves a slot's type at kNull
// when nothing unambiguous is found. Looks at INSERT VALUES positions,
// UPDATE SET targets, and comparisons of a catalog-resolvable column
// against a placeholder.
void InferParameterTypes(const sql::Statement& stmt,
                         const catalog::Catalog& catalog,
                         std::vector<ParameterSlot>* slots);

// Checks arity against `slots` and coerces each argument to its inferred
// type. Errors carry the placeholder's source span and `name` (the
// prepared statement's name) for attribution.
Result<std::vector<Value>> CoerceArguments(
    const std::vector<ParameterSlot>& slots, const std::string& name,
    std::vector<Value> args);

// True when any expression in the statement is a placeholder.
bool HasParameters(const sql::Statement& stmt);

// True when the plan cache can hold the statement's plan: a SELECT with no
// expression subquery (scalar, IN, EXISTS: the planner folds those by
// executing them at plan time, which embeds data-dependent constants) and
// no placeholder in an ordinal-sensitive position (LIMIT and OFFSET, which
// the builder const-evaluates, and ORDER BY keys).
bool IsCacheable(const sql::Statement& stmt);

// Auto-parameterization for ad-hoc SELECT caching: replaces source
// literals (valid source span, non-NULL) with fresh `?` placeholders in
// canonical walk order, appending each literal's value to `*args`. Skips
// ORDER BY keys, LIMIT and OFFSET at every nesting level. Returns the
// number of literals replaced. Call only on statements that passed the
// cacheability checks (kSelect, no subquery expressions, no existing
// placeholders).
size_t ParameterizeLiterals(sql::Statement* stmt, std::vector<Value>* args);

// Values of the literals still inline in the statement (ordinal-sensitive
// positions plus anything ParameterizeLiterals skipped), in canonical walk
// order, rendered as a stable cache-key fragment like "i2,t'abc'".
std::string KeptLiteralSuffix(const sql::Statement& stmt);

}  // namespace bornsql::engine

#endif  // BORNSQL_ENGINE_PARAMETERS_H_
