// Plan-invariant verifier: structural sanity checks over a physical
// operator tree, run before execution.
//
// The planner's rewrites (predicate pushdown, equi-join extraction, CTE
// gating, relabeling, index-join substitution) all manipulate column
// indices and schema widths by hand; a single off-by-one silently reads the
// wrong column. The verifier re-derives the invariants those rewrites must
// preserve and reports every violation as a coded diagnostic (BSVnnn):
//
//   BSV001  bound column index out of range for the operator's input row
//   BSV002  pass-through operator changes its child's column count
//   BSV003  join output width != left width + right width
//   BSV004  UNION ALL input width != output width
//   BSV005  projection/aggregate/window output width inconsistent with the
//           expressions that produce it, or a write sink's input width
//           with the columns it writes
//   BSV006  equi-join key pair with irreconcilable types (text vs numeric)
//
// Debug builds run it on every planned statement (EngineConfig::
// verify_plans); any build can request it via EXPLAIN VERIFY.
#ifndef BORNSQL_LINT_PLAN_VERIFIER_H_
#define BORNSQL_LINT_PLAN_VERIFIER_H_

#include <vector>

#include "common/status.h"
#include "exec/operators.h"
#include "lint/diagnostic.h"

namespace bornsql::lint {

// Walks the tree rooted at `root` and returns every invariant violation
// (error severity, no source span: plans have no SQL position). The second
// out-param, when non-null, receives the number of individual checks that
// ran — EXPLAIN VERIFY reports it so "ok" is distinguishable from "nothing
// was checked".
std::vector<Diagnostic> VerifyPlan(const exec::Operator& root,
                                   size_t* checks_run = nullptr);

// Convenience for the engine's pre-execution hook: OK when the plan is
// clean, Internal with every violation joined into the message otherwise.
Status VerifyPlanStatus(const exec::Operator& root);

}  // namespace bornsql::lint

#endif  // BORNSQL_LINT_PLAN_VERIFIER_H_
