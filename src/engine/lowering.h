// Physical lowering: the last stage of the planning pipeline
// (engine/logical_builder.h -> engine/optimizer.h -> here).
//
// Lowering is a mechanical translation of the (optimized) logical tree into
// executable operators: every expression is bound to column indices here
// and nowhere else, and `$n` placeholders bind to the statement's
// arguments. All strategy decisions that depend on physical properties
// also live here -- hash vs sort-merge vs nested-loop dispatch for
// extracted join keys, and the index-join rewrite (an equi join whose
// build side is a bare scan with a covering secondary index becomes an
// index probe). Everything shape-changing happened earlier, as named rules.
//
// Lowering only reads the logical plan, so one cached plan can be lowered
// by several sessions at once. The physical state of a CTE -- its body's
// operator tree and, in materialize mode, the result its gates share --
// lives in a cell the Lowering creates for the one tree it builds.
#ifndef BORNSQL_ENGINE_LOWERING_H_
#define BORNSQL_ENGINE_LOWERING_H_

#include <memory>
#include <span>
#include <unordered_map>

#include "common/status.h"
#include "engine/engine_config.h"
#include "exec/operators.h"
#include "plan/logical_plan.h"
#include "types/value.h"

namespace bornsql::engine {

// One CTE binding's physical state within one lowered tree (defined in
// lowering.cc).
struct LoweredCte;

class Lowering {
 public:
  // `args` are the statement's arguments: `$n` binds to args[n-1]. Without
  // arguments placeholders stay unbound (BoundKind::kParameter). The span
  // must outlive the Lowering.
  Lowering(const EngineConfig* config, const SystemCatalog* system_views,
           std::span<const Value> args = {})
      : config_(config), system_views_(system_views), args_(args) {}

  // Lowers the tree rooted at `node` to an operator tree. A CTE binding
  // reached through CteRef nodes is lowered once per tree into a cell every
  // gate of the tree shares (materialize mode), or re-lowered per
  // reference (inline mode, only seen when the cte_inline rule was unable
  // to run). When Lower returns, the tree is the only owner of its cells,
  // so they die with it, before the memory tracker they charged.
  Result<exec::OperatorPtr> Lower(const plan::LogicalNode& node);

 private:
  Result<exec::OperatorPtr> LowerNode(const plan::LogicalNode& node);
  Result<exec::OperatorPtr> LowerJoin(const plan::LogicalNode& node);
  // Strategy dispatch for a key-extracted join.
  Result<exec::OperatorPtr> MakeKeyedJoin(
      exec::OperatorPtr left, exec::OperatorPtr right,
      std::vector<exec::BoundExprPtr> lkeys,
      std::vector<exec::BoundExprPtr> rkeys, exec::JoinType type);

  const EngineConfig* config_;
  const SystemCatalog* system_views_;  // may be null (no system views)
  std::span<const Value> args_;
  // The cells of the tree being built, by binding; emptied by Lower.
  std::unordered_map<const plan::CteBinding*, std::shared_ptr<LoweredCte>>
      cells_;
};

}  // namespace bornsql::engine

#endif  // BORNSQL_ENGINE_LOWERING_H_
