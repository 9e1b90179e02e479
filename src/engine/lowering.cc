#include "engine/lowering.h"

#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "engine/binder.h"

namespace bornsql::engine {

// The first gate to Open() drains `plan` into `data`; later gates of the
// same tree reuse the buffer. The buffer keeps the body's output chunks in
// columnar form, so every scan serves chunks with contiguous column copies
// instead of re-materializing rows.
struct LoweredCte {
  exec::OperatorPtr plan;
  // The body's output chunks verbatim: the first gate to Open() steals them
  // wholesale from the plan (no per-value work), and every gate re-emits
  // them as slices.
  std::shared_ptr<exec::MaterializedChunks> data;
  // Total charge for scanning `data`, computed once when the buffer is
  // filled: per row, sizeof(Row) plus the row's ApproxValueBytes. Every
  // gate charges this sum instead of re-walking the buffer per Open.
  uint64_t data_bytes = 0;
};

using exec::BoundExprPtr;
using exec::Operator;
using exec::OperatorPtr;
using plan::LogicalJoinKind;
using plan::LogicalKind;
using plan::LogicalNode;

namespace {

// Exposes the child's rows under a new qualifier (table alias).
class RelabelOp : public Operator {
 public:
  RelabelOp(OperatorPtr child, const std::string& qualifier)
      : child_(std::move(child)),
        schema_(child_->schema().WithQualifier(qualifier)) {}
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override {
    return StrFormat("Relabel(%s)",
                     schema_.size() > 0 ? schema_.column(0).qualifier.c_str()
                                        : "");
  }
  std::vector<Operator*> children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextImpl(exec::DataChunk* out) override {
    return child_->Next(out);
  }

 private:
  OperatorPtr child_;
  Schema schema_;
};

// Scan over a shared, lazily-computed CTE result. The first gate to Open()
// runs the CTE's plan; later gates (and re-opens) reuse the rows.
class CteGateOp : public Operator {
 public:
  CteGateOp(std::shared_ptr<LoweredCte> cell, std::string qualifier)
      : cell_(std::move(cell)),
        schema_(cell_->plan->schema().WithQualifier(qualifier)) {}
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override {
    return StrFormat("CteScan(%s%s)",
                     schema_.size() > 0 ? schema_.column(0).qualifier.c_str()
                                        : "",
                     cell_->data != nullptr ? ", materialized" : "");
  }
  std::vector<Operator*> children() const override {
    return {cell_->plan.get()};
  }

 protected:
  Status OpenImpl() override {
    if (cell_->data == nullptr) {
      // First gate: steal the CTE plan's output chunks wholesale. No
      // per-row (or even per-value) work happens on the drain side; the
      // buffered chunks are re-emitted as slices by every gate.
      BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks data,
                               exec::DrainChunks(*cell_->plan));
      cell_->data_bytes = data.ApproxRowBytes();
      cell_->data =
          std::make_shared<exec::MaterializedChunks>(std::move(data));
    }
    pos_ = 0;
    // Re-Open releases the prior charge first. The shared buffer is charged
    // once per gate scanning it — a deliberate overcount for shared
    // results, so each consumer's budget sees the rows it reads. The charge
    // is the cached per-row sum, arithmetically identical to ApproxRowBytes
    // over the materialized rows this buffer replaces.
    ReleaseMemory();
    BORNSQL_RETURN_IF_ERROR(ChargeMemory(cell_->data_bytes));
    RecordPeakEntries(cell_->data->row_count);
    return FlushMemory();
  }
  Result<bool> NextImpl(exec::DataChunk* out) override {
    const std::vector<exec::DataChunk>& chunks = cell_->data->chunks;
    out->Reset(schema_.size());
    if (pos_ >= chunks.size()) return false;
    // Serve one buffered chunk per pull. Chunks are ≤ the vector size of
    // the engine that produced them, which is this gate's vector size too.
    out->AppendRange(chunks[pos_], 0, chunks[pos_].size());
    ++pos_;
    return true;
  }
  // Frees the shared buffer; the cell keeps its (now empty) data so the
  // plan line still reads materialized.
  void ReleaseImpl() override {
    if (cell_->data != nullptr) cell_->data->chunks = {};
  }

 private:
  std::shared_ptr<LoweredCte> cell_;
  Schema schema_;
  size_t pos_ = 0;  // index of the next buffered chunk to emit
};

// If every key is a bare column of the (bare-scan) table and the column set
// is covered by a secondary index, returns the index id; kNpos otherwise.
size_t MatchIndex(const storage::Table* table,
                  const std::vector<BoundExprPtr>& keys) {
  if (table == nullptr) return storage::Table::kNpos;
  std::vector<size_t> cols;
  for (const BoundExprPtr& k : keys) {
    if (k == nullptr || k->kind != exec::BoundKind::kColumn) {
      return storage::Table::kNpos;
    }
    cols.push_back(k->column_index);
  }
  return table->FindIndexOn(cols);
}

// Orders the probing side's key expressions to match the index column
// layout: outer key p pairs with inner key p, and inner key p is the bare
// column inner_keys[p]->column_index.
std::vector<BoundExprPtr> ReorderOuterKeys(
    const std::vector<size_t>& index_cols,
    std::vector<BoundExprPtr>* inner_keys,
    std::vector<BoundExprPtr>* outer_keys) {
  std::vector<BoundExprPtr> out;
  for (size_t ic : index_cols) {
    for (size_t p = 0; p < inner_keys->size(); ++p) {
      if ((*inner_keys)[p] != nullptr &&
          (*inner_keys)[p]->column_index == ic) {
        out.push_back(std::move((*outer_keys)[p]));
        (*inner_keys)[p].reset();
        break;
      }
    }
  }
  return out;
}

// The underlying table when `node` would lower to a bare sequential scan
// (the precondition for the index-join rewrite), else null.
const storage::Table* BareScanTable(const LogicalNode& node) {
  if (node.kind != LogicalKind::kScan || node.is_system_view) return nullptr;
  return node.table;
}

}  // namespace

Result<OperatorPtr> Lowering::MakeKeyedJoin(OperatorPtr left,
                                            OperatorPtr right,
                                            std::vector<BoundExprPtr> lkeys,
                                            std::vector<BoundExprPtr> rkeys,
                                            exec::JoinType type) {
  switch (config_->join_strategy) {
    case JoinStrategy::kSortMerge:
      return OperatorPtr(std::make_unique<exec::SortMergeJoinOp>(
          std::move(left), std::move(right), std::move(lkeys),
          std::move(rkeys), type));
    case JoinStrategy::kHash:
    case JoinStrategy::kNestedLoop:  // nested-loop never extracts keys
      return OperatorPtr(std::make_unique<exec::HashJoinOp>(
          std::move(left), std::move(right), std::move(lkeys),
          std::move(rkeys), type));
  }
  return Status::Internal("bad join strategy");
}

Result<OperatorPtr> Lowering::LowerJoin(const LogicalNode& node) {
  const LogicalNode& lchild = *node.children[0];
  const LogicalNode& rchild = *node.children[1];
  BORNSQL_ASSIGN_OR_RETURN(OperatorPtr left, LowerNode(lchild));
  BORNSQL_ASSIGN_OR_RETURN(OperatorPtr right, LowerNode(rchild));

  if (!node.keys.empty()) {
    std::vector<BoundExprPtr> lkeys;
    std::vector<BoundExprPtr> rkeys;
    for (const plan::JoinKeyPair& k : node.keys) {
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr bl,
                               BindExpr(*k.left, left->schema(), args_));
      BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr br,
                               BindExpr(*k.right, right->schema(), args_));
      lkeys.push_back(std::move(bl));
      rkeys.push_back(std::move(br));
    }
    if (node.join_kind == LogicalJoinKind::kLeft) {
      return MakeKeyedJoin(std::move(left), std::move(right),
                           std::move(lkeys), std::move(rkeys),
                           exec::JoinType::kLeft);
    }
    if (config_->join_strategy == JoinStrategy::kHash &&
        config_->use_index_joins) {
      // Probe the indexed side with the other side's rows. Output column
      // order must stay left-then-right either way.
      const storage::Table* right_base = BareScanTable(rchild);
      const storage::Table* left_base = BareScanTable(lchild);
      size_t idx = MatchIndex(right_base, rkeys);
      if (idx != storage::Table::kNpos) {
        Schema inner_schema = right->schema();
        std::vector<BoundExprPtr> outer_keys = ReorderOuterKeys(
            right_base->index_columns(idx), &rkeys, &lkeys);
        return OperatorPtr(std::make_unique<exec::IndexJoinOp>(
            std::move(left), right_base, std::move(inner_schema), idx,
            std::move(outer_keys), /*inner_on_left=*/false));
      }
      if ((idx = MatchIndex(left_base, lkeys)) != storage::Table::kNpos) {
        Schema inner_schema = left->schema();
        std::vector<BoundExprPtr> outer_keys = ReorderOuterKeys(
            left_base->index_columns(idx), &lkeys, &rkeys);
        return OperatorPtr(std::make_unique<exec::IndexJoinOp>(
            std::move(right), left_base, std::move(inner_schema), idx,
            std::move(outer_keys), /*inner_on_left=*/true));
      }
    }
    return MakeKeyedJoin(std::move(left), std::move(right), std::move(lkeys),
                         std::move(rkeys), exec::JoinType::kInner);
  }

  if (node.join_kind == LogicalJoinKind::kLeft) {
    // Non-equi (or nested-loop strategy) LEFT join: bind the whole ON
    // clause against the concatenated schema.
    BoundExprPtr pred;
    if (node.on_condition != nullptr) {
      Schema combined = Schema::Concat(left->schema(), right->schema());
      BORNSQL_ASSIGN_OR_RETURN(
          pred, BindExpr(*node.on_condition, combined, args_));
    }
    return OperatorPtr(std::make_unique<exec::NestedLoopJoinOp>(
        std::move(left), std::move(right), std::move(pred),
        exec::JoinType::kLeft));
  }
  return OperatorPtr(std::make_unique<exec::NestedLoopJoinOp>(
      std::move(left), std::move(right), nullptr, exec::JoinType::kCross));
}

Result<OperatorPtr> Lowering::Lower(const LogicalNode& node) {
  Result<OperatorPtr> tree = LowerNode(node);
  cells_.clear();
  return tree;
}

Result<OperatorPtr> Lowering::LowerNode(const LogicalNode& node) {
  switch (node.kind) {
    case LogicalKind::kScan: {
      if (node.is_system_view) {
        if (system_views_ == nullptr) {
          return Status::Internal("system view scan without a SystemCatalog");
        }
        return system_views_->MakeViewScan(node.table_name, node.qualifier);
      }
      if (node.table == nullptr) {
        return Status::Internal("table scan without a resolved table");
      }
      Schema schema = node.table->schema().WithQualifier(node.qualifier);
      return OperatorPtr(
          std::make_unique<exec::SeqScanOp>(node.table, std::move(schema)));
    }

    case LogicalKind::kCteRef: {
      if (node.cte == nullptr || node.cte->plan == nullptr) {
        return Status::Internal("CteRef without a built body");
      }
      if (config_->materialize_ctes) {
        auto it = cells_.find(node.cte.get());
        if (it == cells_.end()) {
          auto cell = std::make_shared<LoweredCte>();
          BORNSQL_ASSIGN_OR_RETURN(cell->plan, LowerNode(*node.cte->plan));
          it = cells_.emplace(node.cte.get(), std::move(cell)).first;
        }
        return OperatorPtr(
            std::make_unique<CteGateOp>(it->second, node.qualifier));
      }
      // Inline mode normally removes CteRefs via the cte_inline rule;
      // re-lower the body per reference when one survives anyway.
      BORNSQL_ASSIGN_OR_RETURN(OperatorPtr sub, LowerNode(*node.cte->plan));
      return OperatorPtr(
          std::make_unique<RelabelOp>(std::move(sub), node.qualifier));
    }

    case LogicalKind::kSingleRow:
      return OperatorPtr(std::make_unique<exec::SingleRowOp>());

    case LogicalKind::kRelabel: {
      BORNSQL_ASSIGN_OR_RETURN(OperatorPtr child, LowerNode(*node.children[0]));
      return OperatorPtr(
          std::make_unique<RelabelOp>(std::move(child), node.qualifier));
    }

    case LogicalKind::kFilter: {
      BORNSQL_ASSIGN_OR_RETURN(OperatorPtr child, LowerNode(*node.children[0]));
      for (const sql::ExprPtr& c : node.conjuncts) {
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr pred,
                                 BindExpr(*c, child->schema(), args_));
        child = std::make_unique<exec::FilterOp>(std::move(child),
                                                 std::move(pred));
      }
      return child;
    }

    case LogicalKind::kProject: {
      BORNSQL_ASSIGN_OR_RETURN(OperatorPtr child, LowerNode(*node.children[0]));
      std::vector<BoundExprPtr> exprs;
      for (const plan::ProjectItem& item : node.items) {
        if (item.expr != nullptr) {
          BORNSQL_ASSIGN_OR_RETURN(
              BoundExprPtr b, BindExpr(*item.expr, child->schema(), args_));
          exprs.push_back(std::move(b));
        } else {
          exprs.push_back(exec::BoundColumn(item.ordinal));
        }
      }
      return OperatorPtr(std::make_unique<exec::ProjectOp>(
          std::move(child), std::move(exprs), node.schema));
    }

    case LogicalKind::kJoin:
      return LowerJoin(node);

    case LogicalKind::kAggregate: {
      BORNSQL_ASSIGN_OR_RETURN(OperatorPtr child, LowerNode(*node.children[0]));
      const Schema& in_schema = child->schema();
      std::vector<BoundExprPtr> bound_groups;
      for (const sql::ExprPtr& g : node.group_exprs) {
        BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr b,
                                 BindExpr(*g, in_schema, args_));
        bound_groups.push_back(std::move(b));
      }
      std::vector<exec::AggSpec> specs;
      for (const sql::ExprPtr& call : node.agg_calls) {
        exec::AggFunc func;
        exec::LookupAggFunc(call->func_name, &func);
        exec::AggSpec spec;
        if (call->args.size() == 1 &&
            call->args[0]->kind == sql::ExprKind::kStar) {
          spec.func = exec::AggFunc::kCountStar;
          spec.arg = nullptr;
        } else if (call->args.size() == 1) {
          spec.func = func;
          BORNSQL_ASSIGN_OR_RETURN(
              spec.arg, BindExpr(*call->args[0], in_schema, args_));
        } else {
          return Status::BindError("aggregate " + call->func_name +
                                   "() takes exactly one argument");
        }
        specs.push_back(std::move(spec));
      }
      return OperatorPtr(std::make_unique<exec::HashAggOp>(
          std::move(child), std::move(bound_groups), std::move(specs),
          node.schema));
    }

    case LogicalKind::kWindow: {
      BORNSQL_ASSIGN_OR_RETURN(OperatorPtr child, LowerNode(*node.children[0]));
      const Schema& in_schema = child->schema();
      std::vector<exec::WindowSpec> specs;
      for (const plan::WindowItem& item : node.windows) {
        const sql::Expr& call = *item.call;
        exec::WindowSpec spec;
        if (EqualsIgnoreCase(call.func_name, "row_number")) {
          spec.func = exec::WindowFunc::kRowNumber;
        } else if (EqualsIgnoreCase(call.func_name, "rank")) {
          spec.func = exec::WindowFunc::kRank;
        } else if (EqualsIgnoreCase(call.func_name, "dense_rank")) {
          spec.func = exec::WindowFunc::kDenseRank;
        } else {
          return Status::Unsupported(
              "window function " + call.func_name +
              "() is not supported (ROW_NUMBER, RANK, DENSE_RANK)");
        }
        spec.output_name = item.output_name;
        for (const sql::ExprPtr& p : call.partition_by) {
          BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr b,
                                   BindExpr(*p, in_schema, args_));
          spec.partition_by.push_back(std::move(b));
        }
        for (const auto& [expr, desc] : call.window_order_by) {
          exec::SortKey key;
          key.desc = desc;
          BORNSQL_ASSIGN_OR_RETURN(key.expr,
                                   BindExpr(*expr, in_schema, args_));
          spec.order_by.push_back(std::move(key));
        }
        specs.push_back(std::move(spec));
      }
      return OperatorPtr(std::make_unique<exec::WindowOp>(std::move(child),
                                                          std::move(specs)));
    }

    case LogicalKind::kSort: {
      BORNSQL_ASSIGN_OR_RETURN(OperatorPtr child, LowerNode(*node.children[0]));
      std::vector<exec::SortKey> keys;
      for (const plan::SortKeySpec& spec : node.sort_keys) {
        exec::SortKey key;
        key.desc = spec.desc;
        if (spec.expr != nullptr) {
          BORNSQL_ASSIGN_OR_RETURN(
              key.expr, BindExpr(*spec.expr, child->schema(), args_));
        } else {
          key.expr = exec::BoundColumn(spec.ordinal);
        }
        keys.push_back(std::move(key));
      }
      return OperatorPtr(
          std::make_unique<exec::SortOp>(std::move(child), std::move(keys)));
    }

    case LogicalKind::kLimit: {
      BORNSQL_ASSIGN_OR_RETURN(OperatorPtr child, LowerNode(*node.children[0]));
      return OperatorPtr(std::make_unique<exec::LimitOp>(
          std::move(child), node.limit, node.offset));
    }

    case LogicalKind::kDistinct: {
      BORNSQL_ASSIGN_OR_RETURN(OperatorPtr child, LowerNode(*node.children[0]));
      return OperatorPtr(std::make_unique<exec::DistinctOp>(std::move(child)));
    }

    case LogicalKind::kUnion: {
      std::vector<OperatorPtr> children;
      for (const plan::LogicalPtr& c : node.children) {
        BORNSQL_ASSIGN_OR_RETURN(OperatorPtr child, LowerNode(*c));
        children.push_back(std::move(child));
      }
      return OperatorPtr(
          std::make_unique<exec::UnionAllOp>(std::move(children)));
    }
  }
  return Status::Internal("bad logical node kind");
}

}  // namespace bornsql::engine
