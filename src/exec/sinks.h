// The write sink at the root of every INSERT, UPDATE, DELETE and CREATE
// TABLE ... AS operator tree (engine/planner.h PlanStatement), and the
// VALUES source of INSERT ... VALUES. The sink drains its whole input before
// its first write (Halloween protection: a statement never reads its own
// writes), charging the buffer to the query's MemoryTracker, then writes
// the table, coercing each cell to its column's declared type.
#ifndef BORNSQL_EXEC_SINKS_H_
#define BORNSQL_EXEC_SINKS_H_

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "exec/operators.h"

namespace bornsql::exec {

// The rows of INSERT ... VALUES: one bound expression per cell, bound to
// no columns, each evaluated over a 1-row chunk into its column when the
// scan opens, row by row.
class ValuesOp : public MaterializedScanOp {
 public:
  ValuesOp(std::vector<std::vector<BoundExprPtr>> rows, size_t width);
  std::string DebugString() const override {
    return StrFormat("Values(%zu rows)", rows_.size());
  }

 protected:
  Status Produce(DataChunk* rows) override;

 private:
  std::vector<std::vector<BoundExprPtr>> rows_;
};

enum class WriteKind { kInsert, kUpdate, kDelete, kCreateTableAs };

// A (table column, expression) pair of a SET clause.
using SetClause = std::pair<size_t, BoundExprPtr>;

// The input of UPDATE and DELETE carries each row's table position as a
// trailing column.
struct WriteSpec {
  WriteKind kind = WriteKind::kInsert;
  std::string target;               // the table as the statement spells it
  storage::Table* table = nullptr;  // null for CREATE TABLE ... AS
  // INSERT: the table column each input column fills (the rest stay NULL).
  std::vector<size_t> columns;
  // INSERT ... ON CONFLICT: a row whose key exists is updated by `sets`,
  // or skipped when `sets` is empty (DO NOTHING).
  bool on_conflict = false;
  // UPDATE and ON CONFLICT DO UPDATE, bound against `set_input`: the table
  // under its name, then for ON CONFLICT the incoming row as `excluded`.
  std::vector<SetClause> sets;
  Schema set_input;
  catalog::Catalog* catalog = nullptr;  // CREATE TABLE ... AS; with IF NOT
  bool if_not_exists = false;  // EXISTS, an existing table ends it unrun
};

// Emits one row, the number of rows written (QueryResult::rows_affected),
// as a scan of a 1-row result. The input is drained, charged and written
// in Produce; its charge is released once the write is done.
class WriteOp : public MaterializedScanOp {
 public:
  WriteOp(OperatorPtr child, WriteSpec spec);
  std::string DebugString() const override;
  std::vector<Operator*> children() const override { return {child_.get()}; }
  void CollectBindings(std::vector<ExprBinding>* out) const override {
    for (const SetClause& set : spec_.sets) {
      out->push_back({set.second.get(), &spec_.set_input, "set clause", -1});
    }
  }
  // Columns each input row must carry (the plan verifier's BSV005 check).
  size_t input_width() const {
    if (spec_.kind == WriteKind::kInsert) return spec_.columns.size();
    if (spec_.table == nullptr) return child_->schema().size();
    return spec_.table->schema().size() + 1;  // UPDATE, DELETE: + row id
  }

 protected:
  Status Produce(DataChunk* rows) override;

 private:
  // Writes the drained input; returns the rows written.
  Result<size_t> Write();
  Result<size_t> Insert();
  // Applies the pending ON CONFLICT updates, in statement order.
  Status ApplyPending(size_t* written);
  // The new row each row of `chunk` makes, whose first cells are a table
  // row: its SET columns replaced, coerced to the table's types.
  Status SetRows(DataChunk& chunk, std::vector<Row>* rows);

  OperatorPtr child_;
  WriteSpec spec_;
  std::vector<const BoundExpr*> set_exprs_;  // spec_.sets' expressions
  std::vector<DataChunk> input_;
  std::vector<size_t> row_ids_;  // all DELETE keeps of its input
  // ON CONFLICT DO UPDATE: (existing ++ excluded) pairs awaiting their SET
  // clauses, and each one's table row.
  DataChunk pairs_;
  std::vector<size_t> pending_;
  std::unordered_set<size_t> pending_rows_;
};

}  // namespace bornsql::exec

#endif  // BORNSQL_EXEC_SINKS_H_
