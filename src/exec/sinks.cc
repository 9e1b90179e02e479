#include "exec/sinks.h"

#include <algorithm>

namespace bornsql::exec {
namespace {

// Coerces `row` cell-wise to the declared column types of `schema` (a
// kNull column is dynamically typed and takes any value).
Status CoerceRow(const Schema& schema, Row* row) {
  for (size_t i = 0; i < row->size(); ++i) {
    const ValueType target = schema.column(i).type;
    if (target == ValueType::kNull) continue;
    BORNSQL_ASSIGN_OR_RETURN((*row)[i], (*row)[i].CoerceTo(target));
  }
  return Status::OK();
}

// Moves the first `width` cells of row `i` of `chunk` into a Row.
Row TakeRow(DataChunk& chunk, size_t i, size_t width) {
  Row row;
  row.reserve(width);
  for (size_t c = 0; c < width; ++c) {
    row.push_back(std::move(chunk.column(c)[i]));
  }
  return row;
}

}  // namespace

ValuesOp::ValuesOp(std::vector<std::vector<BoundExprPtr>> rows, size_t width)
    : MaterializedScanOp(
          Schema(std::vector<Column>(width, Column{"", "", ValueType::kNull}))),
      rows_(std::move(rows)) {}

Status ValuesOp::Produce(DataChunk* rows) {
  DataChunk one_row;  // no columns, one row
  one_row.SetCardinality(1);
  std::vector<Value> v;
  for (const std::vector<BoundExprPtr>& exprs : rows_) {
    for (size_t c = 0; c < exprs.size(); ++c) {
      BORNSQL_RETURN_IF_ERROR(EvalChunk(*exprs[c], one_row, &v));
      rows->column(c).push_back(std::move(v[0]));
    }
  }
  rows->SetCardinality(rows_.size());
  return Status::OK();
}

WriteOp::WriteOp(OperatorPtr child, WriteSpec spec)
    : MaterializedScanOp(
          Schema({Column{"", "rows_affected", ValueType::kInt}})),
      child_(std::move(child)),
      spec_(std::move(spec)) {
  for (const SetClause& set : spec_.sets) set_exprs_.push_back(set.second.get());
}

std::string WriteOp::DebugString() const {
  const char* name = spec_.target.c_str();
  switch (spec_.kind) {
    case WriteKind::kInsert:
      return StrFormat("Insert(%s%s)", name,
                       spec_.on_conflict ? ", on conflict" : "");
    case WriteKind::kUpdate:
      return StrFormat("Update(%s, %zu set clauses)", name, spec_.sets.size());
    case WriteKind::kDelete:
      return StrFormat("Delete(%s)", name);
    case WriteKind::kCreateTableAs:
      return StrFormat("CreateTableAs(%s)", name);
  }
  return "Write";
}

Status WriteOp::Produce(DataChunk* rows) {
  input_.clear();
  row_ids_.clear();
  size_t written = 0;
  if (spec_.kind == WriteKind::kCreateTableAs &&
      spec_.catalog->Exists(spec_.target)) {
    if (!spec_.if_not_exists) {
      return Status::AlreadyExists("table '" + spec_.target +
                                   "' already exists");
    }
  } else {
    BORNSQL_RETURN_IF_ERROR(child_->Open());
    DataChunk chunk;
    size_t consumed = 0;
    while (true) {
      BORNSQL_ASSIGN_OR_RETURN(bool more, child_->Next(&chunk));
      if (!more) break;
      RecordPeakEntries(consumed += chunk.size());
      if (spec_.kind == WriteKind::kUpdate ||
          spec_.kind == WriteKind::kDelete) {
        BORNSQL_RETURN_IF_ERROR(ChargeMemory(chunk.size() * sizeof(size_t)));
        for (const Value& id : chunk.column(chunk.column_count() - 1)) {
          row_ids_.push_back(static_cast<size_t>(id.AsInt()));
        }
        if (spec_.kind == WriteKind::kDelete) continue;
      }
      BORNSQL_RETURN_IF_ERROR(ChargeMemory(chunk.ApproxRowBytes()));
      input_.push_back(std::move(chunk));
    }
    BORNSQL_RETURN_IF_ERROR(FlushMemory());
    child_->Close(/*release=*/true);
    BORNSQL_ASSIGN_OR_RETURN(written, Write());
    input_.clear();
    ReleaseMemory();
  }
  rows->column(0).push_back(Value::Int(static_cast<int64_t>(written)));
  rows->SetCardinality(1);
  return Status::OK();
}

Result<size_t> WriteOp::Write() {
  storage::Table* table = spec_.table;
  switch (spec_.kind) {
    case WriteKind::kInsert:
      return Insert();
    case WriteKind::kUpdate: {
      // Every new row is computed before any is applied.
      std::vector<Row> rows;
      for (DataChunk& chunk : input_) {
        BORNSQL_RETURN_IF_ERROR(SetRows(chunk, &rows));
        chunk.Clear();
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        BORNSQL_RETURN_IF_ERROR(
            table->UpdateRow(row_ids_[i], std::move(rows[i])));
      }
      return rows.size();
    }
    case WriteKind::kDelete: {
      std::vector<bool> doomed(table->row_count(), false);
      for (size_t id : row_ids_) doomed[id] = true;
      return table->DeleteRows(doomed);
    }
    case WriteKind::kCreateTableAs:
      break;
  }
  Schema schema;
  for (const Column& c : child_->schema().columns()) {
    schema.Add(Column{spec_.target, c.name, ValueType::kNull});
  }
  BORNSQL_ASSIGN_OR_RETURN(
      table,
      spec_.catalog->CreateTable(spec_.target, std::move(schema), {}, false));
  for (DataChunk& chunk : input_) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      table->AppendUnchecked(TakeRow(chunk, i, chunk.column_count()));
    }
    chunk.Clear();
  }
  return table->row_count();
}

Result<size_t> WriteOp::Insert() {
  storage::Table& table = *spec_.table;
  const size_t width = table.schema().size();
  // Updates batch while each pending one has a row of its own, up to 256:
  // the rows a batch updates then stay in cache from probe to write (the
  // unlearn upsert wrote 1.5x slower in batches of 2048). A SET clause that
  // writes a key changes what later rows conflict with, so it applies each
  // update before the next row probes.
  size_t batch = std::min<size_t>(vector_size(), 256);
  for (const SetClause& set : spec_.sets) {
    const std::vector<size_t>& key = table.key_columns();
    if (std::find(key.begin(), key.end(), set.first) != key.end()) batch = 1;
  }
  size_t written = 0;
  pairs_.Reset(2 * width);
  pending_.clear();
  pending_rows_.clear();
  for (DataChunk& chunk : input_) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      Row row(width);
      for (size_t c = 0; c < spec_.columns.size(); ++c) {
        row[spec_.columns[c]] = std::move(chunk.column(c)[i]);
      }
      BORNSQL_RETURN_IF_ERROR(CoerceRow(table.schema(), &row));
      const size_t existing = spec_.on_conflict ? table.FindConflict(row)
                                                : storage::Table::kNpos;
      if (existing == storage::Table::kNpos) {
        BORNSQL_RETURN_IF_ERROR(table.Insert(std::move(row)));
        ++written;
        continue;
      }
      if (spec_.sets.empty()) continue;  // DO NOTHING
      // A second update of one row must see the first.
      if (pending_rows_.count(existing) > 0) {
        BORNSQL_RETURN_IF_ERROR(ApplyPending(&written));
      }
      const Row& old_row = table.rows()[existing];
      for (size_t c = 0; c < width; ++c) {
        pairs_.column(c).push_back(old_row[c]);
        pairs_.column(width + c).push_back(std::move(row[c]));
      }
      pairs_.SetCardinality(pairs_.size() + 1);
      pending_.push_back(existing);
      pending_rows_.insert(existing);
      if (pending_.size() >= batch) {
        BORNSQL_RETURN_IF_ERROR(ApplyPending(&written));
      }
    }
    chunk.Clear();
  }
  BORNSQL_RETURN_IF_ERROR(ApplyPending(&written));
  return written;
}

Status WriteOp::ApplyPending(size_t* written) {
  if (pending_.empty()) return Status::OK();
  std::vector<Row> rows;
  BORNSQL_RETURN_IF_ERROR(SetRows(pairs_, &rows));
  for (size_t p = 0; p < rows.size(); ++p) {
    BORNSQL_RETURN_IF_ERROR(
        spec_.table->UpdateRow(pending_[p], std::move(rows[p])));
  }
  *written += rows.size();
  pairs_.Clear();
  pending_.clear();
  pending_rows_.clear();
  return Status::OK();
}

Status WriteOp::SetRows(DataChunk& chunk, std::vector<Row>* rows) {
  const Schema& schema = spec_.table->schema();
  std::vector<std::vector<Value>> scratch;
  KeyColumnRefs values;
  BORNSQL_RETURN_IF_ERROR(EvalExprs(set_exprs_, chunk, &scratch, &values));
  std::vector<Value> set(values.size());
  for (size_t i = 0; i < chunk.size(); ++i) {
    // Copied out first: a bare column clause aliases the cells TakeRow moves.
    for (size_t s = 0; s < values.size(); ++s) set[s] = (*values[s])[i];
    Row row = TakeRow(chunk, i, schema.size());
    for (size_t s = 0; s < values.size(); ++s) {
      row[spec_.sets[s].first] = std::move(set[s]);
    }
    BORNSQL_RETURN_IF_ERROR(CoerceRow(schema, &row));
    rows->push_back(std::move(row));
  }
  return Status::OK();
}

}  // namespace bornsql::exec
