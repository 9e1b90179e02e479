#include "engine/csv.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "sql/ast.h"

namespace bornsql::engine {
namespace {

// Parses a cell into a Value per the inference rules.
Value CellToValue(const std::string& cell, const CsvOptions& options) {
  if (cell == options.null_marker) return Value::Null();
  if (!options.infer_types) return Value::Text(cell);
  if (cell.empty()) return Value::Null();
  // Integer?
  {
    int64_t v = 0;
    auto [ptr, ec] = std::from_chars(cell.data(), cell.data() + cell.size(), v);
    if (ec == std::errc() && ptr == cell.data() + cell.size()) {
      return Value::Int(v);
    }
  }
  // Double?
  {
    char* endp = nullptr;
    double v = std::strtod(cell.c_str(), &endp);
    if (endp == cell.c_str() + cell.size()) return Value::Double(v);
  }
  return Value::Text(cell);
}

bool NeedsQuoting(const std::string& cell, char delimiter) {
  for (char c : cell) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteCell(const std::string& cell, char delimiter) {
  if (!NeedsQuoting(cell, delimiter)) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<std::vector<std::string>> ParseCsvLine(const std::string& line,
                                              char delimiter) {
  BORNSQL_ASSIGN_OR_RETURN(auto rows, ParseCsv(line, delimiter));
  if (rows.empty()) return std::vector<std::string>{};
  if (rows.size() != 1) {
    return Status::InvalidArgument("line contains embedded record breaks");
  }
  return rows[0];
}

Result<std::vector<std::vector<std::string>>> ParseCsv(
    const std::string& text, char delimiter) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool cell_started = false;

  auto end_cell = [&]() {
    row.push_back(std::move(cell));
    cell.clear();
    cell_started = false;
  };
  auto end_row = [&]() {
    end_cell();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
      continue;
    }
    if (c == '"' && !cell_started && cell.empty()) {
      in_quotes = true;
      cell_started = true;
      continue;
    }
    if (c == delimiter) {
      end_cell();
      continue;
    }
    if (c == '\r') continue;
    if (c == '\n') {
      // Skip fully-empty trailing lines.
      if (row.empty() && cell.empty() && !cell_started) continue;
      end_row();
      continue;
    }
    cell += c;
    cell_started = true;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted cell");
  }
  if (!row.empty() || !cell.empty() || cell_started) end_row();
  return rows;
}

Result<size_t> LoadCsv(Database* db, const std::string& table,
                       const std::string& text, const CsvOptions& options) {
  BORNSQL_ASSIGN_OR_RETURN(auto records, ParseCsv(text, options.delimiter));
  if (records.empty()) return size_t{0};

  size_t first_data = 0;
  std::vector<std::string> header;
  if (options.has_header) {
    header = records[0];
    first_data = 1;
  } else {
    for (size_t c = 0; c < records[0].size(); ++c) {
      header.push_back(StrFormat("c%zu", c + 1));
    }
  }
  // Every record is checked before anything is written.
  for (size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() != header.size()) {
      return Status::InvalidArgument(
          StrFormat("CSV row %zu has %zu cells, expected %zu", r + 1,
                    records[r].size(), header.size()));
    }
  }

  if (db->catalog().Exists(table)) {
    BORNSQL_ASSIGN_OR_RETURN(storage::Table * dest,
                             db->catalog().GetTable(table));
    if (dest->schema().size() != header.size()) {
      return Status::InvalidArgument(StrFormat(
          "CSV has %zu columns but table '%s' has %zu", header.size(),
          table.c_str(), dest->schema().size()));
    }
  } else {
    Schema schema;
    for (const std::string& name : header) {
      schema.Add(Column{table, name, ValueType::kNull});
    }
    BORNSQL_RETURN_IF_ERROR(
        db->catalog().CreateTable(table, std::move(schema), {}, false)
            .status());
  }
  if (records.size() == first_data) return size_t{0};

  // One INSERT through the write sink, which coerces each cell to its
  // column's type. The cells are literals, not SQL text, so a REAL cell
  // such as 1e5 stays REAL.
  sql::Statement insert;
  insert.kind = sql::StatementKind::kInsert;
  insert.insert = std::make_unique<sql::InsertStmt>();
  insert.insert->table = table;
  for (size_t r = first_data; r < records.size(); ++r) {
    std::vector<sql::ExprPtr>& cells = insert.insert->values.emplace_back();
    for (const std::string& cell : records[r]) {
      cells.push_back(sql::MakeLiteral(CellToValue(cell, options)));
    }
  }
  BORNSQL_ASSIGN_OR_RETURN(
      QueryResult result,
      db->ExecuteParsed(insert, "INSERT INTO " + table + " VALUES (csv)"));
  return result.rows_affected;
}

Result<size_t> LoadCsvFile(Database* db, const std::string& table,
                           const std::string& path,
                           const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open CSV file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadCsv(db, table, buffer.str(), options);
}

std::string ToCsv(const QueryResult& result, const CsvOptions& options) {
  std::string out;
  if (options.has_header) {
    for (size_t c = 0; c < result.column_names.size(); ++c) {
      if (c > 0) out += options.delimiter;
      out += QuoteCell(result.column_names[c], options.delimiter);
    }
    out += '\n';
  }
  for (const Row& row : result.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += options.delimiter;
      if (row[c].is_null()) {
        out += options.null_marker;
      } else {
        out += QuoteCell(row[c].ToString(), options.delimiter);
      }
    }
    out += '\n';
  }
  return out;
}

Status DumpCsvFile(Database* db, const std::string& query,
                   const std::string& path, const CsvOptions& options) {
  BORNSQL_ASSIGN_OR_RETURN(QueryResult result, db->Execute(query));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  out << ToCsv(result, options);
  if (!out.good()) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace bornsql::engine
