// Shared helpers for BornSQL tests.
#ifndef BORNSQL_TESTS_TEST_UTIL_H_
#define BORNSQL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "exec/operators.h"

namespace bornsql::testing {

// Fails the current test if `status_expr` is not OK.
#define BORNSQL_EXPECT_OK(status_expr)                        \
  do {                                                        \
    auto _st = (status_expr);                                 \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                  \
  } while (0)

#define BORNSQL_ASSERT_OK(status_expr)                        \
  do {                                                        \
    auto _st = (status_expr);                                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                  \
  } while (0)

// Runs `sql`, asserting success, and returns the result.
inline engine::QueryResult MustQuery(engine::Database& db,
                                     std::string_view sql) {
  auto result = db.Execute(sql);
  EXPECT_TRUE(result.ok()) << "query failed: " << result.status().ToString()
                           << "\nsql: " << sql;
  if (!result.ok()) return engine::QueryResult{};
  return std::move(result).value();
}

// Renders a result as "a|b|c\n..." rows sorted lexicographically, for
// order-insensitive comparisons.
inline std::vector<std::string> RowStrings(const engine::QueryResult& result,
                                           bool sorted = true) {
  std::vector<std::string> out;
  for (const Row& row : result.rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += "|";
      line += row[i].ToString();
    }
    out.push_back(std::move(line));
  }
  if (sorted) std::sort(out.begin(), out.end());
  return out;
}

// A scan serving `rows` under `schema`, to drive operators directly.
inline exec::OperatorPtr RowsScan(Schema schema, std::vector<Row> rows) {
  exec::DataChunk chunk;
  chunk.Reset(schema.size());
  for (Row& row : rows) chunk.AppendRow(std::move(row));
  return std::make_unique<exec::MaterializedScanOp>(std::move(chunk),
                                                    std::move(schema));
}

// Opens and drains `op`, returning its rows in output order.
inline Result<std::vector<Row>> DrainRows(exec::Operator& op) {
  BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks data,
                           exec::DrainChunks(op));
  std::vector<Row> rows;
  for (const exec::DataChunk& chunk : data.chunks) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      Row& row = rows.emplace_back();
      for (size_t c = 0; c < chunk.column_count(); ++c) {
        row.push_back(chunk.column(c)[i]);
      }
    }
  }
  return rows;
}

}  // namespace bornsql::testing

#endif  // BORNSQL_TESTS_TEST_UTIL_H_
