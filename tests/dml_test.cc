// DML semantics through the write sinks: plain EXPLAIN binds a write as
// execution does, CREATE TABLE IF NOT EXISTS ... AS skips an existing
// table, and a sweep pins what INSERT, upsert, UPDATE, DELETE and
// CREATE TABLE ... AS write (and report in rows_affected) at vector sizes
// 1, 3 and 2048.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "tests/test_util.h"

namespace bornsql::engine {
namespace {

using ::bornsql::testing::MustQuery;
using ::bornsql::testing::RowStrings;

using Lines = std::vector<std::string>;

// `status` rendered without the statement position its message may end
// with: EXPLAIN's prefix shifts the position, nothing else.
std::string WithoutPosition(const Status& status) {
  const std::string text = status.ToString();
  return text.substr(0, text.find(" (at line "));
}

TEST(DmlExplainTest, PlainExplainFailsAsExecutionDoes) {
  Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript(
      "CREATE TABLE t (a INTEGER, b INTEGER); INSERT INTO t VALUES (1, 2)"));
  for (const std::string sql :
       {"INSERT INTO t (nope) VALUES (1)", "UPDATE t SET nope = 1 WHERE a = 1",
        "UPDATE t SET a = 1 WHERE nope = 1",
        "INSERT INTO t (a) SELECT a, b FROM t"}) {
    const Status explained = db.Execute("EXPLAIN " + sql).status();
    const Status executed = db.Execute(sql).status();
    EXPECT_FALSE(executed.ok()) << sql;
    EXPECT_EQ(WithoutPosition(explained), WithoutPosition(executed)) << sql;
  }
  EXPECT_EQ(RowStrings(MustQuery(db, "SELECT a, b FROM t")), Lines{"1|2"});
}

TEST(DmlExplainTest, InsertSelectWidthBindsWithoutRows) {
  Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript(
      "CREATE TABLE t (a INTEGER, b INTEGER); INSERT INTO t VALUES (1, 2)"));
  const Status with_rows =
      db.Execute("INSERT INTO t (a) SELECT a, b FROM t").status();
  const Status no_rows =
      db.Execute("INSERT INTO t (a) SELECT a, b FROM t WHERE a > 100")
          .status();
  EXPECT_EQ(with_rows.code(), StatusCode::kBindError);
  EXPECT_EQ(no_rows.ToString(), with_rows.ToString());
}

TEST(DmlTest, CreateTableIfNotExistsAsSkipsAnExistingTable) {
  Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript(
      "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2)"));
  // The SELECT would fail on its first row; it never runs.
  auto skipped =
      db.Execute("CREATE TABLE IF NOT EXISTS t AS SELECT a + 'x' AS c FROM t");
  BORNSQL_ASSERT_OK(skipped.status());
  EXPECT_EQ(skipped->rows_affected, 0u);
  const QueryResult t = MustQuery(db, "SELECT * FROM t");
  EXPECT_EQ(t.column_names, Lines{"a"});
  EXPECT_EQ(RowStrings(t), (Lines{"1", "2"}));
  // Binding still comes first.
  const Status unbound =
      db.Execute("CREATE TABLE IF NOT EXISTS t AS SELECT nope FROM t")
          .status();
  EXPECT_FALSE(unbound.ok());
  EXPECT_EQ(WithoutPosition(unbound),
            WithoutPosition(db.Execute("SELECT nope FROM t").status()));
}

class DmlSweepTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    BORNSQL_ASSERT_OK(
        db_.Execute("SET born.vector_size = " + std::to_string(GetParam()))
            .status());
  }
  // Runs `sql` and returns its rows_affected.
  size_t Affected(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? r->rows_affected : 0;
  }
  Lines Rows(const std::string& sql) { return RowStrings(MustQuery(db_, sql)); }

  Database db_;
};

TEST_P(DmlSweepTest, DuplicateKeysInOneUpsertApplyInStatementOrder) {
  // w = w * 10 + excluded.w is order-sensitive. Rows 3 and 4 are a
  // duplicate pair split across the chunk boundary at vector size 3.
  BORNSQL_ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE acc (j TEXT PRIMARY KEY, w INTEGER);"
      "INSERT INTO acc VALUES ('a', 1), ('d', 1);"
      "CREATE TABLE src (n INTEGER, j TEXT, w INTEGER);"
      "INSERT INTO src VALUES (1, 'a', 2), (2, 'b', 1), (3, 'd', 2), "
      "(4, 'd', 3), (5, 'a', 4), (6, 'b', 5)"));
  EXPECT_EQ(Affected("INSERT INTO acc SELECT j, w FROM src ORDER BY n "
                     "ON CONFLICT (j) DO UPDATE SET w = acc.w * 10 + "
                     "excluded.w"),
            6u);
  EXPECT_EQ(Rows("SELECT j, w FROM acc"), (Lines{"a|124", "b|15", "d|123"}));

  BORNSQL_ASSERT_OK(
      db_.Execute("CREATE TABLE u (j TEXT PRIMARY KEY, w REAL)").status());
  EXPECT_EQ(Affected("INSERT INTO u VALUES ('a', 1.0), ('a', 2.0) "
                     "ON CONFLICT (j) DO UPDATE SET w = u.w + excluded.w"),
            2u);
  EXPECT_EQ(Rows("SELECT j, w FROM u"), Lines{"a|3"});
}

TEST_P(DmlSweepTest, DoNothingKeepsTheFirstDuplicate) {
  BORNSQL_ASSERT_OK(
      db_.Execute("CREATE TABLE acc (j TEXT PRIMARY KEY, w INTEGER)").status());
  EXPECT_EQ(Affected("INSERT INTO acc VALUES ('x', 1), ('y', 1), ('x', 2) "
                     "ON CONFLICT (j) DO NOTHING"),
            2u);
  EXPECT_EQ(Rows("SELECT j, w FROM acc"), (Lines{"x|1", "y|1"}));
}

TEST_P(DmlSweepTest, InsertSelectFromItsOwnTableReadsEachRowOnce) {
  BORNSQL_ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE t (a INTEGER, b TEXT);"
      "INSERT INTO t VALUES (1, 'p'), (2, 'q'), (3, 'r'), (4, 's')"));
  EXPECT_EQ(Affected("INSERT INTO t SELECT a + 10, b FROM t"), 4u);
  EXPECT_EQ(Rows("SELECT a, b FROM t"),
            (Lines{"11|p", "12|q", "13|r", "14|s", "1|p", "2|q", "3|r",
                   "4|s"}));
}

TEST_P(DmlSweepTest, UpdateReadsTheOldRow) {
  BORNSQL_ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE t (a INTEGER, b INTEGER);"
      "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)"));
  EXPECT_EQ(Affected("UPDATE t SET a = b, b = a WHERE a >= 2"), 3u);
  EXPECT_EQ(Rows("SELECT a, b FROM t"),
            (Lines{"1|10", "20|2", "30|3", "40|4"}));
}

TEST_P(DmlSweepTest, UpdateOfAKeyReindexes) {
  BORNSQL_ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE k (id INTEGER PRIMARY KEY, v INTEGER);"
      "INSERT INTO k VALUES (1, 0), (2, 0), (3, 0), (4, 0)"));
  EXPECT_EQ(Affected("UPDATE k SET id = id + 10 WHERE id <> 2"), 3u);
  EXPECT_EQ(Affected("INSERT INTO k VALUES (11, 5), (1, 7) "
                     "ON CONFLICT (id) DO UPDATE SET v = k.v + excluded.v"),
            2u);
  EXPECT_EQ(Rows("SELECT id, v FROM k"),
            (Lines{"11|5", "13|0", "14|0", "1|7", "2|0"}));
}

TEST_P(DmlSweepTest, DeleteWithAndWithoutWhere) {
  BORNSQL_ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE t (a INTEGER);"
      "INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7)"));
  EXPECT_EQ(Affected("DELETE FROM t WHERE a % 3 = 1"), 3u);
  EXPECT_EQ(Rows("SELECT a FROM t"), (Lines{"2", "3", "5", "6"}));
  EXPECT_EQ(Affected("DELETE FROM t"), 4u);
  EXPECT_EQ(Rows("SELECT a FROM t"), Lines{});
}

TEST_P(DmlSweepTest, CreateTableAs) {
  BORNSQL_ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE t (a INTEGER);"
      "INSERT INTO t VALUES (1), (2), (3), (4), (5)"));
  EXPECT_EQ(Affected("CREATE TABLE c AS SELECT a, a * 2 AS d FROM t "
                     "WHERE a <> 3"),
            4u);
  const QueryResult c = MustQuery(db_, "SELECT * FROM c");
  EXPECT_EQ(c.column_names, (Lines{"a", "d"}));
  EXPECT_EQ(RowStrings(c), (Lines{"1|2", "2|4", "4|8", "5|10"}));
}

INSTANTIATE_TEST_SUITE_P(VectorSizes, DmlSweepTest,
                         ::testing::Values(size_t{1}, size_t{3},
                                           size_t{2048}));

}  // namespace
}  // namespace bornsql::engine
