// Tests for CSV import/export (engine/csv.h).
#include "engine/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "tests/test_util.h"

namespace bornsql::engine {
namespace {

using ::bornsql::testing::MustQuery;

TEST(CsvParseTest, SimpleLine) {
  auto cells = ParseCsvLine("a,b,c", ',');
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), 3u);
  EXPECT_EQ((*cells)[1], "b");
}

TEST(CsvParseTest, QuotedCellsWithCommasAndQuotes) {
  auto cells = ParseCsvLine(R"(plain,"has, comma","she said ""hi""")", ',');
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), 3u);
  EXPECT_EQ((*cells)[1], "has, comma");
  EXPECT_EQ((*cells)[2], "she said \"hi\"");
}

TEST(CsvParseTest, EmptyCells) {
  auto cells = ParseCsvLine(",,", ',');
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), 3u);
  for (const auto& c : *cells) EXPECT_TRUE(c.empty());
}

TEST(CsvParseTest, QuotedNewlineInsideCell) {
  auto rows = ParseCsv("a,\"line1\nline2\",c\nd,e,f\n", ',');
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][1], "line1\nline2");
}

TEST(CsvParseTest, CrLfAndTrailingNewlines) {
  auto rows = ParseCsv("a,b\r\nc,d\r\n\n", ',');
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1][0], "c");
}

TEST(CsvParseTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsv("a,\"open", ',').ok());
}

TEST(CsvLoadTest, CreatesTableAndInfersTypes) {
  Database db;
  auto loaded = LoadCsv(&db, "people",
                        "name,age,score\n"
                        "ada,36,9.5\n"
                        "bob,41,7.25\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 2u);
  auto r = MustQuery(db, "SELECT SUM(age), MAX(score) FROM people");
  EXPECT_EQ(r.rows[0][0].AsInt(), 77);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 9.5);
  auto name = MustQuery(db, "SELECT name FROM people WHERE age = 36");
  EXPECT_EQ(name.rows[0][0].AsText(), "ada");
}

TEST(CsvLoadTest, EmptyCellIsNull) {
  Database db;
  auto loaded = LoadCsv(&db, "t", "a,b\n1,\n,2\n");
  ASSERT_TRUE(loaded.ok());
  auto r = MustQuery(db, "SELECT COUNT(*) FROM t WHERE b IS NULL");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST(CsvLoadTest, NoTypeInference) {
  Database db;
  CsvOptions options;
  options.infer_types = false;
  auto loaded = LoadCsv(&db, "t", "a\n42\n", options);
  ASSERT_TRUE(loaded.ok());
  auto r = MustQuery(db, "SELECT a FROM t");
  EXPECT_TRUE(r.rows[0][0].is_text());
}

TEST(CsvLoadTest, IntoExistingTableCoerces) {
  Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript("CREATE TABLE t (a INTEGER, b TEXT)"));
  auto loaded = LoadCsv(&db, "t", "a,b\n1.9,hello\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto r = MustQuery(db, "SELECT a FROM t");
  EXPECT_TRUE(r.rows[0][0].is_int());
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST(CsvLoadTest, ColumnCountMismatchFails) {
  Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript("CREATE TABLE t (a INTEGER)"));
  EXPECT_FALSE(LoadCsv(&db, "t", "a,b\n1,2\n").ok());
  EXPECT_FALSE(LoadCsv(&db, "u", "a,b\n1\n").ok());  // ragged row
}

// An import is one INSERT through the write sink: it runs under the
// statement memory budget, and a failing import writes no row.
TEST(CsvLoadTest, ImportRunsUnderTheMemoryLimit) {
  Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript("CREATE TABLE v (a INTEGER, b TEXT)"));
  BORNSQL_ASSERT_OK(db.Execute("SET born.memory_limit = 1").status());
  auto loaded = LoadCsv(&db, "v", "a,b\n1,x\n2,y\n3,z\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kResourceExhausted)
      << loaded.status().ToString();
  BORNSQL_ASSERT_OK(db.Execute("SET born.memory_limit = 0").status());
  EXPECT_EQ(MustQuery(db, "SELECT COUNT(*) FROM v").rows[0][0].AsInt(), 0);
}

TEST(CsvLoadTest, RaggedRowLoadsNothing) {
  Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript("CREATE TABLE v (a INTEGER, b TEXT)"));
  EXPECT_FALSE(LoadCsv(&db, "v", "a,b\n1,x\n2,y\n3\n4,w\n").ok());
  EXPECT_EQ(MustQuery(db, "SELECT COUNT(*) FROM v").rows[0][0].AsInt(), 0);
}

TEST(CsvLoadTest, HeaderlessUsesPositionalNames) {
  Database db;
  CsvOptions options;
  options.has_header = false;
  auto loaded = LoadCsv(&db, "t", "1,x\n2,y\n", options);
  ASSERT_TRUE(loaded.ok());
  auto r = MustQuery(db, "SELECT c2 FROM t WHERE c1 = 2");
  EXPECT_EQ(r.rows[0][0].AsText(), "y");
}

TEST(CsvExportTest, RoundTrip) {
  Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript(
      "CREATE TABLE t (a INTEGER, s TEXT);"
      "INSERT INTO t VALUES (1, 'plain'), (2, 'with, comma'), "
      "(3, NULL)"));
  auto result = db.Execute("SELECT a, s FROM t ORDER BY a");
  ASSERT_TRUE(result.ok());
  std::string csv = ToCsv(*result);
  EXPECT_EQ(csv,
            "a,s\n"
            "1,plain\n"
            "2,\"with, comma\"\n"
            "3,\n");

  Database db2;
  auto loaded = LoadCsv(&db2, "t", csv);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 3u);
  auto r = MustQuery(db2, "SELECT s FROM t WHERE a = 2");
  EXPECT_EQ(r.rows[0][0].AsText(), "with, comma");
}

TEST(CsvFileTest, LoadAndDumpFiles) {
  const char* in_path = "/tmp/bornsql_csv_in.csv";
  const char* out_path = "/tmp/bornsql_csv_out.csv";
  {
    std::ofstream out(in_path);
    out << "k,v\n1,10\n2,20\n";
  }
  Database db;
  auto loaded = LoadCsvFile(&db, "kv", in_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 2u);
  BORNSQL_ASSERT_OK(
      DumpCsvFile(&db, "SELECT k, v * 2 AS d FROM kv ORDER BY k", out_path));
  std::ifstream in(out_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "k,d\n1,20\n2,40\n");
  std::remove(in_path);
  std::remove(out_path);
}

TEST(CsvFileTest, MissingFileFails) {
  Database db;
  EXPECT_FALSE(LoadCsvFile(&db, "t", "/does/not/exist.csv").ok());
}

}  // namespace
}  // namespace bornsql::engine
