// SQL linter tests: every BSLnnn rule has a golden trigger and a golden
// non-trigger, plus diagnostic ordering/dedupe and the EXPLAIN LINT surface.
#include "lint/linter.h"

#include <gtest/gtest.h>

#include "engine/database.h"
#include "lint/diagnostic.h"
#include "tests/test_util.h"

namespace bornsql::lint {
namespace {

using ::bornsql::testing::MustQuery;

std::vector<Diagnostic> MustLint(std::string_view sql,
                                 const catalog::Catalog* catalog = nullptr) {
  auto r = LintSql(sql, catalog);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nsql: " << sql;
  return r.ok() ? std::move(r).value() : std::vector<Diagnostic>{};
}

// Codes of all findings, in reported order.
std::vector<std::string> Codes(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diags) out.push_back(d.code);
  return out;
}

bool HasCode(const std::vector<Diagnostic>& diags, std::string_view code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// BSL001: comma join with no connecting predicate.

TEST(LintTest, Bsl001TriggersOnDisconnectedCommaJoin) {
  auto diags = MustLint("SELECT 1 FROM a, b");
  ASSERT_TRUE(HasCode(diags, "BSL001")) << "got: " << diags.size();
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_NE(diags[0].message.find("CROSS JOIN"), std::string::npos);
  // The span points at the disconnected table reference.
  EXPECT_TRUE(diags[0].loc.valid());
}

TEST(LintTest, Bsl001SilentWhenPredicateConnectsTheTables) {
  EXPECT_FALSE(HasCode(
      MustLint("SELECT 1 FROM a, b WHERE a.x = b.y"), "BSL001"));
}

TEST(LintTest, Bsl001SilentOnExplicitCrossJoin) {
  // Spelling out CROSS JOIN declares the cartesian product intentional.
  EXPECT_FALSE(HasCode(MustLint("SELECT 1 FROM a CROSS JOIN b"), "BSL001"));
}

// ---------------------------------------------------------------------------
// BSL002: non-sargable predicate.

TEST(LintTest, Bsl002TriggersOnFunctionOverColumn) {
  auto diags = MustLint("SELECT a FROM t WHERE lower(b) = 'x'");
  ASSERT_TRUE(HasCode(diags, "BSL002"));
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
}

TEST(LintTest, Bsl002TriggersOnArithmeticOverColumn) {
  EXPECT_TRUE(HasCode(MustLint("SELECT a FROM t WHERE a + 1 = 10"),
                      "BSL002"));
}

TEST(LintTest, Bsl002SilentOnBareColumnComparison) {
  EXPECT_FALSE(HasCode(MustLint("SELECT a FROM t WHERE b = 'x'"), "BSL002"));
  // Function over constants only (column on the other side) stays sargable.
  EXPECT_FALSE(HasCode(MustLint("SELECT a FROM t WHERE b = lower('X')"),
                       "BSL002"));
}

// ---------------------------------------------------------------------------
// BSL003: implicit text/numeric coercion (catalog-aware).

class LintCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BORNSQL_ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE t (a INTEGER, b TEXT);"
        "CREATE TABLE keyed (j TEXT, k, w REAL, PRIMARY KEY (j, k));"
        "CREATE TABLE keyless (a INTEGER)"));
  }
  engine::Database db_;
};

TEST_F(LintCatalogTest, Bsl003TriggersOnTextColumnVsNumericLiteral) {
  auto diags = MustLint("SELECT a FROM t WHERE b = 5", &db_.catalog());
  ASSERT_TRUE(HasCode(diags, "BSL003"));
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
}

TEST_F(LintCatalogTest, Bsl003SilentOnMatchingTypes) {
  EXPECT_FALSE(HasCode(MustLint("SELECT a FROM t WHERE b = '5'",
                                &db_.catalog()), "BSL003"));
  EXPECT_FALSE(HasCode(MustLint("SELECT a FROM t WHERE a = 5",
                                &db_.catalog()), "BSL003"));
}

TEST_F(LintCatalogTest, Bsl003SkippedWithoutCatalog) {
  // Without a catalog the declared column types are unknown; the rule must
  // stay silent rather than guess.
  EXPECT_FALSE(HasCode(MustLint("SELECT a FROM t WHERE b = 5"), "BSL003"));
}

// ---------------------------------------------------------------------------
// BSL004: unused CTE.

TEST(LintTest, Bsl004TriggersOnUnreferencedCte) {
  auto diags = MustLint("WITH u AS (SELECT 1 AS x) SELECT 2");
  ASSERT_TRUE(HasCode(diags, "BSL004"));
  EXPECT_NE(diags[0].message.find("u"), std::string::npos);
}

TEST(LintTest, Bsl004SilentWhenCteIsReferenced) {
  EXPECT_FALSE(HasCode(
      MustLint("WITH u AS (SELECT 1 AS x) SELECT x FROM u"), "BSL004"));
}

TEST(LintTest, Bsl004SilentWhenCteIsUsedByALaterCte) {
  EXPECT_FALSE(HasCode(
      MustLint("WITH u AS (SELECT 1 AS x), "
               "v AS (SELECT x FROM u) SELECT x FROM v"),
      "BSL004"));
}

// ---------------------------------------------------------------------------
// BSL005: ON CONFLICT target vs the table's unique key (catalog-aware).

TEST_F(LintCatalogTest, Bsl005TriggersOnTargetKeyMismatch) {
  auto diags = MustLint(
      "INSERT INTO keyed (j, k, w) VALUES ('a', 1, 1.0) "
      "ON CONFLICT (j) DO UPDATE SET w = 0",
      &db_.catalog());
  ASSERT_TRUE(HasCode(diags, "BSL005"));
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST_F(LintCatalogTest, Bsl005TriggersOnKeylessTable) {
  auto diags = MustLint(
      "INSERT INTO keyless (a) VALUES (1) "
      "ON CONFLICT (a) DO UPDATE SET a = 2",
      &db_.catalog());
  ASSERT_TRUE(HasCode(diags, "BSL005"));
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST_F(LintCatalogTest, Bsl005SilentWhenTargetMatchesKey) {
  EXPECT_FALSE(HasCode(
      MustLint("INSERT INTO keyed (j, k, w) VALUES ('a', 1, 1.0) "
               "ON CONFLICT (j, k) DO UPDATE SET w = 0",
               &db_.catalog()),
      "BSL005"));
}

// ---------------------------------------------------------------------------
// BSL006: LIMIT without ORDER BY.

TEST(LintTest, Bsl006TriggersOnBareLimit) {
  auto diags = MustLint("SELECT a FROM t LIMIT 3");
  ASSERT_TRUE(HasCode(diags, "BSL006"));
}

TEST(LintTest, Bsl006SilentWithOrderBy) {
  EXPECT_FALSE(HasCode(MustLint("SELECT a FROM t ORDER BY a LIMIT 3"),
                       "BSL006"));
}

// ---------------------------------------------------------------------------
// BSL007: UPDATE/DELETE without WHERE.

TEST(LintTest, Bsl007TriggersOnUnfilteredUpdateAndDelete) {
  EXPECT_TRUE(HasCode(MustLint("DELETE FROM t"), "BSL007"));
  EXPECT_TRUE(HasCode(MustLint("UPDATE t SET a = 1"), "BSL007"));
}

TEST(LintTest, Bsl007SilentWithWhere) {
  EXPECT_FALSE(HasCode(MustLint("DELETE FROM t WHERE a = 1"), "BSL007"));
  EXPECT_FALSE(HasCode(MustLint("UPDATE t SET a = 1 WHERE a = 2"),
                       "BSL007"));
}

// ---------------------------------------------------------------------------
// BSL008: ORDER BY in a derived table or CTE without LIMIT.

TEST(LintTest, Bsl008TriggersOnSortedDerivedTable) {
  auto diags =
      MustLint("SELECT x FROM (SELECT a AS x FROM t ORDER BY a) d");
  ASSERT_TRUE(HasCode(diags, "BSL008"));
  for (const Diagnostic& d : diags) {
    if (d.code != "BSL008") continue;
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.message,
              "ORDER BY in a derived table or CTE without LIMIT has no "
              "effect and wastes a sort");
  }
}

TEST(LintTest, Bsl008TriggersOnSortedCte) {
  EXPECT_TRUE(HasCode(
      MustLint("WITH w AS (SELECT a FROM t ORDER BY a) SELECT a FROM w"),
      "BSL008"));
}

TEST(LintTest, Bsl008SilentWithLimitOrAtTopLevel) {
  // LIMIT makes the subquery's sort meaningful (top-N).
  EXPECT_FALSE(HasCode(
      MustLint("SELECT x FROM (SELECT a AS x FROM t ORDER BY a LIMIT 3) d"),
      "BSL008"));
  EXPECT_FALSE(HasCode(
      MustLint(
          "WITH w AS (SELECT a FROM t ORDER BY a LIMIT 3) SELECT a FROM w"),
      "BSL008"));
  // A top-level ORDER BY is the query's own output order.
  EXPECT_FALSE(HasCode(MustLint("SELECT a FROM t ORDER BY a"), "BSL008"));
}

// ---------------------------------------------------------------------------
// Diagnostic plumbing: ordering, dedupe, rendering.

TEST(LintTest, DiagnosticsAreOrderedBySourcePosition) {
  // Two findings on one line: the comma join (BSL001, at the second table
  // ref) and the bare LIMIT (BSL006, further right).
  auto diags = MustLint("SELECT 1 FROM a, b LIMIT 3");
  ASSERT_EQ(Codes(diags), (std::vector<std::string>{"BSL001", "BSL006"}));
  EXPECT_LT(diags[0].loc.column, diags[1].loc.column);
}

TEST(LintTest, SortAndDedupeCollapsesExactDuplicatesOnly) {
  sql::SourceLoc at{10, 2, 5};
  sql::SourceLoc unknown{};  // invalid span sorts last
  std::vector<Diagnostic> diags = {
      {"BSL006", Severity::kWarning, "dup", at},
      {"BSV001", Severity::kError, "no span", unknown},
      {"BSL001", Severity::kWarning, "earlier code", at},
      {"BSL006", Severity::kWarning, "dup", at},
  };
  SortAndDedupe(&diags);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].code, "BSL001");  // same span: code breaks the tie
  EXPECT_EQ(diags[1].code, "BSL006");
  EXPECT_EQ(diags[2].code, "BSV001");  // unknown span last
  EXPECT_TRUE(HasError(diags));
  EXPECT_FALSE(HasError({diags[0], diags[1]}));
}

TEST(LintTest, FormatDiagnosticRendersCodeSeverityAndSpan) {
  Diagnostic d{"BSL006", Severity::kWarning, "LIMIT without ORDER BY",
               sql::SourceLoc{16, 1, 17}};
  EXPECT_EQ(FormatDiagnostic(d),
            "BSL006 warning: LIMIT without ORDER BY (at line 1:17)");
  d.loc = sql::SourceLoc{};  // no span recorded
  d.severity = Severity::kError;
  EXPECT_EQ(FormatDiagnostic(d), "BSL006 error: LIMIT without ORDER BY");
}

TEST(LintTest, LintSqlFailsOnlyOnParseErrors) {
  auto r = LintSql("SELECT FROM", nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(LintTest, LintSqlAndExecuteScriptReportTheSameParseError) {
  // Lint and execution split scripts with one splitter, so a missing ';'
  // fails both with one message at one script-relative position.
  const char* script = "SELECT 1;\nSELECT 2 SELECT 3;";
  auto lint = LintSql(script, nullptr);
  ASSERT_FALSE(lint.ok());
  engine::Database db;
  const Status exec = db.ExecuteScript(script);
  EXPECT_EQ(lint.status().ToString(), exec.ToString());
  EXPECT_NE(exec.message().find("line 2:10"), std::string::npos)
      << exec.ToString();
}

TEST(LintTest, LintSqlWalksEveryStatementOfAScript) {
  auto diags = MustLint("DELETE FROM t;\nUPDATE t SET a = 1;");
  ASSERT_EQ(Codes(diags), (std::vector<std::string>{"BSL007", "BSL007"}));
  EXPECT_EQ(diags[0].loc.line, 1u);
  EXPECT_EQ(diags[1].loc.line, 2u);
}

// ---------------------------------------------------------------------------
// EXPLAIN LINT end-to-end through the engine.

TEST_F(LintCatalogTest, ExplainLintReportsFindings) {
  auto r = MustQuery(db_, "EXPLAIN LINT SELECT a FROM t LIMIT 3");
  ASSERT_EQ(r.column_names, (std::vector<std::string>{"lint"}));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_NE(r.rows[0][0].AsText().find("BSL006"), std::string::npos);
}

TEST_F(LintCatalogTest, ExplainLintCleanStatementSaysOk) {
  auto r = MustQuery(db_, "EXPLAIN LINT SELECT a FROM t WHERE a = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "ok: no lint findings");
}

}  // namespace
}  // namespace bornsql::lint
