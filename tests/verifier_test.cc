// Plan-invariant verifier tests: hand-built broken operator trees are
// caught with the expected BSV codes, clean plans verify with zero
// violations, and — the acceptance bar — every statement the BornSQL
// driver generates passes the verifier under every join strategy and CTE
// mode the planner supports.
#include "lint/plan_verifier.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "born/born_sql.h"
#include "engine/database.h"
#include "lint/linter.h"
#include "tests/test_util.h"

namespace bornsql::lint {
namespace {

using ::bornsql::testing::MustQuery;
using exec::BoundColumn;
using exec::OperatorPtr;

// A 2-column scan (a INTEGER, b TEXT) over no rows — the verifier is
// static, so data is irrelevant.
OperatorPtr MakeScan() {
  return testing::RowsScan(
      Schema({{"t", "a", ValueType::kInt}, {"t", "b", ValueType::kText}}), {});
}

std::vector<std::string> Codes(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diags) out.push_back(d.code);
  return out;
}

TEST(PlanVerifierTest, CleanPlanHasNoViolationsButRunsChecks) {
  std::vector<exec::BoundExprPtr> exprs;
  exprs.push_back(BoundColumn(1));
  auto plan = std::make_unique<exec::ProjectOp>(
      MakeScan(), std::move(exprs), Schema({{"", "b", ValueType::kText}}));
  size_t checks = 0;
  EXPECT_TRUE(VerifyPlan(*plan, &checks).empty());
  EXPECT_GT(checks, 0u);
  BORNSQL_EXPECT_OK(VerifyPlanStatus(*plan));
}

TEST(PlanVerifierTest, Bsv001CatchesDanglingColumnIndex) {
  // Filter over a 2-column input referencing column 5.
  auto plan = std::make_unique<exec::FilterOp>(MakeScan(), BoundColumn(5));
  auto diags = VerifyPlan(*plan);
  ASSERT_EQ(Codes(diags), (std::vector<std::string>{"BSV001"}));
  EXPECT_EQ(diags[0].severity, Severity::kError);
  Status st = VerifyPlanStatus(*plan);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("BSV001"), std::string::npos);
}

TEST(PlanVerifierTest, Bsv001CatchesDanglingIndexNestedInsideAnExpression) {
  // The bad reference sits under an arithmetic node, not at the root.
  auto bad = std::make_unique<exec::BoundExpr>();
  bad->kind = exec::BoundKind::kBinary;
  bad->binary_op = exec::BoundBinaryOp::kAdd;
  bad->children.push_back(BoundColumn(0));
  bad->children.push_back(BoundColumn(9));
  auto plan = std::make_unique<exec::FilterOp>(MakeScan(), std::move(bad));
  EXPECT_EQ(Codes(VerifyPlan(*plan)), (std::vector<std::string>{"BSV001"}));
}

TEST(PlanVerifierTest, Bsv005CatchesProjectionWidthMismatch) {
  // One projection expression, two declared output columns.
  std::vector<exec::BoundExprPtr> exprs;
  exprs.push_back(BoundColumn(0));
  auto plan = std::make_unique<exec::ProjectOp>(
      MakeScan(), std::move(exprs),
      Schema({{"", "a", ValueType::kInt}, {"", "ghost", ValueType::kInt}}));
  auto diags = VerifyPlan(*plan);
  ASSERT_EQ(Codes(diags), (std::vector<std::string>{"BSV005"}));
}

TEST(PlanVerifierTest, Bsv006CatchesTextVsNumericJoinKeys) {
  // t.b (TEXT) joined against t.a (INTEGER): irreconcilable key types.
  std::vector<exec::BoundExprPtr> lkeys;
  std::vector<exec::BoundExprPtr> rkeys;
  lkeys.push_back(BoundColumn(1));  // TEXT
  rkeys.push_back(BoundColumn(0));  // INTEGER
  auto plan = std::make_unique<exec::HashJoinOp>(
      MakeScan(), MakeScan(), std::move(lkeys), std::move(rkeys),
      exec::JoinType::kInner);
  auto diags = VerifyPlan(*plan);
  ASSERT_EQ(Codes(diags), (std::vector<std::string>{"BSV006"}));
}

TEST(PlanVerifierTest, MatchingJoinKeyTypesAreClean) {
  std::vector<exec::BoundExprPtr> lkeys;
  std::vector<exec::BoundExprPtr> rkeys;
  lkeys.push_back(BoundColumn(0));
  rkeys.push_back(BoundColumn(0));
  auto plan = std::make_unique<exec::HashJoinOp>(
      MakeScan(), MakeScan(), std::move(lkeys), std::move(rkeys),
      exec::JoinType::kInner);
  EXPECT_TRUE(VerifyPlan(*plan).empty());
}

// ---------------------------------------------------------------------------
// EXPLAIN VERIFY and the SET born.verify_plans switch, through the engine.

class VerifierEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BORNSQL_ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE items (n INTEGER PRIMARY KEY, k INTEGER);"
        "CREATE TABLE item_feature (n INTEGER, j TEXT, w REAL);"
        "INSERT INTO items VALUES (1, 0), (2, 1), (3, 0), (4, 1), "
        "(5, 0), (6, 1);"
        "INSERT INTO item_feature VALUES "
        "(1,'a',1.0),(1,'b',1.0),(2,'c',1.0),(2,'d',1.0),"
        "(3,'a',1.0),(3,'e',1.0),(4,'c',1.0),(4,'f',1.0),"
        "(5,'b',1.0),(5,'e',1.0),(6,'d',1.0),(6,'f',1.0)"));
  }
  engine::Database db_;
};

TEST_F(VerifierEngineTest, ExplainVerifyReportsChecksAndZeroViolations) {
  auto r = MustQuery(db_,
                     "EXPLAIN VERIFY SELECT i.n, count(f.j) FROM items i, "
                     "item_feature f WHERE i.n = f.n GROUP BY i.n");
  ASSERT_EQ(r.column_names, (std::vector<std::string>{"verify"}));
  // One row per verifier — physical plan invariants, then the optimizer
  // translation validator — followed by the execution-contract verifier's
  // cumulative counters.
  ASSERT_EQ(r.rows.size(), 3u);
  const std::string& line = r.rows[0][0].AsText();
  EXPECT_EQ(line.find("ok: "), 0u) << line;
  EXPECT_NE(line.find("0 violations"), std::string::npos) << line;
  const std::string& vline = r.rows[1][0].AsText();
  EXPECT_EQ(vline.find("ok: "), 0u) << vline;
  EXPECT_NE(vline.find("translation-validated"), std::string::npos) << vline;
  const std::string& cline = r.rows[2][0].AsText();
  EXPECT_EQ(cline.find("chunk verifier (BSV020-025): "), 0u) << cline;
}

TEST_F(VerifierEngineTest, ExplainVerifyOnStatementWithoutAPlan) {
  auto r = MustQuery(db_, "EXPLAIN VERIFY CREATE INDEX items_k ON items (k)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(),
            "ok: statement has no operator plan to verify");
  // The statement was only verified, never executed.
  const storage::Table* items = *db_.catalog().GetTable("items");
  EXPECT_EQ(items->FindIndexOn({1}), storage::Table::kNpos);
}

TEST_F(VerifierEngineTest, ExplainVerifyChecksEveryWriteStatement) {
  BORNSQL_ASSERT_OK(
      db_.Execute("CREATE TABLE acc (j TEXT PRIMARY KEY, w REAL)").status());
  for (const char* sql :
       {"UPDATE items SET k = k + 1 WHERE n = 1", "DELETE FROM items",
        "INSERT INTO acc VALUES ('a', 1.0)",
        "INSERT INTO acc VALUES ('a', 1.0) "
        "ON CONFLICT (j) DO UPDATE SET w = acc.w + excluded.w"}) {
    auto r = MustQuery(db_, std::string("EXPLAIN VERIFY ") + sql);
    ASSERT_EQ(r.rows.size(), 3u) << sql;
    const std::string& line = r.rows[0][0].AsText();
    EXPECT_EQ(line.find("ok: "), 0u) << sql << ": " << line;
    EXPECT_EQ(line.find("ok: 0 invariant checks"), std::string::npos)
        << sql << ": " << line;
    EXPECT_NE(line.find(", 0 violations"), std::string::npos)
        << sql << ": " << line;
  }
  // Verified, never executed.
  EXPECT_EQ(MustQuery(db_, "SELECT count(*) FROM items").rows[0][0].AsInt(),
            6);
  EXPECT_EQ(MustQuery(db_, "SELECT count(*) FROM acc").rows[0][0].AsInt(), 0);
}

TEST_F(VerifierEngineTest, SetBornVerifyPlansTogglesTheConfig) {
  db_.config().verify_plans = false;
  BORNSQL_ASSERT_OK(db_.Execute("SET born.verify_plans = 1").status());
  EXPECT_TRUE(db_.config().verify_plans);
  // Verified execution still returns correct results.
  auto r = MustQuery(db_, "SELECT count(*) FROM items WHERE k = 0");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  BORNSQL_ASSERT_OK(db_.Execute("SET born.verify_plans = 0").status());
  EXPECT_FALSE(db_.config().verify_plans);
}

// ---------------------------------------------------------------------------
// The acceptance sweep: every statement the BornSQL driver generates, for
// every join strategy x CTE mode, executes with the verifier armed. A
// single planner index bug anywhere in fit/predict/explain/unlearn fails
// the corresponding call with a BSVnnn message.

born::SqlSource Source() {
  born::SqlSource source;
  source.x_parts = {"SELECT n, j, w FROM item_feature"};
  source.y = "SELECT n, k, 1.0 AS w FROM items";
  return source;
}

constexpr const char* kAllItems = "SELECT n FROM items";

class VerifiedBornSweepTest
    : public VerifierEngineTest,
      public ::testing::WithParamInterface<
          std::pair<engine::JoinStrategy, bool>> {};

TEST_P(VerifiedBornSweepTest, EveryGeneratedStatementPassesTheVerifier) {
  db_.config().join_strategy = GetParam().first;
  db_.config().materialize_ctes = GetParam().second;
  db_.config().verify_plans = true;  // armed regardless of build type

  born::BornSqlClassifier clf(&db_, "m", Source());
  BORNSQL_ASSERT_OK(clf.Fit("SELECT n FROM items WHERE n <= 4"));
  BORNSQL_ASSERT_OK(clf.PartialFit("SELECT n FROM items WHERE n > 4"));

  // Undeployed inference computes the weight chain on the fly (Eqs. 8-10).
  auto pred = clf.Predict(kAllItems);
  BORNSQL_ASSERT_OK(pred.status());
  EXPECT_EQ(pred->size(), 6u);

  // Deployed inference reads the materialized weights table.
  BORNSQL_ASSERT_OK(clf.Deploy());
  BORNSQL_ASSERT_OK(clf.Predict(kAllItems).status());
  BORNSQL_ASSERT_OK(clf.PredictProba(kAllItems).status());
  BORNSQL_ASSERT_OK(clf.ExplainGlobal(5).status());
  BORNSQL_ASSERT_OK(clf.ExplainLocal(kAllItems, 5).status());
  BORNSQL_ASSERT_OK(clf.Score(kAllItems).status());
  BORNSQL_ASSERT_OK(clf.Unlearn("SELECT n FROM items WHERE n = 6"));
  BORNSQL_ASSERT_OK(clf.Undeploy());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, VerifiedBornSweepTest,
    ::testing::Values(
        std::make_pair(engine::JoinStrategy::kHash, true),
        std::make_pair(engine::JoinStrategy::kHash, false),
        std::make_pair(engine::JoinStrategy::kSortMerge, true),
        std::make_pair(engine::JoinStrategy::kSortMerge, false),
        std::make_pair(engine::JoinStrategy::kNestedLoop, true),
        std::make_pair(engine::JoinStrategy::kNestedLoop, false)),
    [](const auto& info) {
      const char* join =
          info.param.first == engine::JoinStrategy::kHash ? "Hash"
          : info.param.first == engine::JoinStrategy::kSortMerge
              ? "SortMerge"
              : "NestedLoop";
      return std::string(join) +
             (info.param.second ? "Materialized" : "Inlined");
    });

TEST_F(VerifierEngineTest, GeneratedSqlSurvivesExplainVerifyAndLint) {
  // The driver's exposed SQL builders, pushed through both EXPLAIN
  // surfaces: the verifier must find zero violations and the linter must
  // find no error-severity diagnostics (warnings — the intentional 1-row
  // normalizer comma join — are expected).
  born::BornSqlClassifier clf(&db_, "m", Source());
  BORNSQL_ASSERT_OK(clf.Fit(kAllItems));
  BORNSQL_ASSERT_OK(clf.Deploy());
  for (const std::string& sql :
       {clf.BuildPredictSql(kAllItems), clf.BuildPredictProbaSql(kAllItems)}) {
    auto verify = MustQuery(db_, "EXPLAIN VERIFY " + sql);
    // Plan-invariant and translation-validator verdicts, then the
    // chunk-verifier counter line.
    ASSERT_EQ(verify.rows.size(), 3u) << sql;
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(verify.rows[i][0].AsText().find("ok: "), 0u)
          << verify.rows[i][0].AsText();
    }

    auto diags = LintSql(sql, &db_.catalog());
    BORNSQL_ASSERT_OK(diags.status());
    EXPECT_FALSE(HasError(*diags)) << sql;
  }
  // The fit/deploy scripts parse-lint clean of errors too.
  for (const std::string& sql :
       {clf.BuildFitSql(kAllItems, /*unlearn=*/false), clf.BuildDeploySql()}) {
    auto diags = LintSql(sql, &db_.catalog());
    BORNSQL_ASSERT_OK(diags.status());
    EXPECT_FALSE(HasError(*diags)) << sql;
  }
}

}  // namespace
}  // namespace bornsql::lint
