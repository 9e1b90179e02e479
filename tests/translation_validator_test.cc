// Translation validation tests: deliberately broken rewrites -- injected
// through the test-only optimizer sabotage hook -- are caught with the
// expected BSV011-BSV016 codes and messages, clean statements validate
// with zero violations, and (the acceptance bar) every statement the
// BornSQL driver generates passes translation validation under every join
// strategy and CTE mode.
#include "lint/translation_validator.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

#include "born/born_sql.h"
#include "engine/database.h"
#include "engine/optimizer.h"
#include "plan/logical_plan.h"
#include "tests/test_util.h"

namespace bornsql::lint {
namespace {

using ::bornsql::testing::MustQuery;
using plan::LogicalKind;
using plan::LogicalNode;

// First node of `kind` in pre-order, or null.
LogicalNode* FindNode(LogicalNode* n, LogicalKind kind) {
  if (n->kind == kind) return n;
  for (auto& c : n->children) {
    if (LogicalNode* hit = FindNode(c.get(), kind)) return hit;
  }
  return nullptr;
}

class TranslationValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BORNSQL_ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE t (a INTEGER, b INTEGER, c TEXT);"
        "CREATE TABLE u (a INTEGER, b INTEGER);"
        "INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y'), (3, 30, 'z');"
        "INSERT INTO u VALUES (1, 100), (2, 200), (4, 400)"));
    db_.config().verify_rewrites = true;  // armed regardless of build type
  }

  void TearDown() override {
    engine::SetOptimizerSabotageForTesting(nullptr);
  }

  // Installs a hook that applies `mutate` to the plan the first time
  // `rule` finishes on a tree `mutate` can handle (CTE bodies are
  // rule-optimized too, so a rule can run more than once per statement),
  // simulating a miscompiling implementation of it. `mutate` returns
  // whether it changed anything.
  void SabotageRule(const std::string& rule,
                    std::function<bool(LogicalNode*)> mutate) {
    auto fired = std::make_shared<bool>(false);
    engine::SetOptimizerSabotageForTesting(
        [rule, mutate = std::move(mutate), fired](const std::string& name,
                                                  LogicalNode* root) {
          if (name != rule || *fired) return;
          if (mutate(root)) *fired = true;
        });
  }

  // Runs `sql`, asserting it fails translation validation after `rule`
  // with a diagnostic containing `code` and `message_part`.
  void ExpectViolation(const std::string& sql, const std::string& rule,
                       const std::string& code,
                       const std::string& message_part) {
    auto result = db_.Execute(sql);
    ASSERT_FALSE(result.ok()) << "expected a validation failure: " << sql;
    const std::string msg = result.status().ToString();
    EXPECT_NE(
        msg.find("translation validation failed after rule '" + rule + "'"),
        std::string::npos)
        << msg;
    EXPECT_NE(msg.find(code), std::string::npos) << msg;
    EXPECT_NE(msg.find(message_part), std::string::npos) << msg;
  }

  engine::Database db_;
};

TEST_F(TranslationValidatorTest, CleanStatementValidatesWithZeroViolations) {
  auto r = MustQuery(db_,
                     "EXPLAIN VERIFY SELECT t.a, count(u.b) FROM t, u "
                     "WHERE t.a = u.a AND t.b > 1 + 2 GROUP BY t.a");
  ASSERT_FALSE(r.rows.empty());
  // EXPLAIN VERIFY appends a chunk-verifier line after the two verdicts,
  // so locate the translation-validation line by content.
  std::string line;
  for (const auto& row : r.rows) {
    if (row[0].AsText().find("translation-validated") != std::string::npos) {
      line = row[0].AsText();
    }
  }
  ASSERT_FALSE(line.empty()) << "no translation-validation line in output";
  EXPECT_EQ(line.find("ok: "), 0u) << line;
  EXPECT_NE(line.find("0 violations"), std::string::npos) << line;
}

TEST_F(TranslationValidatorTest, SetBornVerifyRewritesTogglesTheConfig) {
  db_.config().verify_rewrites = false;
  BORNSQL_ASSERT_OK(db_.Execute("SET born.verify_rewrites = 1").status());
  EXPECT_TRUE(db_.config().verify_rewrites);
  BORNSQL_ASSERT_OK(db_.Execute("SET born.verify_rewrites = 0").status());
  EXPECT_FALSE(db_.config().verify_rewrites);
}

TEST_F(TranslationValidatorTest, Bsv011CatchesAPermutedOutputColumn) {
  // constant_folding fires (1+2); the sabotaged version also swaps the
  // first two projection items, changing what ordinal 0 means.
  SabotageRule("constant_folding", [](LogicalNode* root) {
    LogicalNode* project = FindNode(root, LogicalKind::kProject);
    if (project == nullptr || project->items.size() < 2) return false;
    std::swap(project->items[0], project->items[1]);
    return true;
  });
  ExpectViolation("SELECT a, b, 1 + 2 AS s FROM t WHERE a > 0",
                  "constant_folding", "BSV011", "output ordinal 0 changed");
}

TEST_F(TranslationValidatorTest, Bsv012CatchesADroppedPredicate) {
  // predicate_pushdown fires (t1.b > 1 sinks to the left leaf); the
  // sabotaged version also deletes a conjunct outright.
  SabotageRule("predicate_pushdown", [](LogicalNode* root) {
    for (LogicalNode* n = root; n != nullptr;
         n = n->children.empty() ? nullptr : n->children[0].get()) {
      if (n->kind == LogicalKind::kFilter && !n->conjuncts.empty()) {
        n->conjuncts.pop_back();
        return true;
      }
    }
    return false;
  });
  ExpectViolation(
      "SELECT t1.a FROM t t1, u t2 WHERE t1.a = t2.a AND t1.b > 1",
      "predicate_pushdown", "BSV012", "predicate dropped (1x)");
}

TEST_F(TranslationValidatorTest, Bsv013CatchesAChangedNodeSignature) {
  // constant_folding fires (1+2); the sabotaged version also halves the
  // LIMIT, a skeleton change no other check models.
  SabotageRule("constant_folding", [](LogicalNode* root) {
    LogicalNode* limit = FindNode(root, LogicalKind::kLimit);
    if (limit == nullptr) return false;
    limit->limit = 1;
    return true;
  });
  ExpectViolation("SELECT a, 1 + 2 AS s FROM t ORDER BY a LIMIT 2",
                  "constant_folding", "BSV013", "node signature changed");
}

TEST_F(TranslationValidatorTest, Bsv014CatchesACorruptedInlineSubstitution) {
  // Under inlined CTEs, cte_inline must replace each reference with a
  // Relabel over the binding's body under the same qualifier. The
  // sabotaged version renames the qualifier.
  db_.config().materialize_ctes = false;
  SabotageRule("cte_inline", [](LogicalNode* root) {
    LogicalNode* relabel = FindNode(root, LogicalKind::kRelabel);
    if (relabel == nullptr) return false;
    relabel->qualifier = "zz";
    return true;
  });
  ExpectViolation(
      "WITH w AS (SELECT a FROM t WHERE a > 0) SELECT a FROM w",
      "cte_inline", "BSV014", "inlined reference changed qualifier");
}

TEST_F(TranslationValidatorTest, Bsv014CatchesAMutatedInlinedBody) {
  db_.config().materialize_ctes = false;
  SabotageRule("cte_inline", [](LogicalNode* root) {
    LogicalNode* relabel = FindNode(root, LogicalKind::kRelabel);
    if (relabel == nullptr || relabel->children.empty()) return false;
    LogicalNode* filter =
        FindNode(relabel->children[0].get(), LogicalKind::kFilter);
    if (filter == nullptr || filter->conjuncts.empty()) return false;
    filter->conjuncts.pop_back();
    return true;
  });
  ExpectViolation(
      "WITH w AS (SELECT a FROM t WHERE a > 0) SELECT a FROM w",
      "cte_inline", "BSV014", "inlined body is not the binding's body");
}

TEST_F(TranslationValidatorTest, Bsv015CatchesAJoinKindFlip) {
  // By projection_pruning the join is an extracted inner join; the
  // sabotaged version silently turns it into a LEFT join.
  SabotageRule("projection_pruning", [](LogicalNode* root) {
    LogicalNode* join = FindNode(root, LogicalKind::kJoin);
    if (join == nullptr) return false;
    join->join_kind = plan::LogicalJoinKind::kLeft;
    return true;
  });
  ExpectViolation("SELECT t1.a FROM t t1, u t2 WHERE t1.a = t2.a",
                  "projection_pruning", "BSV015", "join contract changed");
}

TEST_F(TranslationValidatorTest, Bsv016CatchesAnUnreportedRewrite) {
  // equi_join_extraction has nothing to do on a single table and reports
  // zero rewrites; the sabotaged version still reorders the conjuncts -- a
  // semantically legal change every other check accepts, so only the
  // accounting check can catch the lie.
  SabotageRule("equi_join_extraction", [](LogicalNode* root) {
    LogicalNode* filter = FindNode(root, LogicalKind::kFilter);
    if (filter == nullptr || filter->conjuncts.size() < 2) return false;
    std::swap(filter->conjuncts[0], filter->conjuncts[1]);
    return true;
  });
  ExpectViolation("SELECT a FROM t WHERE a > 0 AND b > 1",
                  "equi_join_extraction", "BSV016",
                  "plan changed but the rule reported zero rewrites");
}

TEST_F(TranslationValidatorTest, SabotageSurfacesInOptimizerStatView) {
  // A violation must be recorded in born_stat_optimizer even though the
  // statement itself fails.
  SabotageRule("constant_folding", [](LogicalNode* root) {
    LogicalNode* project = FindNode(root, LogicalKind::kProject);
    if (project == nullptr || project->items.size() < 2) return false;
    std::swap(project->items[0], project->items[1]);
    return true;
  });
  EXPECT_FALSE(db_.Execute("SELECT a, b, 1 + 2 AS s FROM t").ok());
  engine::SetOptimizerSabotageForTesting(nullptr);
  auto r = MustQuery(db_,
                     "SELECT violations FROM born_stat_optimizer "
                     "WHERE rule = 'constant_folding'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_GE(r.rows[0][0].AsInt(), 1);
}

// ---------------------------------------------------------------------------
// The acceptance sweep: every statement the BornSQL driver generates, for
// every join strategy x CTE mode, plans and executes with translation
// validation armed. A single unsound rewrite anywhere fails the
// corresponding call with a BSV011-BSV016 message.

born::SqlSource Source() {
  born::SqlSource source;
  source.x_parts = {"SELECT n, j, w FROM item_feature"};
  source.y = "SELECT n, k, 1.0 AS w FROM items";
  return source;
}

constexpr const char* kAllItems = "SELECT n FROM items";

class ValidatedBornSweepTest
    : public ::testing::TestWithParam<std::pair<engine::JoinStrategy, bool>> {
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

TEST_P(ValidatedBornSweepTest, EveryGeneratedStatementPassesValidation) {
  db_.config().join_strategy = GetParam().first;
  db_.config().materialize_ctes = GetParam().second;
  db_.config().verify_plans = true;
  db_.config().verify_rewrites = true;

  born::BornSqlClassifier clf(&db_, "m", Source());
  BORNSQL_ASSERT_OK(clf.Fit("SELECT n FROM items WHERE n <= 4"));
  BORNSQL_ASSERT_OK(clf.PartialFit("SELECT n FROM items WHERE n > 4"));
  auto pred = clf.Predict(kAllItems);
  BORNSQL_ASSERT_OK(pred.status());
  EXPECT_EQ(pred->size(), 6u);
  BORNSQL_ASSERT_OK(clf.Deploy());
  BORNSQL_ASSERT_OK(clf.Predict(kAllItems).status());
  BORNSQL_ASSERT_OK(clf.PredictProba(kAllItems).status());
  BORNSQL_ASSERT_OK(clf.ExplainGlobal(5).status());
  BORNSQL_ASSERT_OK(clf.ExplainLocal(kAllItems, 5).status());
  BORNSQL_ASSERT_OK(clf.Score(kAllItems).status());
  BORNSQL_ASSERT_OK(clf.Unlearn("SELECT n FROM items WHERE n = 6"));
  BORNSQL_ASSERT_OK(clf.Undeploy());

  // Validation actually ran: born_stat_optimizer counts validated rules.
  auto r = MustQuery(db_,
                     "SELECT sum(validated), sum(violations) "
                     "FROM born_stat_optimizer");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_GT(r.rows[0][0].AsInt(), 0);
  EXPECT_EQ(r.rows[0][1].AsInt(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ValidatedBornSweepTest,
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

}  // namespace
}  // namespace bornsql::lint
