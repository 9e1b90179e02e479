// BornSqlClassifier tests: every capability of §3 executed end-to-end
// through the SQL engine, plus SQL ≡ in-memory-reference equivalence.
#include "born/born_sql.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "born/born_ref.h"
#include "common/rng.h"
#include "common/strings.h"
#include "tests/test_util.h"

namespace bornsql::engine {

// Names each BornSqlConfigTest instance by the settings it varies. Without
// a printer gtest prints the config's raw bytes, padding included, and the
// padding is not initialized, so the names changed from run to run.
void PrintTo(const EngineConfig& config, std::ostream* os) {
  switch (config.join_strategy) {
    case JoinStrategy::kHash:
      *os << "hash";
      break;
    case JoinStrategy::kSortMerge:
      *os << "sortmerge";
      break;
    case JoinStrategy::kNestedLoop:
      *os << "nestedloop";
      break;
  }
  *os << (config.materialize_ctes ? "_materialized" : "_inlined");
  if (config.use_index_joins) *os << "_indexjoins";
}

}  // namespace bornsql::engine

namespace bornsql::born {
namespace {

using ::bornsql::testing::MustQuery;

// Random sparse dataset materialized both as SQL tables (items,
// item_feature) and as in-memory Examples.
struct TestData {
  std::vector<Example> examples;  // index i has n = i+1

  Status Load(engine::Database* db) const {
    BORNSQL_RETURN_IF_ERROR(db->ExecuteScript(
        "DROP TABLE IF EXISTS items; DROP TABLE IF EXISTS item_feature;"
        "CREATE TABLE items (n INTEGER PRIMARY KEY, k INTEGER, "
        "sw REAL);"
        "CREATE TABLE item_feature (n INTEGER, j TEXT, w REAL)"));
    BORNSQL_ASSIGN_OR_RETURN(storage::Table * items,
                             db->catalog().GetTable("items"));
    BORNSQL_ASSIGN_OR_RETURN(storage::Table * features,
                             db->catalog().GetTable("item_feature"));
    for (size_t i = 0; i < examples.size(); ++i) {
      const Example& ex = examples[i];
      BORNSQL_RETURN_IF_ERROR(
          items->Insert({Value::Int(static_cast<int64_t>(i) + 1),
                         ex.y[0].first, Value::Double(ex.sample_weight)}));
      for (const auto& [j, w] : ex.x) {
        features->AppendUnchecked({Value::Int(static_cast<int64_t>(i) + 1),
                                   Value::Text(j), Value::Double(w)});
      }
    }
    return Status::OK();
  }
};

TestData MakeData(uint64_t seed, int n_items, int n_classes, int vocab,
                  bool unit_weights = true) {
  Rng rng(seed);
  TestData data;
  for (int i = 0; i < n_items; ++i) {
    Example ex;
    // Distinct features per item (the SQL path would treat duplicate rows
    // additively just like the reference, but distinctness keeps the test
    // data clean).
    std::map<std::string, double> x;
    int n_features = 1 + static_cast<int>(rng.Uniform(5));
    for (int f = 0; f < n_features; ++f) {
      x[StrFormat("f%zu", rng.Uniform(vocab))] = 0.5 + rng.NextDouble() * 2.0;
    }
    ex.x.assign(x.begin(), x.end());
    ex.y.emplace_back(
        Value::Int(static_cast<int64_t>(rng.Uniform(n_classes))), 1.0);
    ex.sample_weight = unit_weights ? 1.0 : 0.5 + rng.NextDouble();
    data.examples.push_back(std::move(ex));
  }
  return data;
}

SqlSource Source(bool with_weights = false) {
  SqlSource source;
  source.x_parts = {"SELECT n, j, w FROM item_feature"};
  source.y = "SELECT n, k, 1.0 AS w FROM items";
  if (with_weights) source.w = "SELECT n, sw AS w FROM items";
  return source;
}

constexpr const char* kAllItems = "SELECT n FROM items";

class BornSqlTest : public ::testing::Test {
 protected:
  engine::Database db_;
};

TEST_F(BornSqlTest, FitPopulatesCorpus) {
  TestData data = MakeData(1, 40, 3, 12);
  BORNSQL_ASSERT_OK(data.Load(&db_));
  BornSqlClassifier clf(&db_, "m", Source());
  BORNSQL_ASSERT_OK(clf.Fit(kAllItems));
  auto entries = clf.CorpusEntries();
  ASSERT_TRUE(entries.ok());
  EXPECT_GT(*entries, 0);
  // The corpus table exists with the documented schema.
  auto r = MustQuery(db_, "SELECT j, k, w FROM m_corpus LIMIT 1");
  EXPECT_EQ(r.column_names.size(), 3u);
}

TEST_F(BornSqlTest, CorpusMatchesReferenceExactly) {
  TestData data = MakeData(2, 120, 3, 20, /*unit_weights=*/false);
  BORNSQL_ASSERT_OK(data.Load(&db_));

  BornSqlClassifier sql_clf(&db_, "m", Source(/*with_weights=*/true));
  BORNSQL_ASSERT_OK(sql_clf.Fit(kAllItems));

  BornClassifierRef ref;
  BORNSQL_ASSERT_OK(ref.Fit(data.examples));

  auto rows = MustQuery(db_, "SELECT j, k, w FROM m_corpus");
  ASSERT_EQ(rows.rows.size(), ref.corpus_entries());
  for (const Row& row : rows.rows) {
    const std::string& j = row[0].AsText();
    double w = row[2].AsDouble();
    double expected = ref.corpus().at(j).at(row[1]);
    EXPECT_NEAR(w, expected, 1e-9 * (1 + std::abs(expected))) << j;
  }
}

TEST_F(BornSqlTest, PredictionsMatchReference) {
  TestData data = MakeData(3, 150, 3, 18);
  BORNSQL_ASSERT_OK(data.Load(&db_));

  BornSqlClassifier sql_clf(&db_, "m", Source());
  BORNSQL_ASSERT_OK(sql_clf.Fit(kAllItems));
  BornClassifierRef ref;
  BORNSQL_ASSERT_OK(ref.Fit(data.examples));

  auto preds = sql_clf.Predict(kAllItems);
  ASSERT_TRUE(preds.ok()) << preds.status().ToString();
  ASSERT_EQ(preds->size(), data.examples.size());
  for (const SqlPrediction& p : *preds) {
    size_t idx = static_cast<size_t>(p.n.AsInt()) - 1;
    auto expected = ref.Predict(data.examples[idx].x);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(Value::Compare(p.k, *expected), 0) << "item " << p.n.ToString();
  }
}

TEST_F(BornSqlTest, ProbabilitiesMatchReference) {
  TestData data = MakeData(4, 100, 4, 15);
  BORNSQL_ASSERT_OK(data.Load(&db_));
  BornSqlClassifier sql_clf(&db_, "m", Source());
  BORNSQL_ASSERT_OK(sql_clf.Fit(kAllItems));
  BornClassifierRef ref;
  BORNSQL_ASSERT_OK(ref.Fit(data.examples));

  auto probas = sql_clf.PredictProba("SELECT n FROM items WHERE n <= 25");
  ASSERT_TRUE(probas.ok()) << probas.status().ToString();
  ASSERT_GT(probas->size(), 0u);
  std::map<int64_t, double> totals;
  for (const SqlProbability& p : *probas) {
    size_t idx = static_cast<size_t>(p.n.AsInt()) - 1;
    auto expected = ref.PredictProba(data.examples[idx].x);
    ASSERT_TRUE(expected.ok());
    double want = 0.0;
    for (const auto& [k, v] : *expected) {
      if (Value::Compare(k, p.k) == 0) want = v;
    }
    EXPECT_NEAR(p.p, want, 1e-7) << "item " << p.n.ToString();
    totals[p.n.AsInt()] += p.p;
  }
  for (const auto& [n, total] : totals) {
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(BornSqlTest, PartialFitEqualsBatchFit) {
  TestData data = MakeData(5, 90, 3, 14);
  BORNSQL_ASSERT_OK(data.Load(&db_));

  BornSqlClassifier batch(&db_, "batch", Source());
  BORNSQL_ASSERT_OK(batch.Fit(kAllItems));

  BornSqlClassifier inc(&db_, "inc", Source());
  BORNSQL_ASSERT_OK(inc.PartialFit("SELECT n FROM items WHERE n % 3 = 0"));
  BORNSQL_ASSERT_OK(inc.PartialFit("SELECT n FROM items WHERE n % 3 = 1"));
  BORNSQL_ASSERT_OK(inc.PartialFit("SELECT n FROM items WHERE n % 3 = 2"));

  // Def. 2.1 at the SQL level: join the two corpora and compare.
  auto diff = MustQuery(
      db_,
      "SELECT COUNT(*) FROM batch_corpus AS b, inc_corpus AS i "
      "WHERE b.j = i.j AND b.k = i.k AND ABS(b.w - i.w) > 1e-9");
  EXPECT_EQ(diff.rows[0][0].AsInt(), 0);
  auto ca = MustQuery(db_, "SELECT COUNT(*) FROM batch_corpus");
  auto cb = MustQuery(db_, "SELECT COUNT(*) FROM inc_corpus");
  EXPECT_EQ(ca.rows[0][0].AsInt(), cb.rows[0][0].AsInt());
}

TEST_F(BornSqlTest, UnlearningEqualsRetraining) {
  TestData data = MakeData(6, 80, 2, 10);
  BORNSQL_ASSERT_OK(data.Load(&db_));

  BornSqlClassifier full(&db_, "full", Source());
  BORNSQL_ASSERT_OK(full.Fit(kAllItems));
  BORNSQL_ASSERT_OK(full.Unlearn("SELECT n FROM items WHERE n % 4 = 0"));

  BornSqlClassifier retrained(&db_, "re", Source());
  BORNSQL_ASSERT_OK(retrained.Fit("SELECT n FROM items WHERE n % 4 <> 0"));

  auto pu = full.PredictProba(kAllItems);
  auto pr = retrained.PredictProba(kAllItems);
  ASSERT_TRUE(pu.ok() && pr.ok());
  ASSERT_EQ(pu->size(), pr->size());
  for (size_t i = 0; i < pu->size(); ++i) {
    EXPECT_EQ(Value::Compare((*pu)[i].n, (*pr)[i].n), 0);
    EXPECT_EQ(Value::Compare((*pu)[i].k, (*pr)[i].k), 0);
    EXPECT_NEAR((*pu)[i].p, (*pr)[i].p, 1e-7);
  }
}

TEST_F(BornSqlTest, WeightedUnlearningRemovesWeightedItems) {
  TestData data = MakeData(7, 60, 2, 8, /*unit_weights=*/false);
  BORNSQL_ASSERT_OK(data.Load(&db_));
  BornSqlClassifier clf(&db_, "m", Source(/*with_weights=*/true));
  BORNSQL_ASSERT_OK(clf.Fit(kAllItems));
  BORNSQL_ASSERT_OK(clf.Unlearn(kAllItems));
  // Everything unlearned: residual mass ~ 0 on every corpus row.
  auto residue = MustQuery(db_,
                           "SELECT COUNT(*) FROM m_corpus WHERE "
                           "ABS(w) > 1e-9");
  EXPECT_EQ(residue.rows[0][0].AsInt(), 0);
}

TEST_F(BornSqlTest, DeploymentPreservesPredictions) {
  TestData data = MakeData(8, 120, 3, 16);
  BORNSQL_ASSERT_OK(data.Load(&db_));
  BornSqlClassifier clf(&db_, "m", Source());
  BORNSQL_ASSERT_OK(clf.Fit(kAllItems));

  auto before = clf.PredictProba("SELECT n FROM items WHERE n <= 30");
  ASSERT_TRUE(before.ok());
  BORNSQL_ASSERT_OK(clf.Deploy());
  EXPECT_TRUE(clf.deployed());
  auto after = clf.PredictProba("SELECT n FROM items WHERE n <= 30");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_NEAR((*before)[i].p, (*after)[i].p, 1e-9);
  }
  // The weights table is materialized and indexed.
  auto weights = MustQuery(db_, "SELECT COUNT(*) FROM m_weights");
  EXPECT_GT(weights.rows[0][0].AsInt(), 0);
}

TEST_F(BornSqlTest, DeployedWeightsMatchReference) {
  TestData data = MakeData(9, 100, 3, 12);
  BORNSQL_ASSERT_OK(data.Load(&db_));
  BornSqlClassifier clf(&db_, "m", Source());
  BORNSQL_ASSERT_OK(clf.Fit(kAllItems));
  BORNSQL_ASSERT_OK(clf.Deploy());

  BornClassifierRef ref;
  BORNSQL_ASSERT_OK(ref.Fit(data.examples));
  auto expected = ref.ExplainGlobal(0);
  ASSERT_TRUE(expected.ok());
  std::map<std::pair<std::string, int64_t>, double> want;
  for (const auto& e : *expected) want[{e.j, e.k.AsInt()}] = e.w;

  auto rows = MustQuery(db_, "SELECT j, k, w FROM m_weights");
  ASSERT_EQ(rows.rows.size(), want.size());
  for (const Row& row : rows.rows) {
    auto it = want.find({row[0].AsText(), row[1].AsInt()});
    ASSERT_NE(it, want.end()) << row[0].AsText();
    EXPECT_NEAR(row[2].AsDouble(), it->second,
                1e-9 * (1 + std::abs(it->second)));
  }
}

TEST_F(BornSqlTest, ExplainLocalMatchesReference) {
  TestData data = MakeData(10, 80, 3, 10);
  BORNSQL_ASSERT_OK(data.Load(&db_));
  BornSqlClassifier clf(&db_, "m", Source());
  BORNSQL_ASSERT_OK(clf.Fit(kAllItems));
  BornClassifierRef ref;
  BORNSQL_ASSERT_OK(ref.Fit(data.examples));

  auto sql_local = clf.ExplainLocal("SELECT n FROM items WHERE n = 13", 0);
  ASSERT_TRUE(sql_local.ok()) << sql_local.status().ToString();
  Example item13 = data.examples[12];
  auto ref_local = ref.ExplainLocal({item13}, 0);
  ASSERT_TRUE(ref_local.ok());
  ASSERT_EQ(sql_local->size(), ref_local->size());
  std::map<std::pair<std::string, int64_t>, double> want;
  for (const auto& e : *ref_local) want[{e.j, e.k.AsInt()}] = e.w;
  for (const auto& e : *sql_local) {
    auto it = want.find({e.j, e.k.AsInt()});
    ASSERT_NE(it, want.end());
    EXPECT_NEAR(e.w, it->second, 1e-9 * (1 + std::abs(it->second)));
  }
}

TEST_F(BornSqlTest, HyperparamSweepMatchesReference) {
  TestData data = MakeData(11, 70, 3, 10);
  BORNSQL_ASSERT_OK(data.Load(&db_));
  BornSqlClassifier clf(&db_, "m", Source());
  BORNSQL_ASSERT_OK(clf.Fit(kAllItems));
  BornClassifierRef ref;
  BORNSQL_ASSERT_OK(ref.Fit(data.examples));

  const Hyperparams grid[] = {
      {0.5, 1.0, 1.0}, {1.0, 1.0, 0.0}, {0.5, 0.5, 1.0},
      {2.0, 0.0, 2.0}, {0.25, 1.0, 0.5},
  };
  for (const Hyperparams& hp : grid) {
    BORNSQL_ASSERT_OK(clf.SetParams(hp));
    ref.set_params(hp);
    auto sql_p = clf.PredictProba("SELECT n FROM items WHERE n <= 10");
    ASSERT_TRUE(sql_p.ok()) << sql_p.status().ToString();
    for (const SqlProbability& p : *sql_p) {
      auto want = ref.PredictProba(data.examples[p.n.AsInt() - 1].x);
      ASSERT_TRUE(want.ok());
      double expected = 0.0;
      for (const auto& [k, v] : *want) {
        if (Value::Compare(k, p.k) == 0) expected = v;
      }
      EXPECT_NEAR(p.p, expected, 1e-7)
          << "a=" << hp.a << " b=" << hp.b << " h=" << hp.h;
    }
  }
}

TEST_F(BornSqlTest, MultipleModelsCoexist) {
  TestData data = MakeData(12, 50, 2, 8);
  BORNSQL_ASSERT_OK(data.Load(&db_));
  BornSqlClassifier m1(&db_, "alpha", Source());
  BornSqlClassifier m2(&db_, "beta", Source(), Hyperparams{1.0, 0.5, 0.0});
  BORNSQL_ASSERT_OK(m1.Fit("SELECT n FROM items WHERE n <= 25"));
  BORNSQL_ASSERT_OK(m2.Fit("SELECT n FROM items WHERE n > 25"));
  auto c1 = m1.CorpusEntries();
  auto c2 = m2.CorpusEntries();
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_GT(*c1, 0);
  EXPECT_GT(*c2, 0);
  // Both rows live in the shared params table.
  auto params = MustQuery(db_, "SELECT COUNT(*) FROM params");
  EXPECT_EQ(params.rows[0][0].AsInt(), 2);
}

TEST_F(BornSqlTest, InvalidModelNameRejected) {
  TestData data = MakeData(13, 5, 2, 4);
  BORNSQL_ASSERT_OK(data.Load(&db_));
  BornSqlClassifier clf(&db_, "bad name; DROP TABLE items", Source());
  EXPECT_FALSE(clf.Fit(kAllItems).ok());
}

TEST_F(BornSqlTest, EmptySourceRejected) {
  BornSqlClassifier clf(&db_, "m", SqlSource{});
  EXPECT_FALSE(clf.Fit(kAllItems).ok());
}

TEST_F(BornSqlTest, GeneratedSqlMirrorsPaperListings) {
  BornSqlClassifier clf(&db_, "m", Source());
  std::string fit = clf.BuildFitSql(kAllItems, false);
  EXPECT_NE(fit.find("ON CONFLICT (j, k) DO UPDATE SET w = m_corpus.w + "
                     "excluded.w"),
            std::string::npos);
  EXPECT_NE(fit.find("GROUP BY XY_njk.j, XY_njk.k"), std::string::npos);
  std::string predict = clf.BuildPredictSql(kAllItems);
  EXPECT_NE(predict.find("ROW_NUMBER() OVER(PARTITION BY n ORDER BY w DESC"),
            std::string::npos);
  std::string deploy = clf.BuildDeploySql();
  EXPECT_NE(deploy.find("POW(P_k.w, b) * POW(P_j.w, 1 - b)"),
            std::string::npos);
}

// Equivalence must hold under every engine configuration.
class BornSqlConfigTest
    : public ::testing::TestWithParam<engine::EngineConfig> {};

TEST_P(BornSqlConfigTest, SqlEqualsReferenceUnderAllConfigs) {
  engine::Database db{GetParam()};
  TestData data = MakeData(99, 60, 3, 10);
  BORNSQL_ASSERT_OK(data.Load(&db));
  BornSqlClassifier clf(&db, "m", Source());
  BORNSQL_ASSERT_OK(clf.Fit(kAllItems));
  BornClassifierRef ref;
  BORNSQL_ASSERT_OK(ref.Fit(data.examples));

  auto preds = clf.Predict("SELECT n FROM items WHERE n <= 20");
  ASSERT_TRUE(preds.ok()) << preds.status().ToString();
  ASSERT_EQ(preds->size(), 20u);
  for (const SqlPrediction& p : *preds) {
    auto want = ref.Predict(data.examples[p.n.AsInt() - 1].x);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(Value::Compare(p.k, *want), 0);
  }
}

engine::EngineConfig Config(engine::JoinStrategy js, bool mat_ctes,
                            bool index_joins) {
  engine::EngineConfig config;
  config.join_strategy = js;
  config.materialize_ctes = mat_ctes;
  config.use_index_joins = index_joins;
  return config;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, BornSqlConfigTest,
    ::testing::Values(
        Config(engine::JoinStrategy::kHash, true, true),
        Config(engine::JoinStrategy::kHash, true, false),
        Config(engine::JoinStrategy::kHash, false, true),
        Config(engine::JoinStrategy::kSortMerge, true, false),
        Config(engine::JoinStrategy::kSortMerge, false, false)));

}  // namespace
}  // namespace bornsql::born
