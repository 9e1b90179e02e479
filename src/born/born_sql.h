// BornSqlClassifier: the paper's contribution — a Born classifier that
// learns, unlearns, predicts and explains purely by issuing standard SQL
// to a relational database (§3 of the paper). This class is the C++
// equivalent of the paper's Python driver: it *generates* the SQL of
// listings (12)-(32) and executes it; all math happens inside the engine.
//
// Usage mirrors the paper's Scopus walkthrough:
//
//   born::SqlSource source;
//   source.x_parts = {
//     "SELECT id AS n, 'pubname:'||pubname AS j, 1.0 AS w FROM publication",
//     "SELECT pubid AS n, 'authid:'||authid AS j, 1.0 AS w FROM pub_author",
//   };
//   source.y = "SELECT id AS n, asjc / 100 AS k, 1.0 AS w FROM publication";
//   born::BornSqlClassifier clf(&db, "model", source);
//   clf.Fit("SELECT id AS n FROM publication WHERE id % 10 <= 0");
//   clf.PartialFit("SELECT id AS n FROM publication WHERE id % 10 = 1");
//   clf.Deploy();
//   auto pred = clf.Predict("SELECT 13 AS n");
//   clf.Unlearn("SELECT id AS n FROM publication WHERE id = 13");
#ifndef BORNSQL_BORN_BORN_SQL_H_
#define BORNSQL_BORN_BORN_SQL_H_

#include <string>
#include <vector>

#include "born/born_ref.h"
#include "common/status.h"
#include "engine/database.h"

namespace bornsql::born {

// The user-supplied preprocessing queries of §3.1.
struct SqlSource {
  // q_x (12): one or more SELECTs producing (n, j, w); they are combined
  // with UNION ALL. Passing the parts individually lets the driver filter
  // each one by N_n *before* concatenation (the paper's §3.1 optimization).
  std::vector<std::string> x_parts;
  // q_y (13): SELECT producing (n, k, w).
  std::string y;
  // q_w (14), optional: SELECT producing (n, w). Empty uses w_n = 1
  // ("our implementation is optimized to skip this step", §4.2).
  std::string w;
};

// One row of a prediction / probability / explanation result.
struct SqlPrediction {
  Value n;
  Value k;
};
struct SqlProbability {
  Value n;
  Value k;
  double p = 0.0;
};

class BornSqlClassifier {
 public:
  // `db` must outlive the classifier. `model` prefixes the tables this
  // model owns ({model}_corpus, {model}_weights) so several models can
  // coexist in one database (§3.2).
  BornSqlClassifier(engine::Database* db, std::string model, SqlSource source,
                    Hyperparams params = {});

  // Drops any previous state of this model and trains on q_n's items.
  Status Fit(const std::string& q_n);

  // Exact incremental learning (§3.2): adds q_n's items to the corpus via
  // INSERT ... ON CONFLICT DO UPDATE. Creates the model on first use.
  Status PartialFit(const std::string& q_n);

  // Exact unlearning (§2.1.2 / §4.3.2): PartialFit with negated sample
  // weights.
  Status Unlearn(const std::string& q_n);

  // §7 "External data": trains on examples that never enter the database.
  // The P_jk contributions of Eq. (1) are computed client-side and upserted
  // into {model}_corpus, "without the need to import the data".
  Status PartialFitExternal(const std::vector<Example>& batch);
  Status UnlearnExternal(const std::vector<Example>& batch);

  // §7: classifies feature vectors that are not stored in the database by
  // writing them to a temporary table. Result order follows item index
  // (SqlPrediction::n is the 0-based index into `items`); items with no
  // known features produce no row.
  Result<std::vector<SqlPrediction>> PredictExternal(
      const std::vector<FeatureVector>& items);

  // Materializes the weights H_j^h W_jk^a into {model}_weights and indexes
  // them (§3.3). Optional: inference works (slower) straight off the corpus.
  Status Deploy();
  Status Undeploy();
  bool deployed() const { return deployed_; }

  // Adopts an existing {model}_weights table created by another driver
  // instance for the same model (e.g. a trainer wired to the train tables,
  // while this instance's q_x reads the test tables). Fails with NotFound
  // if the weights table does not exist.
  Status AttachDeployment();

  // Classifies q_n's items: argmax_k u_k^a (§3.4).
  Result<std::vector<SqlPrediction>> Predict(const std::string& q_n);

  // Normalized class probabilities for q_n's items.
  Result<std::vector<SqlProbability>> PredictProba(const std::string& q_n);

  // Global explanation (§3.5): the HW_jk weights, descending; limit <= 0
  // returns everything.
  Result<std::vector<ExplanationEntry>> ExplainGlobal(int64_t limit);

  // Local explanation (§3.5) for q_n's items.
  Result<std::vector<ExplanationEntry>> ExplainLocal(const std::string& q_n,
                                                     int64_t limit);

  // Hyper-parameters live in the shared `params` table; updating them does
  // not require retraining but invalidates a deployment.
  Status SetParams(Hyperparams params);
  Hyperparams params() const { return params_; }

  // Classification accuracy over q_n's items, measured against the labels
  // produced by the q_y preprocessing query.
  Result<double> Score(const std::string& q_n);

  // §2.2.1: hyper-parameter tuning without retraining. Evaluates every
  // candidate on the validation items, keeps (and returns) the most
  // accurate one.
  Result<Hyperparams> TuneParams(const std::string& q_n,
                                 const std::vector<Hyperparams>& grid);

  // Number of (j, k) rows currently in the corpus ("model size").
  Result<int64_t> CorpusEntries();
  // Number of distinct features with positive mass.
  Result<int64_t> FeatureCount();

  const std::string& model() const { return model_; }
  std::string corpus_table() const { return model_ + "_corpus"; }
  std::string weights_table() const { return model_ + "_weights"; }

  // §7 "cost-effective model serving": renders the fitted model (params row
  // + corpus and, when deployed, the weights table) as a standalone SQL
  // script that recreates it in any database via ExecuteScript. With
  // `weights_only`, only the inference table is exported ("only the table
  // used for inference may be retained to reduce storage costs").
  Result<std::string> DumpModelSql(bool weights_only = false);

  // The exact SQL the driver would run — exposed so examples/docs can show
  // the generated queries (mirrors the paper's listings).
  std::string BuildFitSql(const std::string& q_n, bool unlearn) const;
  std::string BuildDeploySql() const;
  std::string BuildPredictSql(const std::string& q_n) const;
  std::string BuildPredictProbaSql(const std::string& q_n) const;
  // Explanation queries (Eqs. 30-32); the generated SQL depends on whether
  // the model is deployed, like Predict. limit <= 0 means no LIMIT clause.
  std::string BuildExplainGlobalSql(int64_t limit) const;
  std::string BuildExplainLocalSql(const std::string& q_n,
                                   int64_t limit) const;

 private:
  // All generated SQL funnels through these instead of calling db_
  // directly. Debug builds lint every statement first and fail on
  // error-severity findings (e.g. an ON CONFLICT target drifting from the
  // corpus key) so SQL-generation bugs surface at the driver, not as an
  // engine error deep in a training run. Warnings are expected — the
  // normalizer CTE is intentionally comma-joined 1-row-cartesian — and
  // ignored. Release builds delegate straight through.
  Result<engine::QueryResult> Exec(const std::string& sql);
  Status ExecScript(const std::string& sql);
  // Runs `INSERT INTO <into> VALUES <tuples><tail>` for the rendered
  // tuples, at most 512 per statement, so a large external batch never
  // builds one giant SQL string.
  Status InsertTuples(const std::string& into,
                      const std::vector<std::string>& tuples,
                      const std::string& tail);

  // Ensures {model}_corpus and the params row exist.
  Status EnsureModel();
  // CTE list: N_n, X_nj (+ Y_nk, W_n when `training`), per §3.1.
  std::string PreprocessCtes(const std::string& q_n, bool training,
                             bool negate_weights) const;
  // CTE list producing HW_jk. With `from_weights_table` the chain is just
  // ABH (inference reads {model}_weights directly); otherwise Eqs. (8)-(10)
  // are computed on the fly from the corpus.
  std::string WeightCtes(bool from_weights_table) const;

  engine::Database* db_;
  std::string model_;
  SqlSource source_;
  Hyperparams params_;
  bool deployed_ = false;
  bool model_ready_ = false;
};

}  // namespace bornsql::born

#endif  // BORNSQL_BORN_BORN_SQL_H_
