#include "born/born_sql.h"

#include <algorithm>
#include <cctype>
#include <map>

#include "common/strings.h"
#include "lint/linter.h"

namespace bornsql::born {
namespace {

// Mass below this threshold is treated as fully unlearned; keeps the SQL
// and the in-memory reference (born_ref.cc) consistent.
constexpr const char* kEpsLiteral = "1e-12";

std::string FormatDouble(double v) { return StrFormat("%.17g", v); }

bool IsValidModelName(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

}  // namespace

BornSqlClassifier::BornSqlClassifier(engine::Database* db, std::string model,
                                     SqlSource source, Hyperparams params)
    : db_(db),
      model_(std::move(model)),
      source_(std::move(source)),
      params_(params) {}

namespace {

// Debug-build guard for the SQL the driver generates: error-severity lint
// findings (statements that cannot execute correctly, e.g. BSL005) fail
// fast with the diagnostic; warnings are expected on this workload (the
// 1-row normalizer CTE is comma-joined by design, tripping BSL001) and
// pass through. No-op in release builds.
Status LintGeneratedSql(engine::Database* db, const std::string& sql) {
#ifndef NDEBUG
  BORNSQL_ASSIGN_OR_RETURN(std::vector<lint::Diagnostic> diags,
                           lint::LintSql(sql, &db->catalog()));
  for (const lint::Diagnostic& d : diags) {
    if (d.severity == lint::Severity::kError) {
      return Status::Internal("generated SQL failed lint: " +
                              lint::FormatDiagnostic(d));
    }
  }
#else
  (void)db;
  (void)sql;
#endif
  return Status::OK();
}

}  // namespace

Result<engine::QueryResult> BornSqlClassifier::Exec(const std::string& sql) {
  BORNSQL_RETURN_IF_ERROR(LintGeneratedSql(db_, sql));
  return db_->Execute(sql);
}

Status BornSqlClassifier::ExecScript(const std::string& sql) {
  BORNSQL_RETURN_IF_ERROR(LintGeneratedSql(db_, sql));
  return db_->ExecuteScript(sql);
}

Status BornSqlClassifier::EnsureModel() {
  if (!IsValidModelName(model_)) {
    return Status::InvalidArgument("invalid model name '" + model_ +
                                   "' (identifier characters only)");
  }
  if (source_.x_parts.empty()) {
    return Status::InvalidArgument("SqlSource.x_parts must not be empty");
  }
  if (source_.y.empty()) {
    return Status::InvalidArgument("SqlSource.y must not be empty");
  }
  if (model_ready_) return Status::OK();
  BORNSQL_RETURN_IF_ERROR(ExecScript(
      "CREATE TABLE IF NOT EXISTS params "
      "(model TEXT PRIMARY KEY, a REAL, b REAL, h REAL)"));
  BORNSQL_RETURN_IF_ERROR(ExecScript(StrFormat(
      "INSERT INTO params (model, a, b, h) VALUES ('%s', %s, %s, %s) "
      "ON CONFLICT (model) DO UPDATE SET a = excluded.a, b = excluded.b, "
      "h = excluded.h",
      model_.c_str(), FormatDouble(params_.a).c_str(),
      FormatDouble(params_.b).c_str(), FormatDouble(params_.h).c_str())));
  // The (j, k) primary key is what powers the ON CONFLICT upsert of §3.2.
  // k is left untyped: class labels may be integers or text.
  BORNSQL_RETURN_IF_ERROR(ExecScript(
      StrFormat("CREATE TABLE IF NOT EXISTS %s "
                "(j TEXT, k, w REAL, PRIMARY KEY (j, k))",
                corpus_table().c_str())));
  model_ready_ = true;
  return Status::OK();
}

std::string BornSqlClassifier::PreprocessCtes(const std::string& q_n,
                                              bool training,
                                              bool negate_weights) const {
  // N_n (15): the item filter. Each q_x part is filtered by joining N_n
  // *before* the UNION ALL concatenation (§3.1).
  std::string out = "N_n AS (" + q_n + "),\nX_nj AS (";
  for (size_t i = 0; i < source_.x_parts.size(); ++i) {
    if (i > 0) out += "\n  UNION ALL ";
    out += StrFormat(
        "SELECT x%zu.n AS n, x%zu.j AS j, x%zu.w AS w "
        "FROM (%s) AS x%zu, N_n WHERE x%zu.n = N_n.n",
        i, i, i, source_.x_parts[i].c_str(), i, i);
  }
  out += ")";
  if (training) {
    out += StrFormat(
        ",\nY_nk AS (SELECT y0.n AS n, y0.k AS k, y0.w AS w "
        "FROM (%s) AS y0, N_n WHERE y0.n = N_n.n)",
        source_.y.c_str());
    const char* sign = negate_weights ? "-" : "";
    if (source_.w.empty()) {
      // Default unit weights, skipping the user query (§4.2).
      out += StrFormat(",\nW_n AS (SELECT N_n.n AS n, %s1.0 AS w FROM N_n)",
                       sign);
    } else {
      out += StrFormat(
          ",\nW_n AS (SELECT w0.n AS n, %s(w0.w) AS w "
          "FROM (%s) AS w0, N_n WHERE w0.n = N_n.n)",
          sign, source_.w.c_str());
    }
  }
  return out;
}

std::string BornSqlClassifier::BuildFitSql(const std::string& q_n,
                                           bool unlearn) const {
  // Listings (16)-(18) followed by the incremental upsert of §3.2.
  return StrFormat(
      "INSERT INTO %s (j, k, w)\n"
      "WITH %s,\n"
      "XY_njk AS (SELECT X_nj.n AS n, X_nj.j AS j, Y_nk.k AS k, "
      "X_nj.w * Y_nk.w AS w FROM X_nj, Y_nk WHERE X_nj.n = Y_nk.n),\n"
      "XY_n AS (SELECT n, SUM(w) AS w FROM XY_njk GROUP BY n),\n"
      "P_jk AS (SELECT XY_njk.j AS j, XY_njk.k AS k, "
      "SUM(W_n.w * XY_njk.w / XY_n.w) AS w "
      "FROM XY_njk, XY_n, W_n "
      "WHERE XY_njk.n = XY_n.n AND XY_njk.n = W_n.n "
      "GROUP BY XY_njk.j, XY_njk.k)\n"
      "SELECT j, k, w FROM P_jk\n"
      "ON CONFLICT (j, k) DO UPDATE SET w = %s.w + excluded.w",
      corpus_table().c_str(),
      PreprocessCtes(q_n, /*training=*/true, unlearn).c_str(),
      corpus_table().c_str());
}

Status BornSqlClassifier::Fit(const std::string& q_n) {
  BORNSQL_RETURN_IF_ERROR(ExecScript(
      StrFormat("DROP TABLE IF EXISTS %s", corpus_table().c_str())));
  BORNSQL_RETURN_IF_ERROR(Undeploy());
  model_ready_ = false;
  return PartialFit(q_n);
}

Status BornSqlClassifier::PartialFit(const std::string& q_n) {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  BORNSQL_RETURN_IF_ERROR(
      Exec(BuildFitSql(q_n, /*unlearn=*/false)).status());
  // Any previous deployment is stale.
  return Undeploy();
}

Status BornSqlClassifier::Unlearn(const std::string& q_n) {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  BORNSQL_RETURN_IF_ERROR(
      Exec(BuildFitSql(q_n, /*unlearn=*/true)).status());
  return Undeploy();
}

namespace {

// Renders a Value as a SQL literal.
std::string ValueToSqlLiteral(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
    case ValueType::kDouble:
      return v.is_int() ? v.ToString() : FormatDouble(v.AsDouble());
    case ValueType::kText:
      return SqlQuote(v.AsText());
  }
  return "NULL";
}

}  // namespace

Status BornSqlClassifier::PartialFitExternal(
    const std::vector<Example>& batch) {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  // Compute the P_jk contributions (Eq. 1) client-side...
  BornClassifierRef local(params_);
  BORNSQL_RETURN_IF_ERROR(local.PartialFit(batch));
  if (local.corpus_entries() == 0) return Status::OK();
  // ...and upsert them with the same incremental statement as §3.2.
  std::vector<std::string> tuples;
  for (const auto& [j, row] : local.corpus()) {
    for (const auto& [k, w] : row) {
      tuples.push_back(StrFormat("(%s, %s, %s)", SqlQuote(j).c_str(),
                                 ValueToSqlLiteral(k).c_str(),
                                 FormatDouble(w).c_str()));
    }
  }
  BORNSQL_RETURN_IF_ERROR(InsertTuples(
      corpus_table() + " (j, k, w)", tuples,
      StrFormat(" ON CONFLICT (j, k) DO UPDATE SET w = %s.w + excluded.w",
                corpus_table().c_str())));
  return Undeploy();
}

Status BornSqlClassifier::InsertTuples(const std::string& into,
                                       const std::vector<std::string>& tuples,
                                       const std::string& tail) {
  constexpr size_t kChunk = 512;
  for (size_t begin = 0; begin < tuples.size(); begin += kChunk) {
    const size_t end = std::min(tuples.size(), begin + kChunk);
    std::string values = tuples[begin];
    for (size_t i = begin + 1; i < end; ++i) values += ", " + tuples[i];
    BORNSQL_RETURN_IF_ERROR(Exec(StrFormat("INSERT INTO %s VALUES %s%s",
                                           into.c_str(), values.c_str(),
                                           tail.c_str()))
                                .status());
  }
  return Status::OK();
}

Status BornSqlClassifier::UnlearnExternal(const std::vector<Example>& batch) {
  std::vector<Example> negated = batch;
  for (Example& ex : negated) ex.sample_weight = -ex.sample_weight;
  return PartialFitExternal(negated);
}

Result<std::vector<SqlPrediction>> BornSqlClassifier::PredictExternal(
    const std::vector<FeatureVector>& items) {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  // Write the feature vectors to a temporary table (§7: "constructed
  // externally and written to a temporary table when needed").
  const std::string temp = model_ + "_external_x";
  BORNSQL_RETURN_IF_ERROR(ExecScript(StrFormat(
      "DROP TABLE IF EXISTS %s;"
      "CREATE TABLE %s (n INTEGER, j TEXT, w REAL)",
      temp.c_str(), temp.c_str())));
  std::vector<std::string> tuples;
  for (size_t i = 0; i < items.size(); ++i) {
    for (const auto& [j, w] : items[i]) {
      tuples.push_back(StrFormat("(%zu, %s, %s)", i, SqlQuote(j).c_str(),
                                 FormatDouble(w).c_str()));
    }
  }
  BORNSQL_RETURN_IF_ERROR(InsertTuples(temp, tuples, ""));
  // Classify through a driver whose q_x reads the temporary table; it
  // shares this model's corpus/weights/params state.
  SqlSource temp_source;
  temp_source.x_parts = {
      StrFormat("SELECT n, j, w FROM %s", temp.c_str())};
  temp_source.y = source_.y;  // unused for prediction
  BornSqlClassifier scratch(db_, model_, temp_source, params_);
  if (deployed_) {
    BORNSQL_RETURN_IF_ERROR(scratch.AttachDeployment());
  }
  auto result =
      scratch.Predict(StrFormat("SELECT DISTINCT n FROM %s", temp.c_str()));
  BORNSQL_RETURN_IF_ERROR(ExecScript(
      StrFormat("DROP TABLE IF EXISTS %s", temp.c_str())));
  return result;
}

Result<double> BornSqlClassifier::Score(const std::string& q_n) {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  BORNSQL_ASSIGN_OR_RETURN(auto predictions, Predict(q_n));
  // True labels: q_y filtered to the same items, exactly like training.
  BORNSQL_ASSIGN_OR_RETURN(
      engine::QueryResult truth,
      Exec(StrFormat(
          "WITH N_n AS (%s) SELECT y0.n AS n, y0.k AS k "
          "FROM (%s) AS y0, N_n WHERE y0.n = N_n.n",
          q_n.c_str(), source_.y.c_str())));
  if (truth.rows.empty()) {
    return Status::InvalidArgument("no labeled items match q_n");
  }
  std::map<std::string, Value> labels;
  for (Row& row : truth.rows) labels[row[0].ToString()] = row[1];
  size_t correct = 0;
  for (const SqlPrediction& p : predictions) {
    auto it = labels.find(p.n.ToString());
    if (it != labels.end() && Value::Compare(p.k, it->second) == 0) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

Result<Hyperparams> BornSqlClassifier::TuneParams(
    const std::string& q_n, const std::vector<Hyperparams>& grid) {
  if (grid.empty()) {
    return Status::InvalidArgument("hyper-parameter grid is empty");
  }
  // §2.2.1: the corpus does not depend on (a, b, h), so candidates are
  // evaluated by re-deriving the weights only.
  Hyperparams best = grid[0];
  double best_score = -1.0;
  for (const Hyperparams& candidate : grid) {
    BORNSQL_RETURN_IF_ERROR(SetParams(candidate));
    BORNSQL_ASSIGN_OR_RETURN(double score, Score(q_n));
    if (score > best_score) {
      best_score = score;
      best = candidate;
    }
  }
  BORNSQL_RETURN_IF_ERROR(SetParams(best));
  return best;
}

std::string BornSqlClassifier::WeightCtes(bool from_weights_table) const {
  // ABH (19) plus, when not deployed, the full chain (20)-(26) computing
  // HW_jk = H_j^h W_jk^a straight from the corpus.
  std::string out = StrFormat(
      "ABH AS (SELECT a, b, h FROM params WHERE model = '%s')",
      model_.c_str());
  if (from_weights_table) return out;
  out += StrFormat(
      ",\nP_jk AS (SELECT j, k, w FROM %s WHERE w > %s),\n"
      "P_j AS (SELECT j, SUM(w) AS w FROM P_jk GROUP BY j),\n"
      "P_k AS (SELECT k, SUM(w) AS w FROM P_jk GROUP BY k),\n"
      "KN AS (SELECT COUNT(*) AS n FROM P_k),\n"
      "W_jk AS (SELECT P_jk.j AS j, P_jk.k AS k, "
      "P_jk.w / (POW(P_k.w, b) * POW(P_j.w, 1 - b)) AS w "
      "FROM P_jk, P_j, P_k, ABH WHERE P_jk.j = P_j.j AND P_jk.k = P_k.k),\n"
      "W_j AS (SELECT j, SUM(w) AS w FROM W_jk GROUP BY j),\n"
      "H_jk AS (SELECT W_jk.j AS j, W_jk.k AS k, W_jk.w / W_j.w AS w "
      "FROM W_jk, W_j WHERE W_jk.j = W_j.j),\n"
      "H_j AS (SELECT H_jk.j AS j, "
      "1 + SUM(H_jk.w * LN(H_jk.w)) / LN(KN.n) AS w "
      "FROM H_jk, KN GROUP BY H_jk.j, KN.n),\n"
      "HW_jk AS (SELECT W_jk.j AS j, W_jk.k AS k, "
      "POW(H_j.w, h) * POW(W_jk.w, a) AS w "
      "FROM W_jk, H_j, ABH WHERE W_jk.j = H_j.j)",
      corpus_table().c_str(), kEpsLiteral);
  return out;
}

std::string BornSqlClassifier::BuildDeploySql() const {
  // CREATE TABLE ... AS the weight chain (§3.3).
  return StrFormat("CREATE TABLE %s AS\nWITH %s\nSELECT j, k, w FROM HW_jk",
                   weights_table().c_str(),
                   WeightCtes(/*from_weights_table=*/false).c_str());
}

Status BornSqlClassifier::Deploy() {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  BORNSQL_RETURN_IF_ERROR(Undeploy());
  BORNSQL_RETURN_IF_ERROR(ExecScript(BuildDeploySql()));
  // A secondary index on j turns per-item inference into index lookups —
  // this is what reproduces Fig. 6's post-deployment drop.
  BORNSQL_RETURN_IF_ERROR(ExecScript(
      StrFormat("CREATE INDEX %s_j ON %s (j)", weights_table().c_str(),
                weights_table().c_str())));
  deployed_ = true;
  return Status::OK();
}

Status BornSqlClassifier::Undeploy() {
  deployed_ = false;
  return ExecScript(
      StrFormat("DROP TABLE IF EXISTS %s", weights_table().c_str()));
}

Status BornSqlClassifier::AttachDeployment() {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  BORNSQL_RETURN_IF_ERROR(
      Exec(StrFormat("SELECT COUNT(*) FROM %s",
                             weights_table().c_str()))
          .status());
  deployed_ = true;
  return Status::OK();
}

namespace {

// The FROM source exposing HW_jk during inference: the materialized weights
// table when deployed, the CTE chain otherwise.
std::string HwSource(bool deployed, const std::string& weights_table) {
  return deployed ? weights_table + " AS HW_jk" : std::string("HW_jk");
}

}  // namespace

std::string BornSqlClassifier::BuildPredictSql(const std::string& q_n) const {
  // HWX_nk (27) + the ROW_NUMBER argmax (§3.4). `, k ASC` is appended to
  // the window ordering so ties break deterministically (the paper's plain
  // `ORDER BY w DESC` leaves tie order engine-defined).
  return StrFormat(
      "WITH %s,\n%s,\n"
      "HWX_nk AS (SELECT X_nj.n AS n, HW_jk.k AS k, "
      "SUM(HW_jk.w * POW(X_nj.w, a)) AS w "
      "FROM %s, X_nj, ABH WHERE HW_jk.j = X_nj.j "
      "GROUP BY X_nj.n, HW_jk.k)\n"
      "SELECT R_nk.n AS n, R_nk.k AS k FROM "
      "(SELECT n, k, ROW_NUMBER() OVER(PARTITION BY n ORDER BY w DESC, k) "
      "AS r FROM HWX_nk) AS R_nk WHERE R_nk.r = 1",
      PreprocessCtes(q_n, /*training=*/false, false).c_str(),
      WeightCtes(deployed_).c_str(),
      HwSource(deployed_, weights_table()).c_str());
}

std::string BornSqlClassifier::BuildPredictProbaSql(
    const std::string& q_n) const {
  // (27) + U_nk (28) + U_n (29) + normalization.
  return StrFormat(
      "WITH %s,\n%s,\n"
      "HWX_nk AS (SELECT X_nj.n AS n, HW_jk.k AS k, "
      "SUM(HW_jk.w * POW(X_nj.w, a)) AS w "
      "FROM %s, X_nj, ABH WHERE HW_jk.j = X_nj.j "
      "GROUP BY X_nj.n, HW_jk.k),\n"
      "U_nk AS (SELECT n, k, POW(HWX_nk.w, 1 / ABH.a) AS w "
      "FROM HWX_nk, ABH),\n"
      "U_n AS (SELECT n, SUM(w) AS w FROM U_nk GROUP BY n)\n"
      "SELECT U_nk.n AS n, U_nk.k AS k, U_nk.w / U_n.w AS w "
      "FROM U_nk, U_n WHERE U_nk.n = U_n.n ORDER BY n, k",
      PreprocessCtes(q_n, /*training=*/false, false).c_str(),
      WeightCtes(deployed_).c_str(),
      HwSource(deployed_, weights_table()).c_str());
}

Result<std::vector<SqlPrediction>> BornSqlClassifier::Predict(
    const std::string& q_n) {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  BORNSQL_ASSIGN_OR_RETURN(engine::QueryResult result,
                           Exec(BuildPredictSql(q_n)));
  std::vector<SqlPrediction> out;
  out.reserve(result.rows.size());
  for (Row& row : result.rows) {
    out.push_back(SqlPrediction{std::move(row[0]), std::move(row[1])});
  }
  return out;
}

Result<std::vector<SqlProbability>> BornSqlClassifier::PredictProba(
    const std::string& q_n) {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  BORNSQL_ASSIGN_OR_RETURN(engine::QueryResult result,
                           Exec(BuildPredictProbaSql(q_n)));
  std::vector<SqlProbability> out;
  out.reserve(result.rows.size());
  for (Row& row : result.rows) {
    SqlProbability p;
    p.n = std::move(row[0]);
    p.k = std::move(row[1]);
    p.p = row[2].is_null() ? 0.0 : row[2].AsDouble();
    out.push_back(std::move(p));
  }
  return out;
}

std::string BornSqlClassifier::BuildExplainGlobalSql(int64_t limit) const {
  std::string limit_clause =
      limit > 0 ? StrFormat(" LIMIT %lld", static_cast<long long>(limit))
                : std::string();
  if (deployed_) {
    return StrFormat("SELECT j, k, w FROM %s ORDER BY w DESC, j, k%s",
                     weights_table().c_str(), limit_clause.c_str());
  }
  return StrFormat(
      "WITH %s SELECT HW_jk.j AS j, HW_jk.k AS k, HW_jk.w AS w FROM HW_jk "
      "ORDER BY w DESC, j, k%s",
      WeightCtes(/*from_weights_table=*/false).c_str(), limit_clause.c_str());
}

Result<std::vector<ExplanationEntry>> BornSqlClassifier::ExplainGlobal(
    int64_t limit) {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  BORNSQL_ASSIGN_OR_RETURN(engine::QueryResult result,
                           Exec(BuildExplainGlobalSql(limit)));
  std::vector<ExplanationEntry> out;
  for (Row& row : result.rows) {
    ExplanationEntry e;
    e.j = row[0].is_text() ? row[0].AsText() : row[0].ToString();
    e.k = std::move(row[1]);
    e.w = row[2].is_null() ? 0.0 : row[2].AsDouble();
    out.push_back(std::move(e));
  }
  return out;
}

std::string BornSqlClassifier::BuildExplainLocalSql(const std::string& q_n,
                                                    int64_t limit) const {
  std::string limit_clause =
      limit > 0 ? StrFormat(" LIMIT %lld", static_cast<long long>(limit))
                : std::string();
  // X_n (31), Z_j (32), then the local weights HW_jk * z_j^a. The W_n CTE
  // comes from the training preprocessing (sample weights weight the
  // average of Eq. 30).
  return StrFormat(
      "WITH %s,\n%s,\n"
      "X_n AS (SELECT X_nj.n AS n, SUM(X_nj.w) AS w FROM X_nj "
      "GROUP BY X_nj.n),\n"
      "Z_j AS (SELECT X_nj.j AS j, SUM(W_n.w * X_nj.w / X_n.w) AS w "
      "FROM X_nj, X_n, W_n WHERE X_nj.n = X_n.n AND X_nj.n = W_n.n "
      "GROUP BY X_nj.j)\n"
      "SELECT HW_jk.j AS j, HW_jk.k AS k, HW_jk.w * POW(Z_j.w, a) AS w "
      "FROM %s, Z_j, ABH WHERE HW_jk.j = Z_j.j "
      "ORDER BY w DESC, j, k%s",
      PreprocessCtes(q_n, /*training=*/true, false).c_str(),
      WeightCtes(deployed_).c_str(),
      HwSource(deployed_, weights_table()).c_str(), limit_clause.c_str());
}

Result<std::vector<ExplanationEntry>> BornSqlClassifier::ExplainLocal(
    const std::string& q_n, int64_t limit) {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  BORNSQL_ASSIGN_OR_RETURN(engine::QueryResult result,
                           Exec(BuildExplainLocalSql(q_n, limit)));
  std::vector<ExplanationEntry> out;
  for (Row& row : result.rows) {
    ExplanationEntry e;
    e.j = row[0].is_text() ? row[0].AsText() : row[0].ToString();
    e.k = std::move(row[1]);
    e.w = row[2].is_null() ? 0.0 : row[2].AsDouble();
    out.push_back(std::move(e));
  }
  return out;
}

Status BornSqlClassifier::SetParams(Hyperparams params) {
  params_ = params;
  if (model_ready_) {
    BORNSQL_RETURN_IF_ERROR(ExecScript(StrFormat(
        "UPDATE params SET a = %s, b = %s, h = %s WHERE model = '%s'",
        FormatDouble(params_.a).c_str(), FormatDouble(params_.b).c_str(),
        FormatDouble(params_.h).c_str(), model_.c_str())));
  }
  // Cached weights depend on (a, b, h) (§2.2.1): drop them.
  return Undeploy();
}

Result<std::string> BornSqlClassifier::DumpModelSql(bool weights_only) {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  std::string out =
      "CREATE TABLE IF NOT EXISTS params "
      "(model TEXT PRIMARY KEY, a REAL, b REAL, h REAL);\n";
  out += StrFormat(
      "INSERT INTO params (model, a, b, h) VALUES ('%s', %s, %s, %s) "
      "ON CONFLICT (model) DO UPDATE SET a = excluded.a, b = excluded.b, "
      "h = excluded.h;\n",
      model_.c_str(), FormatDouble(params_.a).c_str(),
      FormatDouble(params_.b).c_str(), FormatDouble(params_.h).c_str());

  auto dump_table = [&](const std::string& table, bool with_key,
                        bool indexed) -> Status {
    BORNSQL_ASSIGN_OR_RETURN(
        engine::QueryResult rows,
        Exec(StrFormat("SELECT j, k, w FROM %s", table.c_str())));
    out += StrFormat("DROP TABLE IF EXISTS %s;\n", table.c_str());
    out += StrFormat("CREATE TABLE %s (j TEXT, k, w REAL%s);\n",
                     table.c_str(), with_key ? ", PRIMARY KEY (j, k)" : "");
    if (indexed) {
      out += StrFormat("CREATE INDEX %s_j ON %s (j);\n", table.c_str(),
                       table.c_str());
    }
    constexpr size_t kChunk = 512;
    for (size_t begin = 0; begin < rows.rows.size(); begin += kChunk) {
      out += StrFormat("INSERT INTO %s (j, k, w) VALUES\n", table.c_str());
      size_t end = std::min(begin + kChunk, rows.rows.size());
      for (size_t i = begin; i < end; ++i) {
        const Row& row = rows.rows[i];
        out += StrFormat("  (%s, %s, %s)%s\n",
                         SqlQuote(row[0].AsText()).c_str(),
                         ValueToSqlLiteral(row[1]).c_str(),
                         FormatDouble(row[2].AsDouble()).c_str(),
                         i + 1 == end ? ";" : ",");
      }
    }
    return Status::OK();
  };

  if (!weights_only) {
    BORNSQL_RETURN_IF_ERROR(
        dump_table(corpus_table(), /*with_key=*/true, /*indexed=*/false));
  }
  if (deployed_) {
    BORNSQL_RETURN_IF_ERROR(
        dump_table(weights_table(), /*with_key=*/false, /*indexed=*/true));
  } else if (weights_only) {
    return Status::InvalidArgument(
        "weights_only export requires a deployed model");
  }
  return out;
}

Result<int64_t> BornSqlClassifier::CorpusEntries() {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  BORNSQL_ASSIGN_OR_RETURN(
      engine::QueryResult result,
      Exec(
          StrFormat("SELECT COUNT(*) FROM %s", corpus_table().c_str())));
  BORNSQL_ASSIGN_OR_RETURN(Value v, result.ScalarValue());
  return v.AsInt();
}

Result<int64_t> BornSqlClassifier::FeatureCount() {
  BORNSQL_RETURN_IF_ERROR(EnsureModel());
  BORNSQL_ASSIGN_OR_RETURN(
      engine::QueryResult result,
      Exec(StrFormat(
          "SELECT COUNT(*) FROM (SELECT DISTINCT j FROM %s WHERE w > %s) "
          "AS f",
          corpus_table().c_str(), kEpsLiteral)));
  BORNSQL_ASSIGN_OR_RETURN(Value v, result.ScalarValue());
  return v.AsInt();
}

}  // namespace bornsql::born
