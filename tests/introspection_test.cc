// Tests for the SQL-queryable introspection layer: the born_stat_* system
// views (schema goldens, resolution through the planner, composition with
// joins/filters/aggregation), statement normalization, the slow-query log,
// SET statements, and span-based tracing with Chrome trace export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/system_views.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace bornsql {
namespace {

using engine::Database;
using engine::EngineConfig;
using engine::QueryResult;
using engine::SystemViews;
using bornsql::testing::MustQuery;
using bornsql::testing::RowStrings;

// Renders a view schema as "name TYPE" lines for golden comparison.
std::vector<std::string> SchemaLines(const std::string& view) {
  const Schema* schema = SystemViews::ViewSchema(view);
  std::vector<std::string> out;
  if (schema == nullptr) return out;
  for (const Column& col : schema->columns()) {
    out.push_back(col.name + " " + ValueTypeName(col.type));
  }
  return out;
}

void LoadFixture(Database* db) {
  BORNSQL_ASSERT_OK(db->ExecuteScript(
      "CREATE TABLE t1 (a INTEGER, b TEXT);"
      "INSERT INTO t1 VALUES (1,'x'),(2,'y'),(3,'z'),(4,'w');"));
}

// ---------------------------------------------------------------------------
// Schema goldens: accidental drift in the view schemas must fail loudly.

TEST(SystemViewSchemaTest, StatStatementsGolden) {
  std::vector<std::string> expected = {
      "query TEXT",     "calls INTEGER",  "rows INTEGER", "errors INTEGER",
      "total_ms REAL",  "min_ms REAL",    "max_ms REAL",  "mean_ms REAL",
  };
  EXPECT_EQ(SchemaLines("born_stat_statements"), expected);
}

TEST(SystemViewSchemaTest, StatOperatorsGolden) {
  std::vector<std::string> expected = {
      "operator TEXT",   "instances INTEGER", "open_calls INTEGER",
      "next_calls INTEGER", "rows INTEGER",   "wall_ms REAL",
      "peak_entries INTEGER", "peak_mem INTEGER",
  };
  EXPECT_EQ(SchemaLines("born_stat_operators"), expected);
}

TEST(SystemViewSchemaTest, StatMemoryGolden) {
  std::vector<std::string> expected = {
      "tracker TEXT",        "level TEXT",         "current_bytes INTEGER",
      "peak_bytes INTEGER",  "limit_bytes INTEGER", "denials INTEGER",
  };
  EXPECT_EQ(SchemaLines("born_stat_memory"), expected);
}

TEST(SystemViewSchemaTest, StatTablesGolden) {
  std::vector<std::string> expected = {
      "name TEXT",       "columns INTEGER", "rows INTEGER",
      "scans INTEGER",   "inserts INTEGER", "updates INTEGER",
      "deletes INTEGER",
  };
  EXPECT_EQ(SchemaLines("born_stat_tables"), expected);
}

TEST(SystemViewSchemaTest, SlowLogGolden) {
  std::vector<std::string> expected = {
      "id INTEGER",      "query TEXT", "elapsed_ms REAL",
      "threshold_ms REAL", "rows INTEGER", "plan TEXT",
  };
  EXPECT_EQ(SchemaLines("born_slow_log"), expected);
}

TEST(SystemViewSchemaTest, ViewNamesAndSelectStarAgree) {
  EXPECT_EQ(SystemViews::ViewNames(),
            (std::vector<std::string>{"born_slow_log", "born_stat_memory",
                                      "born_stat_operators",
                                      "born_stat_optimizer",
                                      "born_stat_statements",
                                      "born_stat_tables",
                                      "born_stat_verifier"}));
  // SELECT * resolves the same columns the static schema declares.
  Database db;
  for (const std::string& view : SystemViews::ViewNames()) {
    QueryResult result = MustQuery(db, "SELECT * FROM " + view);
    const Schema* schema = SystemViews::ViewSchema(view);
    ASSERT_NE(schema, nullptr) << view;
    EXPECT_EQ(result.column_names, schema->ColumnNames()) << view;
  }
}

// ---------------------------------------------------------------------------
// born_stat_statements

TEST(StatStatementsTest, AggregatesByNormalizedText) {
  Database db;
  LoadFixture(&db);
  // Three executions differing only in literals → one entry, 3 calls.
  MustQuery(db, "SELECT a FROM t1 WHERE a = 1");
  MustQuery(db, "select a from t1 where a =   2");
  MustQuery(db, "SELECT a FROM t1 WHERE a = 3;");
  QueryResult result = MustQuery(
      db,
      "SELECT calls, rows FROM born_stat_statements "
      "WHERE query = 'SELECT a FROM t1 WHERE a = ?'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 3);
  EXPECT_EQ(result.rows[0][1].AsInt(), 3);  // one row per execution
}

TEST(StatStatementsTest, RecordsErrorsAndTimings) {
  Database db;
  EXPECT_FALSE(db.Execute("SELECT x FROM missing_table").ok());
  QueryResult result = MustQuery(
      db,
      "SELECT calls, errors, total_ms >= min_ms AND max_ms >= min_ms "
      "FROM born_stat_statements WHERE query = 'SELECT x FROM "
      "missing_table'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 1);
  EXPECT_EQ(result.rows[0][1].AsInt(), 1);
  EXPECT_TRUE(result.rows[0][2].Truthy());
}

TEST(StatStatementsTest, SelfObservationExcludesInFlightStatement) {
  Database db;
  // The view materializes before this statement's own stats are recorded,
  // so a fresh database sees an empty statements view.
  QueryResult result = MustQuery(db, "SELECT COUNT(*) FROM born_stat_statements");
  EXPECT_EQ(result.rows[0][0].AsInt(), 0);
}

// ---------------------------------------------------------------------------
// born_stat_operators

TEST(StatOperatorsTest, PopulatedByInstrumentedRuns) {
  obs::MetricsRegistry metrics;  // private registry: no cross-test state
  EngineConfig config;
  config.collect_exec_stats = true;
  Database db{config};
  db.set_metrics(&metrics);
  LoadFixture(&db);
  MustQuery(db, "SELECT a FROM t1");
  QueryResult result = MustQuery(
      db,
      "SELECT instances, rows FROM born_stat_operators "
      "WHERE operator = 'SeqScan'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 1);
  EXPECT_EQ(result.rows[0][1].AsInt(), 4);
}

TEST(StatOperatorsTest, EmptyWithoutInstrumentation) {
  obs::MetricsRegistry metrics;  // private registry: no cross-test state
  Database db;
  db.set_metrics(&metrics);
  LoadFixture(&db);
  MustQuery(db, "SELECT a FROM t1");
  QueryResult result =
      MustQuery(db, "SELECT COUNT(*) FROM born_stat_operators");
  EXPECT_EQ(result.rows[0][0].AsInt(), 0);
}

// ---------------------------------------------------------------------------
// born_stat_tables

TEST(StatTablesTest, TracksUsageCounters) {
  Database db;
  LoadFixture(&db);
  MustQuery(db, "SELECT a FROM t1");           // scan 1
  MustQuery(db, "SELECT b FROM t1");           // scan 2
  MustQuery(db, "UPDATE t1 SET b = 'u' WHERE a = 1");
  MustQuery(db, "DELETE FROM t1 WHERE a = 4");
  QueryResult result = MustQuery(
      db,
      "SELECT columns, rows, scans, inserts, updates, deletes "
      "FROM born_stat_tables WHERE name = 't1'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 2);  // a, b
  EXPECT_EQ(result.rows[0][1].AsInt(), 3);  // 4 inserted - 1 deleted
  EXPECT_EQ(result.rows[0][2].AsInt(), 4);  // UPDATE/DELETE scan too
  EXPECT_EQ(result.rows[0][3].AsInt(), 4);
  EXPECT_EQ(result.rows[0][4].AsInt(), 1);
  EXPECT_EQ(result.rows[0][5].AsInt(), 1);
}

TEST(StatTablesTest, ComposesWithJoinsFiltersAggregation) {
  Database db;
  LoadFixture(&db);
  BORNSQL_ASSERT_OK(db.ExecuteScript(
      "CREATE TABLE watched (tbl TEXT, owner TEXT);"
      "INSERT INTO watched VALUES ('t1', 'alice'), ('nope', 'bob');"));
  // Join a system view against user data.
  QueryResult joined = MustQuery(
      db,
      "SELECT w.owner, s.rows FROM born_stat_tables s "
      "JOIN watched w ON s.name = w.tbl");
  EXPECT_EQ(RowStrings(joined), (std::vector<std::string>{"alice|4"}));
  // Aggregate over a filtered view scan.
  QueryResult agg = MustQuery(
      db,
      "SELECT COUNT(*), SUM(rows) FROM born_stat_tables WHERE rows > 0");
  EXPECT_EQ(agg.rows[0][0].AsInt(), 2);  // t1 and watched
  EXPECT_EQ(agg.rows[0][1].AsInt(), 6);  // 4 + 2
}

TEST(StatTablesTest, RealTableShadowsSystemView) {
  Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript(
      "CREATE TABLE born_stat_tables (x INTEGER);"
      "INSERT INTO born_stat_tables VALUES (7);"));
  QueryResult result = MustQuery(db, "SELECT x FROM born_stat_tables");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 7);
}

// ---------------------------------------------------------------------------
// SET + slow-query log

TEST(SetStatementTest, UnknownSettingIsRejected) {
  Database db;
  auto result = db.Execute("SET born.nonsense = 1");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("born.nonsense"),
            std::string::npos);
}

TEST(SetStatementTest, VectorSizeKnob) {
  Database db;
  LoadFixture(&db);
  auto rendered = [&db]() {
    std::string out;
    for (const Row& row : MustQuery(db, "SELECT a FROM t1 ORDER BY a").rows) {
      out += row[0].ToString() + "\n";
    }
    return out;
  };
  const std::string baseline = rendered();
  // 1 is the scalar escape hatch; huge values clamp to kMaxVectorSize
  // rather than failing. Results never change with the chunk size.
  for (const char* size : {"1", "3", "1000000000"}) {
    MustQuery(db, std::string("SET born.vector_size = ") + size);
    EXPECT_EQ(rendered(), baseline) << "born.vector_size=" << size;
  }
  auto result = db.Execute("SET born.vector_size = 0");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("born.vector_size"),
            std::string::npos);
}

TEST(SetStatementTest, TogglesCollectExecStats) {
  obs::MetricsRegistry metrics;
  Database db;
  db.set_metrics(&metrics);
  LoadFixture(&db);
  MustQuery(db, "SET born.collect_exec_stats = 1");
  MustQuery(db, "SELECT a FROM t1");
  EXPECT_EQ(metrics.operator_aggregate("SeqScan").instances, 1u);
  MustQuery(db, "SET born.collect_exec_stats = 0");
  MustQuery(db, "SELECT a FROM t1");
  EXPECT_EQ(metrics.operator_aggregate("SeqScan").instances, 1u);
}

TEST(StatStatementsTest, TotalTimeIsTheSumOfTraceSpans) {
  Database db;
  LoadFixture(&db);
  // A long statement, so its lex and parse are a visible share of it:
  // every sink times the statement's trace span, prologue included.
  std::string sql = "SELECT a FROM t1 WHERE a IN (0";
  for (int i = 1; i < 2000; ++i) sql += ", " + std::to_string(i);
  sql += ")";
  db.trace().Clear();
  for (int i = 0; i < 20; ++i) MustQuery(db, sql);
  const std::vector<obs::StatementTrace> traces = db.trace().Snapshot();
  ASSERT_EQ(traces.size(), 20u);
  uint64_t trace_ns = 0;
  for (const obs::StatementTrace& trace : traces) {
    EXPECT_EQ(trace.statement, traces[0].statement);
    trace_ns += trace.dur_ns;
  }
  QueryResult stats =
      MustQuery(db, "SELECT query, calls, total_ms FROM born_stat_statements");
  const auto row = std::find_if(
      stats.rows.begin(), stats.rows.end(),
      [&](const Row& r) { return r[0].AsText() == traces[0].statement; });
  ASSERT_NE(row, stats.rows.end());
  EXPECT_EQ((*row)[1].AsInt(), 20);
  const double trace_ms = static_cast<double>(trace_ns) / 1e6;
  EXPECT_NEAR((*row)[2].AsDouble(), trace_ms, 1e-6 * trace_ms);
}

TEST(SlowQueryLogTest, DisarmedByDefault) {
  Database db;
  LoadFixture(&db);
  MustQuery(db, "SELECT a FROM t1");
  QueryResult result = MustQuery(db, "SELECT COUNT(*) FROM born_slow_log");
  EXPECT_EQ(result.rows[0][0].AsInt(), 0);
}

TEST(SlowQueryLogTest, CapturesStatementAndAnnotatedPlan) {
  Database db;
  LoadFixture(&db);
  MustQuery(db, "SET born.slow_query_ms = 0");  // everything is "slow"
  MustQuery(db, "SELECT a FROM t1 WHERE a > 1");
  QueryResult result = MustQuery(
      db,
      "SELECT query, threshold_ms, rows, plan FROM born_slow_log "
      "WHERE query = 'SELECT a FROM t1 WHERE a > ?'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.rows[0][1].AsDouble(), 0.0);
  EXPECT_EQ(result.rows[0][2].AsInt(), 3);
  // The logged plan is stats-annotated (auto_explain style).
  const std::string plan = result.rows[0][3].AsText();
  EXPECT_NE(plan.find("SeqScan(t1"), std::string::npos);
  EXPECT_NE(plan.find("actual rows="), std::string::npos);
  // Disarm: later statements are no longer captured.
  MustQuery(db, "SET born.slow_query_ms = -1");
  MustQuery(db, "SELECT b FROM t1");
  QueryResult count = MustQuery(db, "SELECT COUNT(*) FROM born_slow_log");
  const int64_t logged = count.rows[0][0].AsInt();
  MustQuery(db, "SELECT b FROM t1");
  EXPECT_EQ(MustQuery(db, "SELECT COUNT(*) FROM born_slow_log")
                .rows[0][0]
                .AsInt(),
            logged);
}

TEST(SlowQueryLogTest, ThresholdFiltersFastStatements) {
  Database db;
  LoadFixture(&db);
  // An absurdly high threshold: nothing on this dataset crosses it.
  MustQuery(db, "SET born.slow_query_ms = 1000000");
  MustQuery(db, "SELECT a FROM t1");
  EXPECT_EQ(MustQuery(db, "SELECT COUNT(*) FROM born_slow_log")
                .rows[0][0]
                .AsInt(),
            0);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(TraceTest, StatementsRecordPhaseSpans) {
  Database db;
  LoadFixture(&db);
  db.trace().Clear();
  MustQuery(db, "SELECT a FROM t1 WHERE a = 2");
  std::vector<obs::StatementTrace> traces = db.trace().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const obs::StatementTrace& trace = traces[0];
  EXPECT_EQ(trace.statement, "SELECT a FROM t1 WHERE a = ?");
  EXPECT_EQ(trace.rows, 1u);
  EXPECT_FALSE(trace.error);
  std::vector<std::string> phases;
  size_t optimizer_spans = 0;
  for (const obs::TraceSpan& span : trace.spans) {
    if (std::string_view(span.category) == "optimizer") {
      ++optimizer_spans;
    } else {
      phases.push_back(span.name);
    }
    // Interval containment: every span lies inside its statement, which is
    // what gives chrome://tracing its nesting on a single track.
    EXPECT_GE(span.start_ns, trace.start_ns) << span.name;
    EXPECT_LE(span.start_ns + span.dur_ns, trace.start_ns + trace.dur_ns)
        << span.name;
  }
  EXPECT_EQ(phases, (std::vector<std::string>{"lex", "parse", "bind+plan",
                                              "execute"}));
  // The optimizer contributes one span per active rule.
  EXPECT_GE(optimizer_spans, 1u);
}

TEST(TraceTest, InstrumentedRunsAddOperatorSpans) {
  EngineConfig config;
  config.collect_exec_stats = true;
  Database db{config};
  LoadFixture(&db);
  db.trace().Clear();
  MustQuery(db, "SELECT a FROM t1");
  std::vector<obs::StatementTrace> traces = db.trace().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  size_t operator_spans = 0;
  for (const obs::TraceSpan& span : traces[0].spans) {
    if (std::string(span.category) == "operator") ++operator_spans;
  }
  // Project + SeqScan.
  EXPECT_EQ(operator_spans, 2u);
}

TEST(TraceTest, SetBornTraceZeroDisablesRecording) {
  Database db;
  LoadFixture(&db);
  MustQuery(db, "SET born.trace = 0");
  db.trace().Clear();
  MustQuery(db, "SELECT a FROM t1");
  EXPECT_EQ(db.trace().size(), 0u);
  MustQuery(db, "SET born.trace = 1");
  MustQuery(db, "SELECT a FROM t1");
  EXPECT_EQ(db.trace().size(), 1u);
}

TEST(TraceTest, RingBufferEvictsOldest) {
  Database db;
  MustQuery(db, "SET born.trace_capacity = 2");
  db.trace().Clear();
  MustQuery(db, "SELECT 1");
  MustQuery(db, "SELECT 2");
  MustQuery(db, "SELECT 3");
  std::vector<obs::StatementTrace> traces = db.trace().Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  // Ids keep increasing across evictions; the oldest trace is gone.
  EXPECT_LT(traces[0].id, traces[1].id);
  EXPECT_EQ(traces[1].id, 4u);  // SET + three SELECTs
}

TEST(TraceTest, ChromeTraceJsonShape) {
  EngineConfig config;
  config.collect_exec_stats = true;
  Database db{config};
  LoadFixture(&db);
  db.trace().Clear();
  MustQuery(db, "SELECT a FROM t1 WHERE b = 'x'");
  const std::string json = db.TraceJson();
  // A trace_event JSON array of "X" complete events on one track, with the
  // statement event carrying args and literals normalized away.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 3), "\n]\n");
  EXPECT_NE(json.find("\"name\": \"SELECT a FROM t1 WHERE b = ?\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"statement\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"operator\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 1, \"error\": false}"), std::string::npos);
  // The trace survives a JSON round trip in spirit: balanced braces.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TraceTest, ExportTraceWritesLoadableFile) {
  Database db;
  MustQuery(db, "SELECT 42");
  const std::string path = ::testing::TempDir() + "bornsql_trace_test.json";
  BORNSQL_ASSERT_OK(db.ExportTrace(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content, db.TraceJson());
  EXPECT_NE(content.find("\"SELECT ?\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Statement normalization

TEST(SqlTextTest, ScriptStatementsGetPerStatementKeys) {
  Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript(
      "CREATE TABLE s (v INTEGER); INSERT INTO s VALUES (1); "
      "INSERT INTO s VALUES (2);"));
  QueryResult stats = MustQuery(
      db,
      "SELECT calls FROM born_stat_statements "
      "WHERE query = 'INSERT INTO s VALUES (?)'");
  ASSERT_EQ(stats.rows.size(), 1u);
  EXPECT_EQ(stats.rows[0][0].AsInt(), 2);
}

}  // namespace
}  // namespace bornsql
