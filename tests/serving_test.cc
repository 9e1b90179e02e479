// Tests for the serving layer (src/serve/): sessions over a shared
// catalog, PREPARE / EXECUTE / DEALLOCATE with typed placeholders, the
// keyed plan cache (hits, invalidation by DDL and by per-session config),
// the serving system views, and a concurrent multi-session hammer.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/plan_cache.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tests/test_util.h"

namespace bornsql {
namespace {

using engine::QueryResult;
using serve::Server;
using serve::ServerConfig;
using serve::Session;

QueryResult MustExecute(Session& session, std::string_view sql) {
  auto result = session.Execute(sql);
  EXPECT_TRUE(result.ok()) << "statement failed: "
                           << result.status().ToString() << "\nsql: " << sql;
  if (!result.ok()) return QueryResult{};
  return std::move(result).value();
}

std::string MustFail(Session& session, std::string_view sql) {
  auto result = session.Execute(sql);
  EXPECT_FALSE(result.ok()) << "expected failure for: " << sql;
  return result.ok() ? std::string() : result.status().ToString();
}

// The docs/scores-style fixture the predict queries use.
constexpr const char* kFixture =
    "CREATE TABLE t (a INTEGER, b TEXT);"
    "INSERT INTO t VALUES (1,'x'),(2,'y'),(3,'z'),(4,'w');"
    "CREATE TABLE s (a INTEGER, c INTEGER);"
    "INSERT INTO s VALUES (2,20),(3,30),(9,90);";

std::unique_ptr<Server> MakeServer() {
  auto server = std::make_unique<Server>();
  BORNSQL_EXPECT_OK(server->Bootstrap(kFixture));
  return server;
}

TEST(ServingSessionTest, PrepareExecuteNumberedPlaceholders) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "PREPARE p AS SELECT b FROM t WHERE a = $1");
  EXPECT_EQ(testing::RowStrings(MustExecute(*session, "EXECUTE p(2)")),
            std::vector<std::string>{"y"});
  EXPECT_EQ(testing::RowStrings(MustExecute(*session, "EXECUTE p(4)")),
            std::vector<std::string>{"w"});
}

TEST(ServingSessionTest, PrepareExecuteQuestionMarkPlaceholders) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session,
              "PREPARE q AS SELECT a FROM t WHERE b = ? OR a > ?");
  EXPECT_EQ(testing::RowStrings(MustExecute(*session, "EXECUTE q('x', 3)")),
            (std::vector<std::string>{"1", "4"}));
}

TEST(ServingSessionTest, PreparedDmlExecutes) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "PREPARE ins AS INSERT INTO t VALUES ($1, $2)");
  EXPECT_EQ(MustExecute(*session, "EXECUTE ins(5, 'v')").rows_affected, 1u);
  MustExecute(*session, "PREPARE del AS DELETE FROM t WHERE a = $1");
  EXPECT_EQ(MustExecute(*session, "EXECUTE del(5)").rows_affected, 1u);
  EXPECT_EQ(
      MustExecute(*session, "SELECT COUNT(*) FROM t").rows[0][0].AsInt(), 4);
}

TEST(ServingSessionTest, ExecuteArityMismatch) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "PREPARE p AS SELECT b FROM t WHERE a = $1");
  const std::string error = MustFail(*session, "EXECUTE p(1, 2)");
  EXPECT_NE(error.find("expects 1 parameter, got 2"), std::string::npos)
      << error;
}

TEST(ServingSessionTest, ExecuteTypeMismatchNamesParameterAndSpan) {
  auto server = MakeServer();
  auto session = server->Connect();
  // a INTEGER, so $1 is inferred INTEGER; a TEXT argument must fail with
  // the parameter's source span (line:column of the placeholder).
  MustExecute(*session, "PREPARE p AS SELECT b FROM t WHERE a = $1");
  const std::string error = MustFail(*session, "EXECUTE p('not a number')");
  EXPECT_NE(error.find("parameter $1 of prepared statement 'p'"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("INTEGER"), std::string::npos) << error;
  EXPECT_NE(error.find("(at line 1:"), std::string::npos) << error;
}

TEST(ServingSessionTest, MixedPlaceholderStylesRejected) {
  auto server = MakeServer();
  auto session = server->Connect();
  const std::string error = MustFail(
      *session, "PREPARE p AS SELECT b FROM t WHERE a = ? OR a = $1");
  EXPECT_NE(error.find("cannot mix"), std::string::npos) << error;
}

TEST(ServingSessionTest, NumberedPlaceholderGapRejected) {
  auto server = MakeServer();
  auto session = server->Connect();
  const std::string error = MustFail(
      *session, "PREPARE p AS SELECT b FROM t WHERE a = $1 OR a = $3");
  EXPECT_NE(error.find("parameter $2 is never used"), std::string::npos)
      << error;
}

TEST(ServingSessionTest, RePrepareReplaces) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "PREPARE p AS SELECT b FROM t WHERE a = $1");
  MustExecute(*session, "PREPARE p AS SELECT a + 100 FROM t WHERE a = $1");
  EXPECT_EQ(testing::RowStrings(MustExecute(*session, "EXECUTE p(2)")),
            std::vector<std::string>{"102"});
}

TEST(ServingSessionTest, DeallocateAndMissingNameErrors) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "PREPARE p AS SELECT 1");
  MustExecute(*session, "DEALLOCATE p");
  EXPECT_NE(MustFail(*session, "EXECUTE p()")
                .find("prepared statement 'p' does not exist"),
            std::string::npos);
  EXPECT_NE(MustFail(*session, "DEALLOCATE nope")
                .find("prepared statement 'nope' does not exist"),
            std::string::npos);
  MustExecute(*session, "PREPARE a AS SELECT 1");
  MustExecute(*session, "PREPARE b AS SELECT 2");
  MustExecute(*session, "DEALLOCATE ALL");
  EXPECT_EQ(session->prepared_count(), 0u);
}

TEST(ServingSessionTest, BareDatabaseRejectsServingStatements) {
  engine::Database db;
  auto result = db.Execute("PREPARE p AS SELECT 1");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("serving session"),
            std::string::npos);
}

TEST(ServingCacheTest, RepeatedExecuteHitsCache) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "PREPARE p AS SELECT b FROM t WHERE a = $1");
  const auto first = testing::RowStrings(MustExecute(*session, "EXECUTE p(2)"));
  EXPECT_EQ(server->plan_cache().hits(), 0u);
  const uint64_t misses = server->plan_cache().misses();
  const auto second =
      testing::RowStrings(MustExecute(*session, "EXECUTE p(2)"));
  EXPECT_EQ(server->plan_cache().hits(), 1u);
  EXPECT_EQ(server->plan_cache().misses(), misses);
  EXPECT_EQ(first, second);
  // Different argument, same cached plan, different (correct) result.
  EXPECT_EQ(testing::RowStrings(MustExecute(*session, "EXECUTE p(3)")),
            std::vector<std::string>{"z"});
  EXPECT_EQ(server->plan_cache().hits(), 2u);
}

TEST(ServingCacheTest, AdHocSelectsAutoParameterizeAndShareEntries) {
  auto server = MakeServer();
  auto session = server->Connect();
  EXPECT_EQ(testing::RowStrings(
                MustExecute(*session, "SELECT b FROM t WHERE a = 1")),
            std::vector<std::string>{"x"});
  // Same shape, different literal: must hit, and must NOT replay row 'x'.
  EXPECT_EQ(testing::RowStrings(
                MustExecute(*session, "SELECT b FROM t WHERE a = 3")),
            std::vector<std::string>{"z"});
  EXPECT_EQ(server->plan_cache().hits(), 1u);
}

TEST(ServingCacheTest, PreparedAndAdHocShareOneEntry) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "PREPARE p AS SELECT b FROM t WHERE a = ?");
  MustExecute(*session, "EXECUTE p(1)");  // miss, inserts
  EXPECT_EQ(testing::RowStrings(
                MustExecute(*session, "SELECT b FROM t WHERE a = 2")),
            std::vector<std::string>{"y"});
  EXPECT_EQ(server->plan_cache().hits(), 1u);
  EXPECT_EQ(server->plan_cache().size(), 1u);
}

TEST(ServingCacheTest, OrderByOrdinalsDoNotCollide) {
  auto server = MakeServer();
  auto session = server->Connect();
  auto by_a = MustExecute(*session, "SELECT a, b FROM t ORDER BY 1");
  auto by_b = MustExecute(*session, "SELECT a, b FROM t ORDER BY 2");
  // Both normalize to "SELECT a, b FROM t ORDER BY ?" but the kept-literal
  // suffix keeps their keys distinct; the second must not reuse the first
  // plan's sort key.
  EXPECT_EQ(server->plan_cache().hits(), 0u);
  EXPECT_EQ(by_a.rows[0][0].AsInt(), 1);
  EXPECT_EQ(by_b.rows[0][1].AsText(), "w");
}

TEST(ServingCacheTest, DdlInvalidatesCache) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "SELECT b FROM t WHERE a = 1");
  EXPECT_GE(server->plan_cache().size(), 1u);
  MustExecute(*session, "CREATE TABLE other (x INTEGER)");
  EXPECT_EQ(server->plan_cache().size(), 0u);
  // Catalog version changed, so the re-run misses (no stale-plan reuse).
  const uint64_t hits = server->plan_cache().hits();
  MustExecute(*session, "SELECT b FROM t WHERE a = 1");
  EXPECT_EQ(server->plan_cache().hits(), hits);
}

TEST(ServingCacheTest, DropAndRecreateServesFreshPlan) {
  auto server = MakeServer();
  auto session = server->Connect();
  EXPECT_EQ(testing::RowStrings(
                MustExecute(*session, "SELECT b FROM t WHERE a = 1")),
            std::vector<std::string>{"x"});
  MustExecute(*session, "DROP TABLE t");
  MustExecute(*session, "CREATE TABLE t (a INTEGER, b TEXT)");
  MustExecute(*session, "INSERT INTO t VALUES (1,'fresh')");
  EXPECT_EQ(testing::RowStrings(
                MustExecute(*session, "SELECT b FROM t WHERE a = 1")),
            std::vector<std::string>{"fresh"});
}

TEST(ServingCacheTest, OptimizerRuleChangeInvalidatesByFingerprint) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "SELECT b FROM t WHERE a = 1");
  MustExecute(*session, "SET born.opt.predicate_pushdown = 0");
  const uint64_t hits = server->plan_cache().hits();
  // Same text, new config fingerprint: must miss and re-optimize.
  MustExecute(*session, "SELECT b FROM t WHERE a = 2");
  EXPECT_EQ(server->plan_cache().hits(), hits);
  // Restoring the config restores the original key.
  MustExecute(*session, "SET born.opt.predicate_pushdown = 1");
  MustExecute(*session, "SELECT b FROM t WHERE a = 3");
  EXPECT_EQ(server->plan_cache().hits(), hits + 1);
}

TEST(ServingCacheTest, PerSessionConfigKeepsPlansApart) {
  auto server = MakeServer();
  auto s1 = server->Connect();
  auto s2 = server->Connect();
  MustExecute(*s2, "SET born.opt.predicate_pushdown = 0");
  MustExecute(*s1, "SELECT b FROM t WHERE a = 1");
  // s2 has a different fingerprint, so it must not reuse s1's plan...
  MustExecute(*s2, "SELECT b FROM t WHERE a = 1");
  EXPECT_EQ(server->plan_cache().hits(), 0u);
  // ...while a third session with default config shares s1's entry.
  auto s3 = server->Connect();
  MustExecute(*s3, "SELECT b FROM t WHERE a = 2");
  EXPECT_EQ(server->plan_cache().hits(), 1u);
}

TEST(ServingCacheTest, SetPlanCacheDisablesCaching) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "SET born.plan_cache = 0");
  MustExecute(*session, "SELECT b FROM t WHERE a = 1");
  MustExecute(*session, "SELECT b FROM t WHERE a = 1");
  EXPECT_EQ(server->plan_cache().hits(), 0u);
  EXPECT_EQ(server->plan_cache().misses(), 0u);
  EXPECT_EQ(server->plan_cache().size(), 0u);
  MustExecute(*session, "SET born.plan_cache = 1");
  MustExecute(*session, "SELECT b FROM t WHERE a = 1");
  MustExecute(*session, "SELECT b FROM t WHERE a = 1");
  EXPECT_EQ(server->plan_cache().hits(), 1u);
}

TEST(ServingCacheTest, CapacityKnobEvicts) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "SET born.plan_cache_capacity = 1");
  // LIMIT literals are ordinal-sensitive, so they stay inline and each
  // statement gets its own cache key (auto-parameterization would
  // otherwise collapse varying WHERE literals into one shared entry).
  for (int i = 0; i < 32; ++i) {
    MustExecute(*session,
                "SELECT a FROM t ORDER BY 1 LIMIT " + std::to_string(i + 1));
  }
  EXPECT_GT(server->plan_cache().evictions(), 0u);
  // Capacity 1 rounds up to 1 per shard; the cache stays tiny.
  EXPECT_LE(server->plan_cache().size(), 8u);
  EXPECT_NE(MustFail(*session, "SET born.plan_cache_capacity = 0")
                .find("must be >= 1"),
            std::string::npos);
}

TEST(ServingCacheTest, UnknownSettingDiagnosticListsServingKnobs) {
  auto server = MakeServer();
  auto session = server->Connect();
  const std::string error = MustFail(*session, "SET born.bogus = 1");
  EXPECT_NE(error.find("unknown setting 'born.bogus'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("born.plan_cache"), std::string::npos) << error;
  EXPECT_NE(error.find("born.opt.<rule>"), std::string::npos) << error;
  // And a bare engine database tells you the serving knobs need a session.
  engine::Database db;
  auto result = db.Execute("SET born.plan_cache = 1");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("serving session"),
            std::string::npos);
}

TEST(ServingCacheTest, ParameterInLimitFallsBackUncached) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "PREPARE l AS SELECT a FROM t ORDER BY a LIMIT $1");
  EXPECT_EQ(MustExecute(*session, "EXECUTE l(2)").rows.size(), 2u);
  EXPECT_EQ(MustExecute(*session, "EXECUTE l(3)").rows.size(), 3u);
  // The build was refused (LIMIT must const-evaluate), so nothing cached.
  EXPECT_EQ(server->plan_cache().size(), 0u);
  EXPECT_EQ(server->plan_cache().hits(), 0u);
}

// One PREPAREd body run cached and uncached gives the same rows, or the
// same rows_affected and table contents: both paths hand the arguments to
// the binder. Every body but ORDER BY $1 also equals a bare database
// running the body with its literals written in.
TEST(ServingCacheTest, ExecuteBindsArgumentsOneWayOnBothPaths) {
  struct Case {
    std::string body;
    std::string args;
    std::string literal;  // the body with its literals; empty = no check
    std::string read;     // DML: reads the written table back
    bool cacheable = false;  // the cached run's second EXECUTE is a hit
  };
  const Case cases[] = {
      {"SELECT b FROM t WHERE a = $1", "2", "SELECT b FROM t WHERE a = 2",
       "", true},
      {"SELECT b FROM t WHERE a IN ($1, $2)", "1, 3",
       "SELECT b FROM t WHERE a IN (1, 3)", "", true},
      // A parameter sorts as an expression, not as a column position.
      {"SELECT a, b FROM t ORDER BY $1", "2", "", ""},
      {"SELECT a FROM t ORDER BY a LIMIT $1 OFFSET $2", "2, 1",
       "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 1", ""},
      {"WITH c AS (SELECT a, b FROM t WHERE a > $1) "
       "SELECT x.b FROM c AS x, c AS y WHERE x.a = y.a",
       "2",
       "WITH c AS (SELECT a, b FROM t WHERE a > 2) "
       "SELECT x.b FROM c AS x, c AS y WHERE x.a = y.a",
       "", true},
      {"SELECT b FROM t WHERE a IN (SELECT a FROM s WHERE c > $1)", "25",
       "SELECT b FROM t WHERE a IN (SELECT a FROM s WHERE c > 25)", ""},
      {"INSERT INTO t VALUES ($1, $2)", "7, 'q'",
       "INSERT INTO t VALUES (7, 'q')", "SELECT a, b FROM t"},
      {"UPDATE t SET b = $2 WHERE a = $1", "2, 'u'",
       "UPDATE t SET b = 'u' WHERE a = 2", "SELECT a, b FROM t"},
      {"DELETE FROM t WHERE a = $1", "3", "DELETE FROM t WHERE a = 3",
       "SELECT a, b FROM t"},
      {"INSERT INTO k VALUES ($1, 'n') ON CONFLICT (a) DO UPDATE SET b = $2",
       "1, 'up'",
       "INSERT INTO k VALUES (1, 'n') ON CONFLICT (a) DO UPDATE SET b = 'up'",
       "SELECT a, b FROM k"},
  };
  const std::string fixture =
      std::string(kFixture) +
      "CREATE TABLE k (a INTEGER PRIMARY KEY, b TEXT);"
      "INSERT INTO k VALUES (1,'one'),(2,'two');";
  // The rows `sql` returns, or for DML its count and the table read back.
  const auto outcome = [](auto&& run, const Case& c,
                          const std::string& sql) {
    Result<QueryResult> result = run(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok()) return std::vector<std::string>{};
    if (c.read.empty()) return testing::RowStrings(*result, false);
    std::vector<std::string> out = {std::to_string(result->rows_affected)};
    Result<QueryResult> table = run(c.read);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    if (table.ok()) {
      for (std::string& row : testing::RowStrings(*table)) out.push_back(row);
    }
    return out;
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.body);
    std::vector<std::string> runs[2];
    for (const bool cached : {true, false}) {
      Server server;
      BORNSQL_ASSERT_OK(server.Bootstrap(fixture));
      auto session = server.Connect();
      MustExecute(*session, std::string("SET born.plan_cache = ") +
                                (cached ? "1" : "0"));
      MustExecute(*session, "PREPARE p AS " + c.body);
      const auto run = [&](const std::string& sql) {
        return session->Execute(sql);
      };
      const std::string execute = "EXECUTE p(" + c.args + ")";
      if (c.read.empty()) {
        // A cacheable body's first run builds the entry; the second is
        // served from it.
        const std::vector<std::string> first = outcome(run, c, execute);
        runs[cached] = outcome(run, c, execute);
        EXPECT_EQ(first, runs[cached]);
      } else {
        runs[cached] = outcome(run, c, execute);
      }
      if (cached) {
        EXPECT_EQ(server.plan_cache().hits() > 0, c.cacheable);
      } else {
        EXPECT_EQ(server.plan_cache().size(), 0u);
      }
    }
    EXPECT_EQ(runs[true], runs[false]);
    if (c.literal.empty()) {
      EXPECT_EQ(runs[true], (std::vector<std::string>{"1|x", "2|y", "3|z",
                                                      "4|w"}));
      continue;
    }
    engine::Database db;
    BORNSQL_ASSERT_OK(db.ExecuteScript(fixture));
    EXPECT_EQ(outcome([&](const std::string& sql) { return db.Execute(sql); },
                      c, c.literal),
              runs[true]);
  }
}

// Auto-parameterizing gives each literal its own placeholder, so the plan
// builder no longer matches `a / $1` to the GROUP BY key `a / $2` and
// refuses the template. The statement then runs uncached with its literals.
TEST(ServingCacheTest, AdHocSelectRefusedOnceParameterizedRunsAsWritten) {
  const std::string fixture =
      "CREATE TABLE p (id INTEGER, asjc INTEGER);"
      "INSERT INTO p VALUES (1, 1702), (2, 1702), (3, 2613), (4, 1801);";
  const std::string queries[] = {
      "SELECT asjc / 100, COUNT(*) FROM p GROUP BY asjc / 100",
      "SELECT asjc / 100 AS k, COUNT(*) AS c FROM p "
      "GROUP BY asjc / 100 HAVING COUNT(*) > 1",
  };
  Server server;
  BORNSQL_ASSERT_OK(server.Bootstrap(fixture));
  auto session = server.Connect();
  ASSERT_TRUE(session->plan_cache_enabled());
  engine::Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript(fixture));
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    const std::vector<std::string> want =
        testing::RowStrings(testing::MustQuery(db, sql));
    EXPECT_FALSE(want.empty());
    for (int run = 0; run < 2; ++run) {
      EXPECT_EQ(testing::RowStrings(MustExecute(*session, sql)), want);
    }
  }
  EXPECT_EQ(server.plan_cache().size(), 0u);
}

TEST(ServingCacheTest, ExpressionSubqueriesAreNotCached) {
  auto server = MakeServer();
  auto session = server->Connect();
  // The planner folds expression subqueries at plan time; caching would
  // freeze the folded value. The serving layer must keep these uncached so
  // they observe data changes.
  EXPECT_EQ(MustExecute(*session, "SELECT (SELECT MAX(a) FROM t)")
                .rows[0][0]
                .AsInt(),
            4);
  MustExecute(*session, "INSERT INTO t VALUES (99, 'big')");
  EXPECT_EQ(MustExecute(*session, "SELECT (SELECT MAX(a) FROM t)")
                .rows[0][0]
                .AsInt(),
            99);
  EXPECT_EQ(server->plan_cache().size(), 0u);
}

TEST(ServingCacheTest, HitSkipsParsePlanPhasesInTrace) {
  auto server = MakeServer();
  auto session = server->Connect();
  engine::Database& db = session->database();
  MustExecute(*session, "PREPARE p AS SELECT b FROM t WHERE a = $1");
  MustExecute(*session, "EXECUTE p(1)");  // miss: built + inserted
  // Keep only the last statement's trace, then run the hit.
  MustExecute(*session, "SET born.trace_capacity = 1");
  MustExecute(*session, "EXECUTE p(2)");  // hit
  const std::string trace = db.TraceJson();
  EXPECT_EQ(trace.find("substitute"), std::string::npos) << trace;
  EXPECT_NE(trace.find("lower"), std::string::npos) << trace;
  EXPECT_NE(trace.find("execute"), std::string::npos) << trace;
  EXPECT_EQ(trace.find("bind+plan"), std::string::npos) << trace;
  EXPECT_EQ(trace.find("\"parse\""), std::string::npos) << trace;
  EXPECT_EQ(trace.find("\"lex\""), std::string::npos) << trace;
}

// What one statement leaves in each sink of the session's database.
struct SinkCounts {
  uint64_t executed = 0;
  uint64_t failed = 0;
  uint64_t latency_samples = 0;
  uint64_t calls = 0;
  uint64_t errors = 0;
  uint64_t slow_logged = 0;
};

SinkCounts ReadSinks(engine::Database& db, const std::string& key) {
  SinkCounts out;
  out.executed = db.metrics().counter(obs::kQueriesExecuted);
  out.failed = db.metrics().counter(obs::kQueriesFailed);
  out.latency_samples =
      db.metrics().histogram(obs::kStatementLatencyUs).count();
  const auto stats = db.statement_stats().Snapshot();
  if (auto it = stats.find(key); it != stats.end()) {
    out.calls = it->second.calls;
    out.errors = it->second.errors;
  }
  out.slow_logged = db.slow_log().size();
  return out;
}

TEST(ServingCacheTest, CachedAndUncachedRunsFeedEverySinkOnce) {
  auto server = MakeServer();
  auto session = server->Connect();
  engine::Database& db = session->database();
  const std::string sql = "SELECT b FROM t WHERE a = 2";
  const std::string key =
      "s" + std::to_string(session->id()) + ": SELECT b FROM t WHERE a = ?";
  MustExecute(*session, "SET born.slow_query_ms = 0");
  MustExecute(*session, sql);  // miss: builds and caches the plan

  // Runs `sql` once, then checks it added exactly one of everything.
  const auto run_once = [&](bool cached, bool fails) {
    SCOPED_TRACE(std::string(cached ? "cached" : "uncached") +
                 (fails ? ", failing" : ""));
    const uint64_t hits = session->cache_hits();
    const SinkCounts before = ReadSinks(db, key);
    db.trace().Clear();
    EXPECT_EQ(session->Execute(sql).ok(), !fails);
    const SinkCounts after = ReadSinks(db, key);
    EXPECT_EQ(session->cache_hits() - hits, cached ? 1u : 0u);
    EXPECT_EQ(after.executed - before.executed, 1u);
    EXPECT_EQ(after.latency_samples - before.latency_samples, 1u);
    EXPECT_EQ(after.calls - before.calls, 1u);
    EXPECT_EQ(after.failed - before.failed, fails ? 1u : 0u);
    EXPECT_EQ(after.errors - before.errors, fails ? 1u : 0u);
    // Failed statements are never slow-logged.
    EXPECT_EQ(after.slow_logged - before.slow_logged, fails ? 0u : 1u);
    const std::vector<obs::StatementTrace> traces = db.trace().Snapshot();
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].statement, key);
    EXPECT_EQ(traces[0].error, fails);
  };
  run_once(/*cached=*/true, /*fails=*/false);
  MustExecute(*session, "SET born.plan_cache = 0");
  run_once(/*cached=*/false, /*fails=*/false);

  // A one-byte budget fails every run at its result buffer.
  MustExecute(*session, "SET born.memory_limit = 1");
  MustExecute(*session, "SET born.plan_cache = 1");
  run_once(/*cached=*/true, /*fails=*/true);
  MustExecute(*session, "SET born.plan_cache = 0");
  run_once(/*cached=*/false, /*fails=*/true);
}

TEST(ServingSessionTest, ScriptsParseEveryStatementBeforeRunningAny) {
  // Statement 3 has a syntax error at script column 55: neither script
  // path runs the statements before it, and both report the position
  // within the script.
  const std::string script =
      "CREATE TABLE a (x INTEGER); INSERT INTO a VALUES (1); SELEC oops; "
      "INSERT INTO a VALUES (2);";
  engine::Database db;
  const Status db_status = db.ExecuteScript(script);
  Server server;
  auto session = server.Connect();
  const Status session_status = session->ExecuteScript(script);
  for (const Status& status : {db_status, session_status}) {
    EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
    EXPECT_NE(status.message().find("line 1:55"), std::string::npos)
        << status.ToString();
  }
  EXPECT_FALSE(db.catalog().Exists("a"));
  EXPECT_FALSE(session->database().catalog().Exists("a"));
}

TEST(ServingSessionTest, ScriptedPrepareKeysItsOwnBody) {
  auto server = MakeServer();
  auto session = server->Connect();
  BORNSQL_ASSERT_OK(session->ExecuteScript(
      "PREPARE p AS SELECT b FROM t WHERE a = $1; PREPARE q AS SELECT 1;"));
  EXPECT_EQ(testing::RowStrings(MustExecute(*session, "EXECUTE p(2)")),
            std::vector<std::string>{"y"});
  auto prepared = MustExecute(
      *session, "SELECT statement FROM born_stat_prepared WHERE name = 'p'");
  EXPECT_EQ(testing::RowStrings(prepared),
            std::vector<std::string>{"SELECT b FROM t WHERE a = $1"});
}

TEST(ServingViewsTest, PreparedSessionsAndPlanCacheViews) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "PREPARE predict AS SELECT b FROM t WHERE a = $1");
  MustExecute(*session, "EXECUTE predict(1)");
  MustExecute(*session, "EXECUTE predict(2)");

  auto prepared = MustExecute(
      *session,
      "SELECT name, params, calls FROM born_stat_prepared WHERE name = "
      "'predict'");
  ASSERT_EQ(prepared.rows.size(), 1u);
  EXPECT_EQ(prepared.rows[0][0].AsText(), "predict");
  EXPECT_EQ(prepared.rows[0][1].AsInt(), 1);
  EXPECT_EQ(prepared.rows[0][2].AsInt(), 2);

  auto sessions = MustExecute(
      *session, "SELECT session_id, prepared FROM born_stat_sessions");
  ASSERT_GE(sessions.rows.size(), 1u);

  auto cache = MustExecute(
      *session, "SELECT hits, misses, hit_rate FROM born_stat_plan_cache");
  ASSERT_EQ(cache.rows.size(), 1u);
  EXPECT_GE(cache.rows[0][0].AsInt(), 1);  // second EXECUTE hit
  EXPECT_GT(cache.rows[0][2].AsDouble(), 0.0);
}

TEST(ServingViewsTest, StatementStatsAttributePerSession) {
  auto server = MakeServer();
  auto s1 = server->Connect();
  auto s2 = server->Connect();
  MustExecute(*s1, "SELECT b FROM t WHERE a = 1");
  MustExecute(*s2, "SELECT b FROM t WHERE a = 2");
  auto snapshot = server->statement_stats().Snapshot();
  const std::string key1 =
      "s" + std::to_string(s1->id()) + ": SELECT b FROM t WHERE a = ?";
  const std::string key2 =
      "s" + std::to_string(s2->id()) + ": SELECT b FROM t WHERE a = ?";
  EXPECT_EQ(snapshot.count(key1), 1u) << "missing " << key1;
  EXPECT_EQ(snapshot.count(key2), 1u) << "missing " << key2;
  EXPECT_EQ(snapshot.at(key1).calls, 1u);
}

TEST(ServingViewsTest, MetricsCountersTrackCache) {
  auto server = MakeServer();
  auto session = server->Connect();
  MustExecute(*session, "SELECT b FROM t WHERE a = 1");
  MustExecute(*session, "SELECT b FROM t WHERE a = 2");
  EXPECT_EQ(server->metrics().counter("plan_cache_hits"), 1u);
  EXPECT_EQ(server->metrics().counter("plan_cache_misses"), 1u);
}

TEST(ServingSessionTest, SessionsShareTablesButNotPreparedStatements) {
  auto server = MakeServer();
  auto s1 = server->Connect();
  auto s2 = server->Connect();
  MustExecute(*s1, "PREPARE p AS SELECT b FROM t WHERE a = $1");
  EXPECT_NE(MustFail(*s2, "EXECUTE p(1)").find("does not exist"),
            std::string::npos);
  // s2 still sees DML applied through s1 (shared catalog).
  MustExecute(*s1, "INSERT INTO t VALUES (50, 'shared')");
  EXPECT_EQ(testing::RowStrings(
                MustExecute(*s2, "SELECT b FROM t WHERE a = 50")),
            std::vector<std::string>{"shared"});
}

// TSan-hammered in ci.sh: N sessions on N threads running the predict hot
// loop (hits), a rotating PREPARE namespace, one CTE body every session
// shares through the cache, per-session SET, and occasional DDL-driven
// invalidation, all against one server.
TEST(ServingConcurrencyTest, ConcurrentSessionsHammer) {
  auto server = MakeServer();
  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      auto session = server->Connect();
      const std::string pname = "p" + std::to_string(t);
      auto check = [&](auto&& result) {
        if (!result.ok()) failures.fetch_add(1);
        return std::forward<decltype(result)>(result);
      };
      check(session->Execute("PREPARE " + pname +
                             " AS SELECT b FROM t WHERE a = $1"));
      // Every session prepares the same CTE body: sessions with one config
      // fingerprint lower its one cached plan concurrently.
      check(session->Execute(
          "PREPARE shared AS WITH c AS (SELECT a, b FROM t) SELECT x.b "
          "FROM c AS x, c AS y WHERE x.a = y.a AND x.a = $1"));
      for (int i = 0; i < kIters; ++i) {
        const std::string arg = "(" + std::to_string(1 + (i % 4)) + ")";
        auto result = check(session->Execute("EXECUTE " + pname + arg));
        if (result.ok() && result->rows.size() != 1) failures.fetch_add(1);
        result = check(session->Execute("EXECUTE shared" + arg));
        if (result.ok() && result->rows.size() != 1) failures.fetch_add(1);
        check(session->Execute("SELECT a FROM t WHERE a = " +
                               std::to_string(1 + (i % 4))));
        if (i % 10 == 0) {
          check(session->Execute("SET born.opt.filter_reorder = " +
                                 std::to_string(i % 2)));
        }
        if (t == 0 && i % 16 == 7) {
          const std::string tmp = "tmp_" + std::to_string(i);
          check(session->Execute("CREATE TABLE " + tmp + " (x INTEGER)"));
          check(session->Execute("DROP TABLE " + tmp));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // The hot loop re-executes four distinct keys per thread: the cache must
  // have served a substantial share of them.
  EXPECT_GT(server->plan_cache().hits(), 0u);
}

}  // namespace
}  // namespace bornsql