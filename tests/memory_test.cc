// Tests for the hierarchical memory accounting subsystem: the tracker
// itself (reserve/release, limit denial with unwind, snapshot shape, a
// TSan-targeted concurrent hammer), memory-limit fault injection through
// every materializing operator type, the session-level limit in the
// serving layer, plan-cache charge consistency, and the Prometheus text
// exposition including the memory gauge families.
#include "obs/memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"
#include "serve/plan_cache.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tests/test_util.h"

namespace bornsql {
namespace {

using engine::Database;
using engine::EngineConfig;
using engine::JoinStrategy;
using engine::QueryResult;
using testing::MustQuery;
using testing::RowStrings;

// ---------------------------------------------------------------------------
// MemoryTracker unit tests

TEST(MemoryTrackerTest, ReserveReleaseAndPeak) {
  obs::MemoryTracker root("root", "test", nullptr);
  obs::MemoryTracker child("child", "test", &root);
  child.Reserve(100);
  EXPECT_EQ(child.current(), 100u);
  EXPECT_EQ(root.current(), 100u);
  child.Reserve(50);
  EXPECT_EQ(child.peak(), 150u);
  child.Release(120);
  EXPECT_EQ(child.current(), 30u);
  EXPECT_EQ(root.current(), 30u);
  EXPECT_EQ(root.peak(), 150u);
  child.Release(30);
  EXPECT_EQ(root.current(), 0u);
}

TEST(MemoryTrackerTest, TryReserveDenialUnwindsAndCounts) {
  obs::MemoryTracker root("root", "process", nullptr);
  obs::MemoryTracker session("session 1", "session", &root);
  obs::MemoryTracker query("query", "query", &session);
  session.set_limit(100);

  BORNSQL_ASSERT_OK(query.TryReserve(60, "HashJoin(inner, 1 keys)"));
  EXPECT_EQ(root.current(), 60u);

  // 60 + 50 would put the session over its 100-byte limit: the charge must
  // unwind completely (query charged first, then session denies).
  Status denied = query.TryReserve(50, "HashJoin(inner, 1 keys)");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(denied.message().find("memory limit exceeded"),
            std::string::npos) << denied.message();
  EXPECT_NE(denied.message().find("HashJoin(inner, 1 keys)"),
            std::string::npos) << denied.message();
  EXPECT_NE(denied.message().find("session tracker 'session 1'"),
            std::string::npos) << denied.message();
  // No partial accounting left anywhere in the chain.
  EXPECT_EQ(query.current(), 60u);
  EXPECT_EQ(session.current(), 60u);
  EXPECT_EQ(root.current(), 60u);
  // The denial is counted on the denying tracker, not the reserving one.
  EXPECT_EQ(session.denials(), 1u);
  EXPECT_EQ(query.denials(), 0u);
  EXPECT_EQ(root.denials(), 0u);

  // A second failed attempt counts again; a fitting one still succeeds.
  EXPECT_FALSE(query.TryReserve(41, "Sort(1 keys)").ok());
  EXPECT_EQ(session.denials(), 2u);
  BORNSQL_ASSERT_OK(query.TryReserve(40, "Sort(1 keys)"));
  EXPECT_EQ(session.current(), 100u);
  query.Release(100);
  EXPECT_EQ(root.current(), 0u);
}

TEST(MemoryTrackerTest, ReleaseSaturatesAtZero) {
  obs::MemoryTracker root("root", "test", nullptr);
  root.Reserve(10);
  root.Release(25);  // double-release must not wrap the gauge
  EXPECT_EQ(root.current(), 0u);
  EXPECT_EQ(root.peak(), 10u);
}

TEST(MemoryTrackerTest, ResetPeakDropsToCurrent) {
  obs::MemoryTracker root("root", "test", nullptr);
  root.Reserve(100);
  root.Release(70);
  EXPECT_EQ(root.peak(), 100u);
  root.ResetPeak();
  EXPECT_EQ(root.peak(), 30u);
}

TEST(MemoryTrackerTest, SnapshotTreeIsPreOrderWithDepths) {
  obs::MemoryTracker root("root", "process", nullptr);
  obs::MemoryTracker a("a", "session", &root);
  obs::MemoryTracker leaf("leaf", "query", &a);
  obs::MemoryTracker b("b", "cache", &root);
  b.set_limit(4096);
  leaf.Reserve(64);

  std::vector<obs::MemoryTracker::SnapshotRow> rows = root.SnapshotTree();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].label, "root");
  EXPECT_EQ(rows[0].depth, 0);
  EXPECT_EQ(rows[0].current_bytes, 64u);
  EXPECT_EQ(rows[1].label, "a");
  EXPECT_EQ(rows[1].level, "session");
  EXPECT_EQ(rows[1].depth, 1);
  EXPECT_EQ(rows[2].label, "leaf");
  EXPECT_EQ(rows[2].depth, 2);
  EXPECT_EQ(rows[2].current_bytes, 64u);
  EXPECT_EQ(rows[3].label, "b");
  EXPECT_EQ(rows[3].depth, 1);
  EXPECT_EQ(rows[3].limit_bytes, 4096u);
  leaf.Release(64);
}

// TSan target (ci.sh leg 3 runs -R 'Concurrent'): concurrent reserves,
// releases, denials, and child registration against one shared parent,
// racing a snapshot reader. The invariant at the end is exact: every
// thread releases what it reserved, so the shared root drains to zero.
TEST(MemoryTrackerConcurrentTest, ConcurrentHammer) {
  obs::MemoryTracker root("root", "process", nullptr);
  obs::MemoryTracker shared("shared", "session", &root);
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<bool> stop{false};

  std::thread snapshotter([&] {
    while (!stop.load()) {
      std::vector<obs::MemoryTracker::SnapshotRow> rows = root.SnapshotTree();
      ASSERT_FALSE(rows.empty());
      (void)root.current();
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&shared, t] {
      for (int i = 0; i < kIters; ++i) {
        // Child lifetime races the snapshot walk: register, charge through
        // the chain, unwind, unregister.
        obs::MemoryTracker local("query", "query", &shared);
        local.Reserve(64);
        if (local.TryReserve(32, "hammer").ok()) local.Release(32);
        local.set_limit(1);
        EXPECT_FALSE(local.TryReserve(1024, "hammer").ok());
        local.Release(64);
        (void)t;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true);
  snapshotter.join();
  EXPECT_EQ(shared.current(), 0u);
  EXPECT_EQ(root.current(), 0u);
}

// Regression test for peak tracking under concurrency. Each thread reads
// current() right after its own reserve — a value the true high-water mark
// must have reached — so max-over-threads of those observations is a sound
// lower bound for the peak the tracker must have recorded. A plain
// load-compare-store peak update loses races and ends below this bound.
TEST(MemoryTrackerConcurrentTest, ConcurrentPeakIsNeverUnderCounted) {
  obs::MemoryTracker root("root", "process", nullptr);
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;

  std::vector<uint64_t> observed(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&root, &observed, t] {
      uint64_t high = 0;
      for (int i = 0; i < kIters; ++i) {
        const uint64_t bytes = 1 + static_cast<uint64_t>((t + i) % 97);
        root.Reserve(bytes);
        // current() here is <= the instantaneous maximum of current over
        // the whole run, so peak() must end >= it.
        high = std::max(high, root.current());
        root.Release(bytes);
      }
      observed[t] = high;
    });
  }
  for (std::thread& w : workers) w.join();

  const uint64_t high_water =
      *std::max_element(observed.begin(), observed.end());
  EXPECT_GE(root.peak(), high_water);
  EXPECT_EQ(root.current(), 0u);
}

// ResetPeak racing reserves must never leave peak below the live charge:
// the reset re-applies a CAS max against current after its store.
TEST(MemoryTrackerConcurrentTest, ConcurrentResetPeakKeepsPeakAboveCurrent) {
  obs::MemoryTracker root("root", "process", nullptr);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<bool> stop{false};

  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) root.ResetPeak();
  });

  // Workers accumulate held charges (never releasing mid-run), so current
  // only grows while the resetter races. A load-then-store reset can
  // clobber the peak with a stale smaller value and leave it below the
  // live charge at quiescence; the CAS-max re-apply cannot.
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&root] {
      for (int i = 0; i < kIters; ++i) {
        root.Reserve(8);
        (void)root.peak();  // racing read, for TSan's benefit
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true);
  resetter.join();
  const uint64_t held = uint64_t{8} * kThreads * kIters;
  EXPECT_EQ(root.current(), held);
  EXPECT_GE(root.peak(), held);
  root.Release(held);
  EXPECT_EQ(root.current(), 0u);
  root.ResetPeak();
  EXPECT_EQ(root.peak(), 0u);
}

// ---------------------------------------------------------------------------
// Memory-limit fault injection: every materializing operator type must
// trip cleanly under SET born.memory_limit, naming itself in the error,
// and the engine must stay usable afterwards.

void LoadJoinFixture(Database* db) {
  BORNSQL_ASSERT_OK(db->ExecuteScript(
      "CREATE TABLE t1 (a INTEGER, b TEXT);"
      "INSERT INTO t1 VALUES (1,'x'),(2,'y'),(3,'z'),(4,'w');"
      "CREATE TABLE t2 (a INTEGER, c INTEGER);"
      "INSERT INTO t2 VALUES (2,20),(3,30),(9,90);"));
}

// Runs `sql` under a 1-byte query budget and expects a ResourceExhausted
// failure naming `op_name`; then lifts the limit and expects the same
// query to succeed (the engine stays usable, nothing leaks).
void ExpectTripsAndRecovers(Database& db, const std::string& sql,
                            const std::string& op_name) {
  BORNSQL_ASSERT_OK(db.Execute("SET born.memory_limit = 1").status());
  auto result = db.Execute(sql);
  ASSERT_FALSE(result.ok()) << "expected over-budget failure for: " << sql;
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("memory limit exceeded"),
            std::string::npos) << result.status().ToString();
  EXPECT_NE(result.status().message().find(op_name), std::string::npos)
      << "expected tripping operator " << op_name << " in: "
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("query tracker 'query'"),
            std::string::npos) << result.status().ToString();
  BORNSQL_ASSERT_OK(db.Execute("SET born.memory_limit = 0").status());
  EXPECT_TRUE(db.Execute(sql).ok()) << "engine unusable after denial: "
                                    << sql;
}

TEST(MemoryLimitTest, HashJoinTrips) {
  Database db;
  LoadJoinFixture(&db);
  ExpectTripsAndRecovers(
      db, "SELECT t1.b, t2.c FROM t1 JOIN t2 ON t1.a = t2.a", "HashJoin");
}

TEST(MemoryLimitTest, SortMergeJoinTrips) {
  EngineConfig config;
  config.join_strategy = JoinStrategy::kSortMerge;
  Database db{config};
  LoadJoinFixture(&db);
  ExpectTripsAndRecovers(
      db, "SELECT t1.b, t2.c FROM t1 JOIN t2 ON t1.a = t2.a",
      "SortMergeJoin");
}

TEST(MemoryLimitTest, NestedLoopJoinTrips) {
  EngineConfig config;
  config.join_strategy = JoinStrategy::kNestedLoop;
  Database db{config};
  LoadJoinFixture(&db);
  ExpectTripsAndRecovers(
      db, "SELECT t1.b, t2.c FROM t1 JOIN t2 ON t1.a = t2.a",
      "NestedLoopJoin");
}

TEST(MemoryLimitTest, HashAggregateTrips) {
  Database db;
  LoadJoinFixture(&db);
  ExpectTripsAndRecovers(db, "SELECT b, COUNT(*) FROM t1 GROUP BY b",
                         "HashAggregate");
}

TEST(MemoryLimitTest, SortTrips) {
  Database db;
  LoadJoinFixture(&db);
  ExpectTripsAndRecovers(db, "SELECT a FROM t1 ORDER BY a", "Sort");
}

TEST(MemoryLimitTest, DistinctTrips) {
  Database db;
  LoadJoinFixture(&db);
  ExpectTripsAndRecovers(db, "SELECT DISTINCT b FROM t1", "Distinct");
}

TEST(MemoryLimitTest, WindowTrips) {
  Database db;
  LoadJoinFixture(&db);
  ExpectTripsAndRecovers(
      db,
      "SELECT a, ROW_NUMBER() OVER (PARTITION BY b ORDER BY a) FROM t1",
      "Window");
}

TEST(MemoryLimitTest, MaterializedCteTrips) {
  Database db;  // materialize_ctes defaults on
  LoadJoinFixture(&db);
  ExpectTripsAndRecovers(db, "WITH c AS (SELECT b FROM t1) SELECT * FROM c",
                         "CteScan");
}

TEST(MemoryLimitTest, SystemViewScanTrips) {
  Database db;
  LoadJoinFixture(&db);
  MustQuery(db, "SELECT a FROM t1");  // give the view a row to charge
  ExpectTripsAndRecovers(db, "SELECT * FROM born_stat_statements",
                         "SystemViewScan");
}

// A subquery folded at plan time drains under a query tracker with the
// statement's limit, and its result is charged as a statement result is.
TEST(MemoryLimitTest, FoldedSubqueriesRunUnderTheStatementBudget) {
  Database db;
  std::string big = "CREATE TABLE big (v INTEGER, s TEXT);"
                    "CREATE TABLE d (v INTEGER);"
                    "INSERT INTO d VALUES (0),(1),(2),(3),(4),(5),(6),(7),"
                    "(8),(9);INSERT INTO big VALUES ";
  for (int i = 0; i < 10000; ++i) {
    big += StrFormat("%s(%d, 's%d')", i > 0 ? "," : "", i, i);
  }
  BORNSQL_ASSERT_OK(db.ExecuteScript(big));
  const std::string exists =
      "SELECT COUNT(*) FROM d WHERE EXISTS (SELECT s FROM big ORDER BY s)";
  const std::string in = "SELECT COUNT(*) FROM d WHERE v IN (SELECT v FROM big)";
  BORNSQL_ASSERT_OK(db.Execute("SET born.memory_limit = 20000").status());
  // One row decides an EXISTS: its subquery stops there, within the limit.
  // A blocking operator under it (the ORDER BY above) still buffers all.
  EXPECT_EQ(MustQuery(db,
                      "SELECT COUNT(*) FROM d WHERE EXISTS "
                      "(SELECT s FROM big)")
                .rows[0][0]
                .AsInt(),
            10);
  for (const std::string& sql : {exists, in}) {
    auto result = db.Execute(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << sql << ": " << result.status().ToString();
  }
  auto derived =
      db.Execute("SELECT COUNT(*) FROM (SELECT s FROM big ORDER BY s) AS q");
  ASSERT_FALSE(derived.ok());
  EXPECT_NE(derived.status().message().find("Sort(1 keys)"),
            std::string::npos) << derived.status().ToString();
  BORNSQL_ASSERT_OK(db.Execute("SET born.memory_limit = 0").status());
  for (const std::string& sql : {exists, in}) {
    QueryResult result = MustQuery(db, sql);
    ASSERT_EQ(result.rows.size(), 1u) << sql;
    EXPECT_EQ(result.rows[0][0].AsInt(), 10) << sql;
  }
}

// A CTE read by a folded subquery and by its outer statement: each tree
// computes it once, and every charge is released into the tracker that
// took it, in both CTE modes and at both ends of the vector size.
TEST(MemoryLimitTest, CteReadBySubqueryAndOuterStatement) {
  const std::pair<std::string, std::vector<std::string>> cases[] = {
      {"WITH c AS (SELECT a, COUNT(*) AS n FROM t GROUP BY a) "
       "SELECT a, n FROM c WHERE a IN (SELECT a FROM c WHERE n > 1)",
       {"2|2"}},
      {"WITH c AS (SELECT a, b FROM t ORDER BY b) "
       "SELECT COUNT(*) FROM c WHERE a = (SELECT MAX(a) FROM c)",
       {"1"}},
  };
  for (const bool materialize : {true, false}) {
    for (const size_t vector_size : {size_t{1}, size_t{2048}}) {
      SCOPED_TRACE(StrFormat("materialize_ctes=%d vector_size=%zu",
                             materialize, vector_size));
      EngineConfig config;
      config.materialize_ctes = materialize;
      config.vector_size = vector_size;
      Database db(config);
      BORNSQL_ASSERT_OK(db.ExecuteScript(
          "CREATE TABLE t (a INTEGER, b INTEGER);"
          "INSERT INTO t VALUES (1,10),(2,20),(2,30),(3,40);"));
      const uint64_t before = obs::MemoryTracker::Process().current();
      for (const auto& [sql, expected] : cases) {
        EXPECT_EQ(RowStrings(MustQuery(db, sql)), expected) << sql;
      }
      EXPECT_EQ(obs::MemoryTracker::Process().current(), before);
    }
  }
}

TEST(MemoryLimitTest, RejectsNegativeLimit) {
  Database db;
  auto result = db.Execute("SET born.memory_limit = -1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MemoryLimitTest, QueryTrackersDrainToZeroAfterDenials) {
  Database db;
  LoadJoinFixture(&db);
  // A few denied queries must leave no residual query-level accounting:
  // born_stat_memory's query rows (including the introspection query's
  // own tracker, which snapshots after releasing) all read zero.
  BORNSQL_ASSERT_OK(db.Execute("SET born.memory_limit = 1").status());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(
        db.Execute("SELECT t1.b FROM t1 JOIN t2 ON t1.a = t2.a").ok());
  }
  BORNSQL_ASSERT_OK(db.Execute("SET born.memory_limit = 0").status());
  QueryResult result = MustQuery(
      db,
      "SELECT current_bytes FROM born_stat_memory WHERE level = 'query'");
  ASSERT_GE(result.rows.size(), 1u);
  for (const Row& row : result.rows) {
    EXPECT_EQ(row[0].AsInt(), 0);
  }
}

// ---------------------------------------------------------------------------
// Session-level limits through the serving layer

std::unique_ptr<serve::Server> MakeServingFixture() {
  auto server = std::make_unique<serve::Server>();
  BORNSQL_EXPECT_OK(server->Bootstrap(
      "CREATE TABLE t (a INTEGER, b TEXT);"
      "INSERT INTO t VALUES (1,'x'),(2,'y'),(3,'z'),(4,'w');"
      "CREATE TABLE s (a INTEGER, c INTEGER);"
      "INSERT INTO s VALUES (2,20),(3,30),(9,90);"));
  return server;
}

TEST(SessionMemoryLimitTest, SessionLimitDeniesThenRecovers) {
  auto server = MakeServingFixture();
  auto session = server->Connect();
  BORNSQL_ASSERT_OK(
      session->Execute("SET born.session_memory_limit = 1").status());
  auto result =
      session->Execute("SELECT t.b, s.c FROM t JOIN s ON t.a = s.a");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("session tracker"),
            std::string::npos) << result.status().ToString();
  EXPECT_GE(session->memory().denials(), 1u);
  // Lifting the limit makes the same session usable again, and the failed
  // query left nothing charged behind.
  BORNSQL_ASSERT_OK(
      session->Execute("SET born.session_memory_limit = 0").status());
  EXPECT_EQ(session->memory().current(), 0u);
  auto ok = session->Execute("SELECT t.b, s.c FROM t JOIN s ON t.a = s.a");
  BORNSQL_EXPECT_OK(ok.status());
  EXPECT_GT(session->memory().peak(), 0u);
}

TEST(SessionMemoryLimitTest, RejectsNegativeSessionLimit) {
  auto server = MakeServingFixture();
  auto session = server->Connect();
  auto result = session->Execute("SET born.session_memory_limit = -1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionMemoryLimitTest, BareDatabaseRejectsSessionSetting) {
  Database db;
  auto result = db.Execute("SET born.session_memory_limit = 1024");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("serving session"),
            std::string::npos) << result.status().ToString();
}

TEST(SessionMemoryLimitTest, SessionsViewExposesMemoryColumns) {
  auto server = MakeServingFixture();
  auto session = server->Connect();
  BORNSQL_EXPECT_OK(session->Execute("SELECT b FROM t ORDER BY a").status());
  QueryResult result;
  {
    auto r = session->Execute(
        "SELECT current_bytes, peak_bytes FROM born_stat_sessions");
    BORNSQL_ASSERT_OK(r.status());
    result = std::move(r).value();
  }
  ASSERT_EQ(result.rows.size(), 1u);
  // No query is charging at snapshot time; the earlier ORDER BY left a
  // nonzero session high-water mark.
  EXPECT_EQ(result.rows[0][0].AsInt(), 0);
  EXPECT_GT(result.rows[0][1].AsInt(), 0);
}

// ---------------------------------------------------------------------------
// Plan-cache byte accounting

std::shared_ptr<const serve::CachedPlan> MakeEntry(uint64_t bytes,
                                                   std::string statement) {
  auto plan = std::make_shared<serve::CachedPlan>();
  plan->statement = std::move(statement);
  plan->approx_bytes = bytes;
  return plan;
}

uint64_t SnapshotBytes(const serve::PlanCache& cache) {
  uint64_t sum = 0;
  for (const serve::PlanCache::EntryInfo& e : cache.Snapshot()) {
    sum += e.approx_bytes;
  }
  return sum;
}

TEST(PlanCacheMemoryTest, ChargeStaysBalancedAcrossChurn) {
  obs::MemoryTracker& tracker = serve::PlanCache::CacheTracker();
  const uint64_t base = tracker.current();
  {
    serve::PlanCache cache(4);
    cache.Insert("k1", MakeEntry(100, "s1"));
    EXPECT_EQ(cache.total_bytes(), 100u);
    EXPECT_EQ(tracker.current() - base, 100u);

    // Replacing a key releases the old entry's charge first.
    cache.Insert("k1", MakeEntry(250, "s1v2"));
    EXPECT_EQ(cache.total_bytes(), 250u);
    EXPECT_EQ(tracker.current() - base, 250u);

    // Churn far past capacity: evictions must keep the charge equal to
    // the bytes of the entries actually live.
    for (int i = 0; i < 32; ++i) {
      cache.Insert("bulk" + std::to_string(i), MakeEntry(10, "b"));
    }
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_EQ(cache.total_bytes(), SnapshotBytes(cache));
    EXPECT_EQ(tracker.current() - base, cache.total_bytes());

    // Shrinking capacity evicts and releases in the same motion.
    cache.set_capacity(1);
    EXPECT_EQ(cache.total_bytes(), SnapshotBytes(cache));
    EXPECT_EQ(tracker.current() - base, cache.total_bytes());

    cache.Clear();
    EXPECT_EQ(cache.total_bytes(), 0u);
    EXPECT_EQ(tracker.current(), base);

    cache.Insert("again", MakeEntry(70, "s"));
    EXPECT_EQ(tracker.current() - base, 70u);
  }
  // The destructor releases whatever was still live.
  EXPECT_EQ(tracker.current(), base);
}

TEST(PlanCacheMemoryTest, ApproxBytesCoversPlanAndStatement) {
  serve::CachedPlan plan;
  plan.statement = "SELECT a FROM t WHERE a = $1";
  const uint64_t empty = serve::ApproxCachedPlanBytes(plan);
  EXPECT_GE(empty, sizeof(serve::CachedPlan) + plan.statement.size());
  plan.statement.assign(1000, 'x');
  EXPECT_GE(serve::ApproxCachedPlanBytes(plan), empty + 900);
}

TEST(PlanCacheMemoryTest, ServingEntriesCarryBytes) {
  auto server = MakeServingFixture();
  auto session = server->Connect();
  BORNSQL_EXPECT_OK(session->Execute("SELECT b FROM t WHERE a = 1").status());
  auto result = session->Execute(
      "SELECT approx_bytes FROM born_stat_plan_cache");
  BORNSQL_ASSERT_OK(result.status());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_GT(result->rows[0][0].AsInt(), 0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(PrometheusExportTest, FormatFamiliesAndMemoryGauges) {
  obs::MetricsRegistry registry;
  registry.IncrementCounter("plan_cache_hits", 3);
  registry.SetGauge("plan_cache_entries", 7.0);
  registry.RecordLatency("statement_latency_us", 2e-6);  // 2us -> le="5"
  registry.RecordLatency("statement_latency_us", 9.0);   // 9s -> +Inf only

  obs::MemoryTracker root("proc", "process", nullptr);
  obs::MemoryTracker query("query", "query", &root);
  query.set_limit(4096);
  query.Reserve(512);
  registry.set_memory_root(&root);

  const std::string text = registry.ToPrometheus();
  for (const char* expected : {
           "# TYPE bornsql_plan_cache_hits_total counter",
           "bornsql_plan_cache_hits_total 3",
           "# TYPE bornsql_plan_cache_entries gauge",
           "bornsql_plan_cache_entries 7",
           "# TYPE bornsql_statement_latency_us histogram",
           "bornsql_statement_latency_us_bucket{le=\"1\"} 0",
           "bornsql_statement_latency_us_bucket{le=\"5\"} 1",
           "bornsql_statement_latency_us_bucket{le=\"5000000\"} 1",
           "bornsql_statement_latency_us_bucket{le=\"+Inf\"} 2",
           "bornsql_statement_latency_us_count 2",
           "bornsql_statement_latency_us_sum",
           "# TYPE bornsql_memory_current_bytes gauge",
           "bornsql_memory_current_bytes{tracker=\"query\",level=\"query\"} "
           "512",
           "bornsql_memory_peak_bytes{tracker=\"query\",level=\"query\"} 512",
           "bornsql_memory_limit_bytes{tracker=\"query\",level=\"query\"} "
           "4096",
           "# TYPE bornsql_memory_denials gauge",
       }) {
    EXPECT_NE(text.find(expected), std::string::npos)
        << "missing \"" << expected << "\" in:\n" << text;
  }
  query.Release(512);
}

TEST(PrometheusExportTest, ResetClearsCountersAndGauges) {
  obs::MetricsRegistry registry;
  registry.IncrementCounter("queries_executed", 5);
  registry.SetGauge("plan_cache_entries", 9.0);
  registry.RecordLatency("statement_latency_us", 0.001);
  registry.Reset();
  EXPECT_EQ(registry.counter("queries_executed"), 0u);
  EXPECT_EQ(registry.gauge("plan_cache_entries"), 0.0);
  EXPECT_TRUE(registry.GaugesSnapshot().empty());
  EXPECT_EQ(registry.histogram("statement_latency_us").count(), 0u);
}

// ---------------------------------------------------------------------------
// Per-operator peak_mem surfaces in the instrumentation aggregates

TEST(OperatorMemoryStatsTest, PeakMemSurfacesInAggregatesAndView) {
  obs::MetricsRegistry metrics;  // private registry: no cross-test state
  EngineConfig config;
  config.collect_exec_stats = true;
  Database db{config};
  db.set_metrics(&metrics);
  LoadJoinFixture(&db);
  MustQuery(db, "SELECT t1.b, t2.c FROM t1 JOIN t2 ON t1.a = t2.a");
  MustQuery(db, "SELECT b, COUNT(*) FROM t1 GROUP BY b");

  EXPECT_GT(metrics.operator_aggregate("HashJoin").stats.peak_mem_bytes, 0u);
  EXPECT_GT(metrics.operator_aggregate("HashAggregate").stats.peak_mem_bytes,
            0u);

  QueryResult result = MustQuery(
      db,
      "SELECT peak_mem FROM born_stat_operators WHERE operator = 'HashJoin'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_GT(result.rows[0][0].AsInt(), 0);
  // The query-level high-water mark is recorded on the database too.
  EXPECT_GT(db.last_query_peak_bytes(), 0u);
}

}  // namespace
}  // namespace bornsql
