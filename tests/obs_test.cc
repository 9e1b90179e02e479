// Tests for the observability subsystem: EXPLAIN / EXPLAIN ANALYZE output
// shape (golden, with volatile timings masked), the MetricsRegistry, and
// ExecuteProfiled. Also covers QueryResult::ScalarValue's error message.
#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"
#include "obs/plan_stats.h"
#include "obs/stats.h"
#include "obs/statement_stats.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace bornsql {
namespace {

using engine::Database;
using engine::EngineConfig;
using engine::JoinStrategy;
using engine::QueryResult;
using bornsql::testing::MustQuery;

// EXPLAIN [ANALYZE] output as lines with the volatile wall times and byte
// counts masked: "time=0.123ms" -> "time=Xms", "mem=1234" -> "mem=X"
// (ApproxRowBytes depends on sizeof(Value), which varies by platform).
// Everything else (rows, next, peak, shape) is deterministic for a fixed
// dataset.
std::vector<std::string> MaskedPlanLines(Database& db,
                                         const std::string& sql) {
  QueryResult result = MustQuery(db, sql);
  EXPECT_EQ(result.column_names, std::vector<std::string>{"plan"});
  static const std::regex kTime("time=[0-9.]+ms");
  static const std::regex kMem("mem=[0-9]+");
  std::vector<std::string> out;
  for (const Row& row : result.rows) {
    std::string line =
        std::regex_replace(row[0].AsText(), kTime, "time=Xms");
    out.push_back(std::regex_replace(line, kMem, "mem=X"));
  }
  return out;
}

// Two small joinable tables: t1 has 4 rows, t2 has 3 (two of which match).
void LoadJoinFixture(Database* db) {
  BORNSQL_ASSERT_OK(db->ExecuteScript(
      "CREATE TABLE t1 (a INTEGER, b TEXT);"
      "INSERT INTO t1 VALUES (1,'x'),(2,'y'),(3,'z'),(4,'w');"
      "CREATE TABLE t2 (a INTEGER, c INTEGER);"
      "INSERT INTO t2 VALUES (2,20),(3,30),(9,90);"));
}

constexpr char kJoinSql[] =
    "SELECT t1.b, t2.c FROM t1 JOIN t2 ON t1.a = t2.a";

TEST(ExplainGoldenTest, SelectWithHashJoin) {
  Database db;  // default config: hash joins
  LoadJoinFixture(&db);
  std::vector<std::string> expected = {
      "Project(2 columns)",
      "  HashJoin(inner, 1 keys)",
      "    SeqScan(t1, 4 rows)",
      "    SeqScan(t2, 3 rows)",
  };
  EXPECT_EQ(MaskedPlanLines(db, std::string("EXPLAIN ") + kJoinSql),
            expected);
}

TEST(ExplainGoldenTest, AnalyzeSelectWithHashJoin) {
  Database db;
  LoadJoinFixture(&db);
  // HashJoin builds on the right input (3 rows) and emits 2 matches.
  std::vector<std::string> expected = {
      "Project(2 columns)  (actual rows=2 next=3 time=Xms)",
      "  HashJoin(inner, 1 keys)  "
      "(actual rows=2 next=3 time=Xms peak=3 mem=X)",
      "    SeqScan(t1, 4 rows)  (actual rows=4 next=5 time=Xms)",
      "    SeqScan(t2, 3 rows)  (actual rows=3 next=4 time=Xms)",
  };
  EXPECT_EQ(MaskedPlanLines(db, std::string("EXPLAIN ANALYZE ") + kJoinSql),
            expected);
}

TEST(ExplainGoldenTest, AnalyzeCountsInvariantUnderVectorSize) {
  // Per-operator stats count TUPLES, not chunks: a full drain of n rows
  // reports rows=n next=n+1 at any born.vector_size, so the ANALYZE output
  // at chunk size 1 and 3 is byte-identical to the default-size golden
  // above (AnalyzeSelectWithHashJoin).
  for (int vector_size : {1, 3}) {
    Database db;
    LoadJoinFixture(&db);
    BORNSQL_ASSERT_OK(db.Execute("SET born.vector_size = " +
                                 std::to_string(vector_size))
                          .status());
    std::vector<std::string> expected = {
        "Project(2 columns)  (actual rows=2 next=3 time=Xms)",
        "  HashJoin(inner, 1 keys)  "
        "(actual rows=2 next=3 time=Xms peak=3 mem=X)",
        "    SeqScan(t1, 4 rows)  (actual rows=4 next=5 time=Xms)",
        "    SeqScan(t2, 3 rows)  (actual rows=3 next=4 time=Xms)",
    };
    EXPECT_EQ(MaskedPlanLines(db, std::string("EXPLAIN ANALYZE ") + kJoinSql),
              expected)
        << "born.vector_size=" << vector_size;
  }
}

TEST(ExplainGoldenTest, AnalyzeSelectWithSortMergeJoin) {
  EngineConfig config;
  config.join_strategy = JoinStrategy::kSortMerge;
  config.use_index_joins = false;
  Database db{config};
  LoadJoinFixture(&db);
  // Sort-merge materializes both sides: peak = 4 + 3 rows.
  std::vector<std::string> expected = {
      "Project(2 columns)  (actual rows=2 next=3 time=Xms)",
      "  SortMergeJoin(inner, 1 keys)  "
      "(actual rows=2 next=3 time=Xms peak=7 mem=X)",
      "    SeqScan(t1, 4 rows)  (actual rows=4 next=5 time=Xms)",
      "    SeqScan(t2, 3 rows)  (actual rows=3 next=4 time=Xms)",
  };
  EXPECT_EQ(MaskedPlanLines(db, std::string("EXPLAIN ANALYZE ") + kJoinSql),
            expected);
}

TEST(ExplainGoldenTest, AnalyzeSelectWithNestedLoopJoin) {
  EngineConfig config;
  config.join_strategy = JoinStrategy::kNestedLoop;
  config.use_index_joins = false;
  Database db{config};
  LoadJoinFixture(&db);
  // The nested-loop strategy plans the equi-join as a cross product (4*3 =
  // 12 rows, right side materialized: peak=3) under the join predicate.
  std::vector<std::string> expected = {
      "Project(2 columns)  (actual rows=2 next=3 time=Xms)",
      "  Filter  (actual rows=2 next=3 time=Xms)",
      "    NestedLoopJoin(cross)  "
      "(actual rows=12 next=13 time=Xms peak=3 mem=X)",
      "      SeqScan(t1, 4 rows)  (actual rows=4 next=5 time=Xms)",
      "      SeqScan(t2, 3 rows)  (actual rows=3 next=4 time=Xms)",
  };
  EXPECT_EQ(MaskedPlanLines(db, std::string("EXPLAIN ANALYZE ") + kJoinSql),
            expected);
}

TEST(ExplainGoldenTest, AnalyzeInsertSelect) {
  Database db;
  LoadJoinFixture(&db);
  std::vector<std::string> expected = {
      "Insert(t2)  (actual rows=1 next=2 time=Xms peak=4 mem=X)",
      "  Project(2 columns)  (actual rows=4 next=5 time=Xms)",
      "    SeqScan(t1, 4 rows)  (actual rows=4 next=5 time=Xms)",
  };
  EXPECT_EQ(MaskedPlanLines(
                db, "EXPLAIN ANALYZE INSERT INTO t2 SELECT a, a*10 FROM t1"),
            expected);
  // The insert really executed (ANALYZE runs the statement).
  EXPECT_EQ(MustQuery(db, "SELECT COUNT(*) FROM t2").rows[0][0].AsInt(), 7);
}

TEST(ExplainGoldenTest, AnalyzeUpdateReportsRowsExamined) {
  Database db;
  LoadJoinFixture(&db);
  std::vector<std::string> expected = {
      "Update(t1, 1 set clauses)  "
      "(actual rows=1 next=2 time=Xms peak=2 mem=X)",
      "  Filter  (actual rows=2 next=3 time=Xms)",
      "    SeqScan(t1, 4 rows)  (actual rows=4 next=5 time=Xms)",
  };
  EXPECT_EQ(MaskedPlanLines(
                db, "EXPLAIN ANALYZE UPDATE t1 SET b = 'q' WHERE a > 2"),
            expected);
  EXPECT_EQ(MustQuery(db, "SELECT COUNT(*) FROM t1 WHERE b = 'q'")
                .rows[0][0]
                .AsInt(),
            2);
}

TEST(ExplainGoldenTest, AnalyzeDelete) {
  Database db;
  LoadJoinFixture(&db);
  std::vector<std::string> expected = {
      "Delete(t2)  (actual rows=1 next=2 time=Xms peak=1 mem=X)",
      "  Filter  (actual rows=1 next=2 time=Xms)",
      "    SeqScan(t2, 3 rows)  (actual rows=3 next=4 time=Xms)",
  };
  EXPECT_EQ(MaskedPlanLines(db, "EXPLAIN ANALYZE DELETE FROM t2 WHERE a = 9"),
            expected);
  EXPECT_EQ(MustQuery(db, "SELECT COUNT(*) FROM t2").rows[0][0].AsInt(), 2);
}

TEST(ExplainGoldenTest, PlainExplainCoversEveryStatementKind) {
  Database db;
  LoadJoinFixture(&db);
  // Plain EXPLAIN never executes: t1/t2 must stay untouched throughout.
  EXPECT_EQ(MaskedPlanLines(db, "EXPLAIN INSERT INTO t2 VALUES (5, 50)"),
            (std::vector<std::string>{"Insert(t2)", "  Values(1 rows)"}));
  EXPECT_EQ(MaskedPlanLines(db, "EXPLAIN INSERT INTO t2 SELECT a, a FROM t1"),
            (std::vector<std::string>{"Insert(t2)", "  Project(2 columns)",
                                      "    SeqScan(t1, 4 rows)"}));
  EXPECT_EQ(MaskedPlanLines(db, "EXPLAIN UPDATE t1 SET b = 'u' WHERE a = 1"),
            (std::vector<std::string>{"Update(t1, 1 set clauses)", "  Filter",
                                      "    SeqScan(t1, 4 rows)"}));
  EXPECT_EQ(MaskedPlanLines(db, "EXPLAIN DELETE FROM t1"),
            (std::vector<std::string>{"Delete(t1)",
                                      "  SeqScan(t1, 4 rows)"}));
  EXPECT_EQ(
      MaskedPlanLines(db, "EXPLAIN CREATE TABLE t3 AS SELECT a FROM t1"),
      (std::vector<std::string>{"CreateTableAs(t3)", "  Project(1 columns)",
                                "    SeqScan(t1, 4 rows)"}));
  EXPECT_EQ(MaskedPlanLines(db, "EXPLAIN CREATE TABLE t4 (x INTEGER)"),
            (std::vector<std::string>{"CreateTable(t4, 1 columns)"}));
  EXPECT_EQ(MaskedPlanLines(db, "EXPLAIN DROP TABLE t2"),
            (std::vector<std::string>{"DropTable(t2)"}));
  EXPECT_EQ(MaskedPlanLines(db, "EXPLAIN CREATE INDEX idx ON t2 (a)"),
            (std::vector<std::string>{"CreateIndex(idx ON t2)"}));
  // Nothing executed.
  EXPECT_EQ(MustQuery(db, "SELECT COUNT(*) FROM t1").rows[0][0].AsInt(), 4);
  EXPECT_EQ(MustQuery(db, "SELECT COUNT(*) FROM t2").rows[0][0].AsInt(), 3);
  EXPECT_FALSE(db.catalog().Exists("t3"));
  EXPECT_FALSE(db.catalog().Exists("t4"));
}

TEST(ExplainGoldenTest, ExplainOfExplainIsRejected) {
  Database db;
  auto result = db.Execute("EXPLAIN EXPLAIN SELECT 1");
  EXPECT_FALSE(result.ok());
}

TEST(ExecuteProfiledTest, ReturnsResultAndAnnotatedPlan) {
  Database db;
  LoadJoinFixture(&db);
  auto profiled = db.ExecuteProfiled(kJoinSql);
  BORNSQL_ASSERT_OK(profiled.status());
  EXPECT_EQ(profiled->result.rows.size(), 2u);
  EXPECT_EQ(profiled->plan.name, "Project(2 columns)");
  ASSERT_TRUE(profiled->plan.has_stats);
  EXPECT_EQ(profiled->plan.stats.rows_emitted, 2u);
  ASSERT_EQ(profiled->plan.children.size(), 1u);
  EXPECT_EQ(obs::OperatorTypeOf(profiled->plan.children[0].name), "HashJoin");
  // The JSON mirror carries the same numbers.
  std::string json = obs::PlanStatsToJson(profiled->plan);
  EXPECT_NE(json.find("\"operator\": \"Project(2 columns)\""),
            std::string::npos);
  EXPECT_NE(json.find("\"rows\": 2"), std::string::npos);
}

TEST(ExecuteProfiledTest, RejectsExplainStatements) {
  Database db;
  auto profiled = db.ExecuteProfiled("EXPLAIN SELECT 1");
  EXPECT_FALSE(profiled.ok());
}

TEST(MetricsRegistryTest, CountersAccumulateAndReset) {
  obs::MetricsRegistry metrics;
  EXPECT_EQ(metrics.counter("nope"), 0u);
  metrics.IncrementCounter("c");
  metrics.IncrementCounter("c", 41);
  EXPECT_EQ(metrics.counter("c"), 42u);
  metrics.Reset();
  EXPECT_EQ(metrics.counter("c"), 0u);
}

TEST(MetricsRegistryTest, HistogramBucketsAndPercentile) {
  obs::MetricsRegistry metrics;
  // 5us, 30us, 2ms, 20s (overflow) as seconds.
  metrics.RecordLatency("lat", 5e-6);
  metrics.RecordLatency("lat", 30e-6);
  metrics.RecordLatency("lat", 2e-3);
  metrics.RecordLatency("lat", 20.0);
  obs::LatencyHistogram hist = metrics.histogram("lat");
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_EQ(hist.bucket(1), 1u);  // <= 5us
  EXPECT_EQ(hist.bucket(3), 1u);  // <= 50us
  EXPECT_EQ(hist.bucket(obs::LatencyHistogram::kNumBuckets - 1), 1u);
  // p50 over {5us, 30us, 2ms, 20s}: the 2nd sample lands in the 50us bucket.
  EXPECT_DOUBLE_EQ(hist.PercentileUs(0.5), 50.0);
  std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"le_us\": \"+Inf\""), std::string::npos);
}

TEST(MetricsRegistryTest, OperatorAggregatesMerge) {
  obs::MetricsRegistry metrics;
  obs::OperatorStats stats;
  stats.open_calls = 1;
  stats.next_calls = 10;
  stats.rows_emitted = 9;
  stats.peak_entries = 5;
  metrics.RecordOperator("SeqScan", stats);
  stats.peak_entries = 3;
  metrics.RecordOperator("SeqScan", stats);
  obs::OperatorAggregate agg = metrics.operator_aggregate("SeqScan");
  EXPECT_EQ(agg.instances, 2u);
  EXPECT_EQ(agg.stats.rows_emitted, 18u);
  EXPECT_EQ(agg.stats.next_calls, 20u);
  EXPECT_EQ(agg.stats.peak_entries, 5u);  // max, not sum
  EXPECT_EQ(metrics.operator_aggregate("HashJoin").instances, 0u);
}

TEST(MetricsTest, DatabaseRecordsStatementCountsAndLatency) {
  obs::MetricsRegistry metrics;
  Database db;
  db.set_metrics(&metrics);
  LoadJoinFixture(&db);  // 4 statements
  MustQuery(db, "SELECT COUNT(*) FROM t1");
  EXPECT_FALSE(db.Execute("SELECT nonsense FROM nowhere").ok());
  EXPECT_EQ(metrics.counter(obs::kQueriesExecuted), 6u);
  EXPECT_EQ(metrics.counter(obs::kQueriesFailed), 1u);
  EXPECT_EQ(metrics.histogram(obs::kStatementLatencyUs).count(), 6u);
  // Plain (uninstrumented) execution folds no per-operator data.
  EXPECT_EQ(metrics.counter(obs::kRowsScanned), 0u);
}

TEST(MetricsTest, CollectExecStatsFoldsOperatorAggregates) {
  obs::MetricsRegistry metrics;
  EngineConfig config;
  config.collect_exec_stats = true;
  Database db{config};
  db.set_metrics(&metrics);
  LoadJoinFixture(&db);
  MustQuery(db, kJoinSql);
  // The join scanned both tables and probed with the left input's rows.
  EXPECT_EQ(metrics.counter(obs::kRowsScanned), 7u);
  EXPECT_EQ(metrics.counter(obs::kJoinProbes), 4u);
  EXPECT_EQ(metrics.operator_aggregate("SeqScan").instances, 2u);
  EXPECT_EQ(metrics.operator_aggregate("HashJoin").instances, 1u);
  EXPECT_EQ(metrics.operator_aggregate("HashJoin").stats.rows_emitted, 2u);
}

TEST(ScalarValueTest, DescribesNonScalarShapes) {
  Database db;
  BORNSQL_ASSERT_OK(db.ExecuteScript(
      "CREATE TABLE t (a INTEGER);"
      "INSERT INTO t VALUES (1),(2);"));
  QueryResult two_rows = MustQuery(db, "SELECT a FROM t");
  auto scalar = two_rows.ScalarValue();
  ASSERT_FALSE(scalar.ok());
  EXPECT_NE(scalar.status().ToString().find("2x1"), std::string::npos);

  QueryResult empty = MustQuery(db, "SELECT a FROM t WHERE a > 9");
  auto none = empty.ScalarValue();
  ASSERT_FALSE(none.ok());
  EXPECT_NE(none.status().ToString().find("0x0"), std::string::npos);

  QueryResult ok = MustQuery(db, "SELECT COUNT(*) FROM t");
  auto value = ok.ScalarValue();
  BORNSQL_ASSERT_OK(value.status());
  EXPECT_EQ(value->AsInt(), 2);
}

TEST(StatsTest, OperatorStatsMergeAndTimer) {
  obs::OperatorStats a;
  a.open_calls = 1;
  a.next_calls = 5;
  a.rows_emitted = 4;
  a.peak_entries = 2;
  obs::OperatorStats b;
  b.next_calls = 7;
  b.peak_entries = 9;
  a.MergeFrom(b);
  EXPECT_EQ(a.next_calls, 12u);
  EXPECT_EQ(a.peak_entries, 9u);
  obs::OperatorStats timed;
  { obs::StatsTimer timer(&timed); }
  EXPECT_GE(timed.wall_nanos, 0u);
  // The timer records the operator's lifetime interval for trace spans.
  EXPECT_GT(timed.first_ns, 0u);
  EXPECT_GE(timed.last_ns, timed.first_ns);
  a.Reset();
  EXPECT_EQ(a.next_calls, 0u);
}

TEST(MetricsRegistryTest, HistogramBoundariesAreDeterministic) {
  // Regression: values exactly on a bucket boundary must land in that
  // bucket (<= bound), and values above the last finite bound must land in
  // the overflow bucket — independent of floating-point representation.
  obs::MetricsRegistry metrics;
  metrics.RecordLatency("edge", 1e-6);     // exactly 1us -> bucket 0
  metrics.RecordLatency("edge", 5e-6);     // exactly 5us -> bucket 1
  metrics.RecordLatency("edge", 10e-6);    // exactly 10us -> bucket 2
  metrics.RecordLatency("edge", 50e-6);    // exactly 50us -> bucket 3
  metrics.RecordLatency("edge", 100e-6);   // exactly 100us -> bucket 4
  metrics.RecordLatency("edge", 1e-3);     // exactly 1ms
  metrics.RecordLatency("edge", 5.0);      // exactly 5s -> last finite bucket
  metrics.RecordLatency("edge", 5.000001);  // just above -> overflow
  obs::LatencyHistogram hist = metrics.histogram("edge");
  EXPECT_EQ(hist.count(), 8u);
  EXPECT_EQ(hist.bucket(0), 1u);
  EXPECT_EQ(hist.bucket(1), 1u);
  EXPECT_EQ(hist.bucket(2), 1u);
  EXPECT_EQ(hist.bucket(3), 1u);
  EXPECT_EQ(hist.bucket(4), 1u);
  EXPECT_EQ(hist.bucket(obs::LatencyHistogram::kNumBuckets - 2), 1u);
  EXPECT_EQ(hist.bucket(obs::LatencyHistogram::kNumBuckets - 1), 1u);
}

TEST(MetricsRegistryTest, ConcurrentHammer) {
  // Many threads hitting every registry entry point; the sums must come
  // out exact and the run must be clean under ASan/TSan.
  obs::MetricsRegistry metrics;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&metrics] {
      obs::OperatorStats stats;
      stats.open_calls = 1;
      stats.next_calls = 2;
      stats.rows_emitted = 1;
      for (int i = 0; i < kIters; ++i) {
        metrics.IncrementCounter("hammer");
        metrics.RecordLatency("hammer_lat", 1e-6 * (i % 100));
        metrics.RecordOperator("HammerOp", stats);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t expected = uint64_t{kThreads} * kIters;
  EXPECT_EQ(metrics.counter("hammer"), expected);
  EXPECT_EQ(metrics.histogram("hammer_lat").count(), expected);
  obs::OperatorAggregate agg = metrics.operator_aggregate("HammerOp");
  EXPECT_EQ(agg.instances, expected);
  EXPECT_EQ(agg.stats.rows_emitted, expected);
  EXPECT_EQ(agg.stats.next_calls, 2 * expected);
}


TEST(TraceRecorderTest, ConcurrentHammer) {
  // Several threads recording, snapshotting, clearing and resizing one
  // recorder; exercised under TSan by ci.sh leg 3. Counts are checked
  // only loosely (Clear races with Record by design) — the point is that
  // every entry point is safe to interleave.
  obs::TraceRecorder recorder(/*capacity=*/64);
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kIters; ++i) {
        obs::StatementTrace trace;
        trace.statement = "SELECT " + std::to_string(t);
        trace.start_ns = recorder.NowNs();
        trace.spans.push_back({"execute", "phase", trace.start_ns, 1});
        recorder.Record(std::move(trace));
        if (i % 64 == 0) {
          auto snapshot = recorder.Snapshot();
          // Bound by the largest capacity ever set, not recorder.capacity():
          // thread 0 may shrink the ring between Snapshot() and the read.
          EXPECT_LE(snapshot.size(), 64u);
          for (const obs::StatementTrace& st : snapshot) {
            EXPECT_GT(st.id, 0u);
          }
        }
        if (t == 0 && i % 128 == 0) {
          recorder.set_capacity(i % 256 == 0 ? 32 : 64);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(recorder.size(), recorder.capacity());
  // Ids keep increasing monotonically within the surviving window.
  auto snapshot = recorder.Snapshot();
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].id, snapshot[i].id);
  }
}

TEST(StatementStatsRegistryTest, ConcurrentHammer) {
  // Distinct per-thread keys plus one shared key; totals must come out
  // exact and the run must be clean under TSan (ci.sh leg 3).
  obs::StatementStatsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      const std::string mine = "SELECT " + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        registry.Record(mine, 0.5, 1, /*error=*/false);
        registry.Record("SELECT shared", 0.25, 2, /*error=*/(i % 2) == 0);
        if (i % 100 == 0) (void)registry.Snapshot();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto snapshot = registry.Snapshot();
  const uint64_t expected = uint64_t{kThreads} * kIters;
  const obs::StatementStats& shared = snapshot.at("SELECT shared");
  EXPECT_EQ(shared.calls, expected);
  EXPECT_EQ(shared.rows, 2 * expected);
  EXPECT_EQ(shared.errors, expected / 2);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snapshot.at("SELECT " + std::to_string(t)).calls,
              uint64_t{kIters});
  }
}

TEST(StatementStatsTest, EvictsLeastRecentlyRecordedAtCapacity) {
  obs::StatementStatsRegistry registry;
  for (size_t i = 0; i < obs::StatementStatsRegistry::kMaxEntries; ++i) {
    EXPECT_FALSE(registry.Record("q" + std::to_string(i), 1.0, 1, false));
  }
  EXPECT_EQ(registry.size(), obs::StatementStatsRegistry::kMaxEntries);
  EXPECT_EQ(registry.evictions(), 0u);

  // Touch q0 so it is no longer the least recently recorded, then admit a
  // new key: q1 (the oldest untouched entry) must be the victim.
  registry.Record("q0", 1.0, 1, false);
  EXPECT_TRUE(registry.Record("fresh", 1.0, 1, false));
  EXPECT_EQ(registry.size(), obs::StatementStatsRegistry::kMaxEntries);
  EXPECT_EQ(registry.evictions(), 1u);

  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.count("q0"), 1u);
  EXPECT_EQ(snapshot.count("q1"), 0u);
  EXPECT_EQ(snapshot.count("fresh"), 1u);
  // The evicted key's stats restart from zero if it returns.
  registry.Record("q1", 1.0, 7, false);
  EXPECT_EQ(registry.Snapshot().at("q1").calls, 1u);
  EXPECT_EQ(registry.evictions(), 2u);
}

}  // namespace
}  // namespace bornsql
