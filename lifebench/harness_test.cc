// Unit tests of the lifecycle benchmark's helpers (harness.h): order
// statistics, span self time, and executor attribution over profiled plans
// with shared CTEs — synthetic and on a small Scopus model.
#include "harness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "born/born_sql.h"
#include "common/timer.h"
#include "data/scopus.h"
#include "engine/database.h"

namespace lifebench {
namespace {

using bornsql::obs::PlanStatsNode;

TEST(QuantileTest, MedianAndP90InterpolateBetweenRanks) {
  std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.9), 9.1);
  EXPECT_DOUBLE_EQ(Median(v), 5.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Quantile(v, 1), 10);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Quantile({42}, 0.9), 42);
}

TEST(QuantileTest, WindowedQuantileIsTheMedianOfWindows) {
  const std::vector<std::vector<double>> windows = {
      {1, 2, 3}, {}, {10, 20, 30}, {4, 5, 6}, {100, 200, 300}, {2, 3, 4}};
  // Window medians 2, 20, 5, 200, 3 -> 5: a few slow windows cannot move
  // it far.
  EXPECT_DOUBLE_EQ(WindowedQuantile(windows, 0.5), 5);
  // Window p90s 2.8, 28, 5.8, 280, 3.8 -> 5.8.
  EXPECT_DOUBLE_EQ(WindowedQuantile(windows, 0.9), 5.8);
}

TEST(QuantileTest, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(19), 0);
  EXPECT_EQ(TailPercentile(20), 50);
  EXPECT_EQ(TailPercentile(99), 50);
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(999), 90);
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_NEAR(TailPercentile(40000), 99.9, 1e-9);
  EXPECT_NEAR(TailPercentile(100000), 99.99, 1e-9);
  EXPECT_EQ(TailPercentile(1000, 100), 90);
}

Span MakeSpan(uint64_t start, uint64_t end, int parent) {
  Span s;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      MakeSpan(0, 100, -1),  // root
      MakeSpan(10, 30, 0),   // child
      MakeSpan(20, 50, 0),   // overlapping child: union 10..50
      MakeSpan(90, 120, 0),  // clipped to the parent: 90..100
      MakeSpan(12, 18, 1),   // grandchild: only its parent's self shrinks
  };
  const std::vector<uint64_t> self = SelfNs(spans);
  EXPECT_EQ(self[0], 50u);
  EXPECT_EQ(self[1], 14u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 6u);
}

TEST(SpanTest, RecorderNestsAndDisabledRecordsNothing) {
  SpanRecorder rec(true);
  {
    ScopedSpan outer(&rec, "outer", 7);
    { ScopedSpan inner(&rec, "inner", 7); }
    { ScopedSpan inner(&rec, "inner", 8); }
  }
  { ScopedSpan next(&rec, "next", 9); }
  ASSERT_EQ(rec.spans().size(), 4u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, 0);
  EXPECT_EQ(rec.spans()[2].request_id, 8u);
  EXPECT_EQ(rec.spans()[3].parent, -1);
  const std::vector<uint64_t> self = SelfNs(rec.spans());
  const Span& o = rec.spans()[0];
  EXPECT_EQ(self[0] + (rec.spans()[1].end_ns - rec.spans()[1].start_ns) +
                (rec.spans()[2].end_ns - rec.spans()[2].start_ns),
            o.end_ns - o.start_ns);
  EXPECT_NE(rec.ToChromeJson().find("\"name\": \"inner\""), std::string::npos);

  SpanRecorder off(false);
  { ScopedSpan s(&off, "x", 1); }
  EXPECT_TRUE(off.spans().empty());
}

PlanStatsNode Node(const std::string& name, uint64_t first, uint64_t last,
                   uint64_t wall, uint64_t rows = 0) {
  PlanStatsNode n;
  n.name = name;
  n.has_stats = true;
  n.stats.first_ns = first;
  n.stats.last_ns = last;
  n.stats.wall_nanos = wall;
  n.stats.rows_emitted = rows;
  return n;
}

TEST(AttributionTest, SharedCteProducerCountsOnce) {
  // Insert(synthetic, 100) <- HashJoin(80) <- {CteScan A(40) <- P(30),
  // CteScan B(5) <- P}: A opened first and ran the producer.
  PlanStatsNode producer = Node("HashAggregate(1 group keys, 1 aggregates)",
                                12, 45, 30'000'000, 7);
  producer.children.push_back(
      Node("SeqScan(t, 9 rows)", 13, 40, 10'000'000, 9));
  PlanStatsNode a = Node("CteScan(a, materialized)", 10, 50, 40'000'000, 7);
  a.children.push_back(producer);
  PlanStatsNode b = Node("CteScan(b, materialized)", 60, 80, 5'000'000, 7);
  b.children.push_back(producer);
  PlanStatsNode join = Node("HashJoin(inner, 1 keys)", 10, 90, 80'000'000, 3);
  join.children = {a, b};
  PlanStatsNode root = Node("Insert(m_corpus, on conflict)", 0, 0,
                            100'000'000, 3);
  root.children.push_back(join);

  const ExecAttribution got = AttributeExec(root);
  EXPECT_DOUBLE_EQ(got.total_ms, 100);  // the naive sum would be 140
  EXPECT_DOUBLE_EQ(got.self_ms.at("Write"), 20);
  EXPECT_DOUBLE_EQ(got.self_ms.at("HashJoin"), 35);
  EXPECT_DOUBLE_EQ(got.self_ms.at("CteScan"), 10 + 5);
  EXPECT_DOUBLE_EQ(got.self_ms.at("HashAggregate"), 20);
  EXPECT_DOUBLE_EQ(got.self_ms.at("SeqScan"), 10);
  EXPECT_DOUBLE_EQ(got.self_ms.at("Other"), 0);
  EXPECT_EQ(got.rows, 3u + 3 + 7 + 7 + 9 + 7);
  EXPECT_EQ(got.self_ms.size(), OperatorClasses().size());
}

TEST(AttributionTest, OperatorClasses) {
  EXPECT_EQ(OperatorClassOf("CreateTableAs(m_weights)"), "Write");
  EXPECT_EQ(OperatorClassOf("Insert(m_corpus, on conflict)"), "Write");
  EXPECT_EQ(OperatorClassOf("IndexJoin(m_weights via index, 1 keys)"),
            "IndexJoin");
  EXPECT_EQ(OperatorClassOf("Window(1 functions)"), "Other");
  EXPECT_EQ(OperatorClassOf("Relabel(x)"), "Other");
}

// On real plans the de-duplicated self times add up to the statement's
// measured time. Point predicts are left out: their lex/parse/plan time,
// which no operator covers, is comparable to their execution.
TEST(AttributionTest, ProfiledStatementsSumToTheirMeasuredTime) {
  bornsql::data::ScopusOptions so;
  so.num_publications = 3000;
  so.seed = 7;
  bornsql::data::ScopusSynthesizer synth(so);
  bornsql::engine::Database db;
  ASSERT_TRUE(synth.Load(&db).ok());
  bornsql::born::SqlSource source;
  source.x_parts = bornsql::data::ScopusSynthesizer::XParts();
  source.y = bornsql::data::ScopusSynthesizer::YQuery();
  bornsql::born::BornSqlClassifier clf(&db, "m", source);
  const std::string train =
      "SELECT id AS n FROM publication WHERE id % 10 <= 7";
  const std::string slice =
      "SELECT id AS n FROM publication WHERE id % 10 = 7";
  ASSERT_TRUE(clf.Fit(train).ok());
  ASSERT_TRUE(clf.Deploy().ok());

  auto check = [&](const std::string& what, const std::string& sql) {
    bornsql::WallTimer timer;
    auto q = db.ExecuteProfiled(sql);
    const double measured_ms = timer.ElapsedMillis();
    ASSERT_TRUE(q.ok()) << what << ": " << q.status().ToString();
    const ExecAttribution a = AttributeExec(q->plan);
    EXPECT_NEAR(a.total_ms, measured_ms, 0.1 * measured_ms) << what;
    EXPECT_GT(a.rows, 0u) << what;
  };
  check("unlearn", clf.BuildFitSql(slice, /*unlearn=*/true));
  check("partial_fit", clf.BuildFitSql(slice, /*unlearn=*/false));
  ASSERT_TRUE(db.Execute("DELETE FROM m_corpus").ok());
  check("fit", clf.BuildFitSql(train, /*unlearn=*/false));
  ASSERT_TRUE(clf.Undeploy().ok());
  check("deploy", clf.BuildDeploySql());
  ASSERT_TRUE(clf.Deploy().ok());
  check("predict_batch",
        clf.BuildPredictSql(
            "SELECT id AS n FROM publication WHERE id % 10 >= 8"));
}

}  // namespace
}  // namespace lifebench
