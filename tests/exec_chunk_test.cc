// Chunk-boundary edge cases for the vectorized executor: every operator is
// driven at deliberately awkward vector sizes (1, 2, 3, a prime, the
// default) so partial last chunks, filter-to-zero chunks, and mid-chunk
// LIMIT/OFFSET cuts all occur. The invariant under test everywhere: the
// drained row set is identical at every chunk size, because vector_size
// changes execution granularity, never results (DESIGN.md section 14).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "engine/binder.h"
#include "exec/chunk.h"
#include "exec/evaluator.h"
#include "exec/operators.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace bornsql::exec {
namespace {

Schema OneCol(const char* qualifier, const char* name) {
  Schema s;
  s.Add(Column{qualifier, name, ValueType::kNull});
  return s;
}

Schema TwoCols(const char* qualifier, const char* a, const char* b) {
  Schema s;
  s.Add(Column{qualifier, a, ValueType::kNull});
  s.Add(Column{qualifier, b, ValueType::kNull});
  return s;
}

OperatorPtr Rows(Schema schema, std::vector<Row> rows) {
  return testing::RowsScan(std::move(schema), std::move(rows));
}

std::vector<Row> MustDrain(Operator& op) {
  auto result = testing::DrainRows(op);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(*result) : std::vector<Row>{};
}

// Drains `op` at the given vector size and returns the rows.
std::vector<Row> DrainAt(Operator& op, size_t vector_size) {
  op.SetVectorSize(vector_size);
  return MustDrain(op);
}

// Ints [0, n) as single-column rows.
std::vector<Row> IntRows(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back({Value::Int(i)});
  return rows;
}

void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want,
                    size_t vector_size) {
  ASSERT_EQ(got.size(), want.size()) << "at vector_size=" << vector_size;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "row " << i;
    for (size_t c = 0; c < got[i].size(); ++c) {
      EXPECT_EQ(got[i][c].ToString(), want[i][c].ToString())
          << "row " << i << " col " << c << " at vector_size=" << vector_size;
    }
  }
}

// The awkward sizes: scalar, tiny, prime vs the 7/10/12-row inputs below
// (forcing partial last chunks), and the production default.
const size_t kSizes[] = {1, 2, 3, 5, Operator::kDefaultVectorSize};

std::vector<BoundExprPtr> Keys(size_t idx) {
  std::vector<BoundExprPtr> keys;
  keys.push_back(BoundColumn(idx));
  return keys;
}

// x % 2 as a bound expression (used as a filter: keeps odd values).
BoundExprPtr OddPredicate(size_t col) {
  auto mod = std::make_unique<BoundExpr>();
  mod->kind = BoundKind::kBinary;
  mod->binary_op = BoundBinaryOp::kMod;
  mod->children.push_back(BoundColumn(col));
  mod->children.push_back(BoundLiteral(Value::Int(2)));
  return mod;
}

TEST(ExecChunkTest, FilterResultsIdenticalAtEveryVectorSize) {
  std::vector<Row> want;
  for (int i = 0; i < 12; ++i) {
    if (i % 2 == 1) want.push_back({Value::Int(i)});
  }
  for (size_t vs : kSizes) {
    FilterOp filter(Rows(OneCol("t", "a"), IntRows(12)), OddPredicate(0));
    ExpectSameRows(DrainAt(filter, vs), want, vs);
  }
}

TEST(ExecChunkTest, FilterToZeroSelectionYieldsNoRows) {
  // Every chunk filters to an empty selection; the operator must keep
  // pulling (Drain asserts chunks are non-empty) and report exhaustion.
  for (size_t vs : kSizes) {
    FilterOp filter(Rows(OneCol("t", "a"), IntRows(10)),
                    BoundLiteral(Value::Int(0)));
    EXPECT_TRUE(DrainAt(filter, vs).empty()) << "vector_size=" << vs;
  }
}

TEST(ExecChunkTest, FilterSkipsAllRejectedMiddleChunks) {
  // 0..9 with only the first and last rows truthy: at vector_size=2 the
  // middle chunks select zero rows and must be skipped, not emitted empty.
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value::Int(i == 0 || i == 9 ? 1 : 0), Value::Int(i)});
  }
  std::vector<Row> want = {{Value::Int(1), Value::Int(0)},
                           {Value::Int(1), Value::Int(9)}};
  for (size_t vs : kSizes) {
    FilterOp filter(Rows(TwoCols("t", "keep", "i"), rows), BoundColumn(0));
    ExpectSameRows(DrainAt(filter, vs), want, vs);
  }
}

TEST(ExecChunkTest, EmptyInputThroughPipelines) {
  for (size_t vs : kSizes) {
    FilterOp filter(Rows(OneCol("t", "a"), {}), BoundColumn(0));
    EXPECT_TRUE(DrainAt(filter, vs).empty());

    std::vector<BoundExprPtr> exprs;
    exprs.push_back(BoundColumn(0));
    ProjectOp project(Rows(OneCol("t", "a"), {}), std::move(exprs),
                      OneCol("", "p"));
    EXPECT_TRUE(DrainAt(project, vs).empty());

    DistinctOp distinct(Rows(OneCol("t", "a"), {}));
    EXPECT_TRUE(DrainAt(distinct, vs).empty());
  }
}

TEST(ExecChunkTest, LimitOffsetCutsMidChunk) {
  // All 49 (limit, offset) cuts over 10 rows, each at every chunk size:
  // covers offset consuming whole chunks, offset ending mid-chunk, limit
  // truncating mid-chunk, and limit+offset spanning a chunk boundary.
  for (int64_t offset = 0; offset <= 6; ++offset) {
    for (int64_t limit = 0; limit <= 6; ++limit) {
      std::vector<Row> want;
      for (int i = 0; i < 10; ++i) {
        if (i >= offset && static_cast<int64_t>(want.size()) < limit) {
          want.push_back({Value::Int(i)});
        }
      }
      for (size_t vs : kSizes) {
        LimitOp op(Rows(OneCol("t", "a"), IntRows(10)), limit, offset);
        ExpectSameRows(DrainAt(op, vs), want, vs);
      }
    }
  }
}

TEST(ExecChunkTest, LimitStopsPullingOnceSatisfied) {
  // LIMIT 1 over a scan at vector_size=1 must not drain the whole input:
  // the scan's stats show how many chunks were actually pulled.
  auto scan = Rows(OneCol("t", "a"), IntRows(10));
  Operator* scan_ptr = scan.get();
  LimitOp op(std::move(scan), /*limit=*/1, /*offset=*/0);
  op.EnableStats(true);
  op.SetVectorSize(1);
  auto rows = MustDrain(op);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_LE(scan_ptr->stats().rows_emitted, 2u);
}

TEST(ExecChunkTest, HashJoinLastPartialChunk) {
  // 7 probe rows x 1-2 matches each at chunk sizes that never divide the
  // match count evenly: emission crosses probe-chunk and output-chunk
  // boundaries, and the last chunk is partial.
  std::vector<Row> left;
  for (int i = 0; i < 7; ++i) {
    left.push_back({Value::Int(i % 3), Value::Int(i)});
  }
  std::vector<Row> right = {{Value::Int(0), Value::Int(100)},
                            {Value::Int(1), Value::Int(101)},
                            {Value::Int(1), Value::Int(111)},
                            {Value::Int(9), Value::Int(109)}};
  std::vector<Row> want;
  for (const Row& l : left) {
    for (const Row& r : right) {
      if (l[0].AsInt() == r[0].AsInt()) {
        want.push_back({l[0], l[1], r[0], r[1]});
      }
    }
  }
  for (size_t vs : kSizes) {
    HashJoinOp join(Rows(TwoCols("l", "k", "v"), left),
                    Rows(TwoCols("r", "k", "v"), right), Keys(0), Keys(0),
                    JoinType::kInner);
    ExpectSameRows(DrainAt(join, vs), want, vs);
  }
}

TEST(ExecChunkTest, LeftJoinNullPadsAcrossChunkBoundaries) {
  std::vector<Row> left;
  for (int i = 0; i < 7; ++i) left.push_back({Value::Int(i)});
  std::vector<Row> right = {{Value::Int(2)}, {Value::Int(5)}};
  for (size_t vs : kSizes) {
    HashJoinOp join(Rows(OneCol("l", "k"), left), Rows(OneCol("r", "k"), right),
                    Keys(0), Keys(0), JoinType::kLeft);
    auto rows = DrainAt(join, vs);
    ASSERT_EQ(rows.size(), 7u) << "vector_size=" << vs;
    for (const Row& row : rows) {
      const bool matched = row[0].AsInt() == 2 || row[0].AsInt() == 5;
      EXPECT_EQ(row[1].is_null(), !matched) << row[0].ToString();
    }
  }
}

TEST(ExecChunkTest, NestedLoopLeftJoinPredicateKeepsLeftMajorOrder) {
  // l.a <= r.b over left 0..6 and right {1, 3, 5}: each left row's
  // candidates span several chunks at small sizes, some pass and some do
  // not, and left row 6 matches nothing (NULL-padded).
  std::vector<Row> right = {{Value::Int(1)}, {Value::Int(3)}, {Value::Int(5)}};
  std::vector<Row> want;
  for (int l = 0; l < 7; ++l) {
    bool matched = false;
    for (const Row& r : right) {
      if (l > r[0].AsInt()) continue;
      want.push_back({Value::Int(l), r[0]});
      matched = true;
    }
    if (!matched) want.push_back({Value::Int(l), Value::Null()});
  }
  for (size_t vs : kSizes) {
    auto le = std::make_unique<BoundExpr>();
    le->kind = BoundKind::kBinary;
    le->binary_op = BoundBinaryOp::kLtEq;
    le->children.push_back(BoundColumn(0));
    le->children.push_back(BoundColumn(1));
    NestedLoopJoinOp join(Rows(OneCol("l", "a"), IntRows(7)),
                          Rows(OneCol("r", "b"), right), std::move(le),
                          JoinType::kLeft);
    ExpectSameRows(DrainAt(join, vs), want, vs);
  }
}

TEST(ExecChunkTest, NestedLoopCrossProductPartialChunks) {
  // 5 x 3 cross product: neither side nor the 15-row output divides evenly
  // by chunk sizes 2 and 3.
  std::vector<Row> want;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 3; ++j) {
      want.push_back({Value::Int(i), Value::Int(10 + j)});
    }
  }
  std::vector<Row> right;
  for (int j = 0; j < 3; ++j) right.push_back({Value::Int(10 + j)});
  for (size_t vs : kSizes) {
    NestedLoopJoinOp join(Rows(OneCol("l", "a"), IntRows(5)),
                          Rows(OneCol("r", "b"), right), nullptr,
                          JoinType::kCross);
    ExpectSameRows(DrainAt(join, vs), want, vs);
  }
}

TEST(ExecChunkTest, HashAggLastPartialChunk) {
  // 10 rows, 3 groups, consumed in partial chunks; with no group keys the
  // empty input still emits exactly one row at every chunk size.
  for (size_t vs : kSizes) {
    std::vector<BoundExprPtr> groups;
    groups.push_back(OddPredicate(0));  // group by a % 2
    std::vector<AggSpec> aggs;
    aggs.push_back({AggFunc::kCountStar, nullptr});
    HashAggOp agg(Rows(OneCol("t", "a"), IntRows(10)), std::move(groups),
                  std::move(aggs), TwoCols("", "g", "n"));
    auto rows = DrainAt(agg, vs);
    ASSERT_EQ(rows.size(), 2u) << "vector_size=" << vs;
    int64_t total = 0;
    for (const Row& row : rows) total += row[1].AsInt();
    EXPECT_EQ(total, 10);

    std::vector<AggSpec> count_all;
    count_all.push_back({AggFunc::kCountStar, nullptr});
    HashAggOp global(Rows(OneCol("t", "a"), {}), {}, std::move(count_all),
                     OneCol("", "n"));
    auto grows = DrainAt(global, vs);
    ASSERT_EQ(grows.size(), 1u) << "vector_size=" << vs;
    EXPECT_EQ(grows[0][0].AsInt(), 0);
  }
}

TEST(ExecChunkTest, DistinctAcrossChunkBoundaries) {
  // Duplicates that straddle chunk boundaries at size 2/3; also a chunk
  // whose rows are all duplicates (selects zero) mid-stream.
  std::vector<Row> rows;
  for (int v : {1, 1, 2, 2, 2, 3, 1, 2, 3, 4}) rows.push_back({Value::Int(v)});
  std::vector<Row> want = {
      {Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}, {Value::Int(4)}};
  for (size_t vs : kSizes) {
    DistinctOp distinct(Rows(OneCol("t", "a"), rows));
    ExpectSameRows(DrainAt(distinct, vs), want, vs);
  }
}

TEST(ExecChunkTest, SortAndUnionEmitPartialLastChunks) {
  std::vector<Row> want_union;
  for (int i = 0; i < 7; ++i) want_union.push_back({Value::Int(i)});
  for (int i = 0; i < 4; ++i) want_union.push_back({Value::Int(100 + i)});
  for (size_t vs : kSizes) {
    std::vector<OperatorPtr> children;
    children.push_back(Rows(OneCol("t", "a"), IntRows(7)));
    std::vector<Row> second;
    for (int i = 0; i < 4; ++i) second.push_back({Value::Int(100 + i)});
    children.push_back(Rows(OneCol("t", "a"), second));
    UnionAllOp u(std::move(children));
    ExpectSameRows(DrainAt(u, vs), want_union, vs);

    std::vector<Row> reversed;
    for (int i = 6; i >= 0; --i) reversed.push_back({Value::Int(i)});
    std::vector<SortKey> keys;
    keys.push_back({BoundColumn(0), /*desc=*/false});
    SortOp sort(Rows(OneCol("t", "a"), reversed), std::move(keys));
    ExpectSameRows(DrainAt(sort, vs), IntRows(7), vs);
  }
}

TEST(ExecChunkTest, SetVectorSizeClampsDegenerateValues) {
  // 0 clamps to 1 (a zero chunk budget would emit empty chunks and spin);
  // a huge request clamps to kMaxVectorSize instead of allocating for it.
  for (size_t requested : {size_t{0}, size_t{1}, Operator::kMaxVectorSize * 16}) {
    FilterOp filter(Rows(OneCol("t", "a"), IntRows(12)), OddPredicate(0));
    EXPECT_EQ(DrainAt(filter, requested).size(), 6u)
        << "requested=" << requested;
  }
}

TEST(ExecChunkTest, StatsAreTupleGranularAtEveryVectorSize) {
  // The EXPLAIN ANALYZE contract: a full drain of n rows reports
  // rows_emitted=n and next_calls=n+1 regardless of chunk size, so the
  // seed's tuple-at-a-time goldens stay byte-identical under batching.
  for (size_t vs : kSizes) {
    auto scan = Rows(OneCol("t", "a"), IntRows(12));
    Operator* scan_ptr = scan.get();
    FilterOp filter(std::move(scan), OddPredicate(0));
    filter.EnableStats(true);
    filter.SetVectorSize(vs);
    auto rows = MustDrain(filter);
    ASSERT_EQ(rows.size(), 6u);
    EXPECT_EQ(scan_ptr->stats().rows_emitted, 12u) << "vector_size=" << vs;
    EXPECT_EQ(scan_ptr->stats().next_calls, 13u) << "vector_size=" << vs;
    EXPECT_EQ(filter.stats().rows_emitted, 6u) << "vector_size=" << vs;
    EXPECT_EQ(filter.stats().next_calls, 7u) << "vector_size=" << vs;
  }
}

TEST(ExecChunkTest, EvalChunkReportsTheFirstFailingRow) {
  // The row-wise error contract: a mid-chunk type error must surface the
  // SAME status regardless of chunk granularity. Row 5 is the first bad
  // row ('boom'); row 8 is a later bad row ('later') that the chunk also
  // trips over, but EvalChunk's one-row-at-a-time replay must report the
  // FIRST failing row -- exactly what scalar execution (vector_size=1)
  // reports.
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({Value::Int(i)});
  rows[5][0] = Value::Text("boom");
  rows[8][0] = Value::Text("later");

  auto make_project = [&]() {
    auto add = std::make_unique<BoundExpr>();
    add->kind = BoundKind::kBinary;
    add->binary_op = BoundBinaryOp::kAdd;
    add->children.push_back(BoundColumn(0));
    add->children.push_back(BoundLiteral(Value::Int(1)));
    std::vector<BoundExprPtr> exprs;
    exprs.push_back(std::move(add));
    return ProjectOp(Rows(OneCol("t", "a"), rows), std::move(exprs),
                     OneCol("", "p"));
  };

  ProjectOp chunked = make_project();
  chunked.SetVectorSize(2048);
  const Status chunked_status = testing::DrainRows(chunked).status();

  ProjectOp scalar = make_project();
  scalar.SetVectorSize(1);
  const Status scalar_status = testing::DrainRows(scalar).status();

  ASSERT_FALSE(chunked_status.ok());
  ASSERT_FALSE(scalar_status.ok());
  EXPECT_EQ(chunked_status.ToString(), scalar_status.ToString());
  EXPECT_NE(chunked_status.ToString().find("'boom'"), std::string::npos)
      << chunked_status.ToString();
  EXPECT_EQ(chunked_status.ToString().find("'later'"), std::string::npos)
      << chunked_status.ToString();
}

// Projects the SQL expression `sql` over `rows`, whose columns are named
// `a` and `b`, at `vector_size`: each row's value rendered, or the error.
std::vector<std::string> ProjectSql(const std::string& sql, const char* a,
                                    const char* b, const std::vector<Row>& rows,
                                    size_t vector_size) {
  const Schema schema = TwoCols("t", a, b);
  auto parsed = sql::ParseExpression(sql);
  EXPECT_TRUE(parsed.ok()) << sql;
  auto bound = engine::BindExpr(**parsed, schema);
  EXPECT_TRUE(bound.ok()) << sql;
  std::vector<BoundExprPtr> exprs;
  exprs.push_back(std::move(*bound));
  ProjectOp project(Rows(schema, rows), std::move(exprs), OneCol("", "p"));
  project.SetVectorSize(vector_size);
  auto drained = testing::DrainRows(project);
  if (!drained.ok()) return {drained.status().ToString()};
  std::vector<std::string> out;
  for (const Row& row : *drained) out.push_back(row[0].ToString());
  return out;
}

const size_t kLazySizes[] = {1, 3, Operator::kDefaultVectorSize};

TEST(ExecChunkTest, LazyOperandsSkipTheRowsTheirGuardDecides) {
  // v + 1 fails on text; each expression reaches v only where k leaves
  // the row undecided, which in `guarded` is never a text row. 7 rows make
  // partial chunks at vector size 3.
  const Value n = Value::Null();
  const auto t = [](const char* s) { return Value::Text(s); };
  const auto i = [](int64_t v) { return Value::Int(v); };
  const std::vector<Row> guarded = {{i(1), i(5)}, {i(2), t("t")},
                                    {n, i(7)},    {i(1), i(8)},
                                    {i(3), t("u")}, {i(1), i(2)},
                                    {i(2), t("w")}};
  // IN reaches its second item where k is not 1: text only where k = 1.
  const std::vector<Row> guarded_in = {{i(1), t("t")}, {i(2), i(5)},
                                       {n, i(7)},      {i(1), t("u")},
                                       {i(3), i(0)},   {i(1), t("w")},
                                       {i(2), i(1)}};
  struct Case {
    const char* sql;
    const std::vector<Row>* rows;
    std::vector<std::string> want;
  };
  const Case cases[] = {
      {"CASE WHEN k = 1 THEN v + 1 ELSE 0 END", &guarded,
       {"6", "0", "0", "9", "0", "3", "0"}},
      {"k = 1 AND v + 1 > 0", &guarded,
       {"1", "0", "NULL", "1", "0", "1", "0"}},
      {"k <> 1 OR v + 1 > 0", &guarded, {"1", "1", "1", "1", "1", "1", "1"}},
      {"COALESCE(k, v + 1)", &guarded, {"1", "2", "8", "1", "3", "1", "2"}},
      {"1 IN (k, v + 1)", &guarded_in,
       {"1", "0", "NULL", "1", "1", "1", "0"}},
  };
  for (const Case& c : cases) {
    for (size_t vs : kLazySizes) {
      EXPECT_EQ(ProjectSql(c.sql, "k", "v", *c.rows, vs), c.want)
          << c.sql << " at vector_size=" << vs;
    }
  }
}

TEST(ExecChunkTest, ErrorsComeFromTheFirstFailingRowAtEverySize) {
  // Column-at-a-time order meets ('a', 1)'s error in x + 1 before
  // (1, 'b')'s in y + 1; row at a time, (1, 'b') fails first.
  const std::vector<Row> rows = {{Value::Int(1), Value::Int(1)},
                                 {Value::Int(1), Value::Text("b")},
                                 {Value::Text("a"), Value::Int(1)}};
  for (size_t vs : kLazySizes) {
    const std::vector<std::string> got =
        ProjectSql("(x + 1) * (y + 1)", "x", "y", rows, vs);
    ASSERT_EQ(got.size(), 1u) << "vector_size=" << vs;
    EXPECT_NE(got[0].find("'b'"), std::string::npos)
        << got[0] << " at vector_size=" << vs;
  }
  // Across an operator's expressions too: x + 1 fails on ('a', 1) before
  // y + 1 fails on (1, 'b') expression at a time, but row at a time
  // (1, 'b') fails first, in each operator that evaluates several.
  const char* const kStatements[] = {
      "SELECT x + 1, y + 1 FROM t",                                // Project
      "SELECT x + 1, COUNT(*) FROM t GROUP BY x + 1, y + 1",  // group keys
      "SELECT SUM(x + 1), SUM(y + 1) FROM t",          // aggregate arguments
      "SELECT x, ROW_NUMBER() OVER (PARTITION BY x + 1 ORDER BY y + 1) "
      "FROM t",                                                // window keys
      "SELECT COUNT(*) FROM t JOIN u ON t.x + 1 = u.a AND t.y + 1 = u.b",
      "SELECT x FROM t ORDER BY x + 1, y + 1",                   // sort keys
  };
  for (size_t vs : kLazySizes) {
    engine::Database db;
    BORNSQL_ASSERT_OK(db.ExecuteScript(
        "CREATE TABLE t (x, y); INSERT INTO t VALUES (1, 'b'), ('a', 1);"
        "CREATE TABLE u (a, b); INSERT INTO u VALUES (2, 2);"));
    BORNSQL_ASSERT_OK(
        db.Execute("SET born.vector_size = " + std::to_string(vs)).status());
    for (const char* sql : kStatements) {
      auto result = db.Execute(sql);
      ASSERT_FALSE(result.ok()) << sql;
      EXPECT_NE(result.status().ToString().find("'b'"), std::string::npos)
          << sql << ": " << result.status().ToString()
          << " at vector_size=" << vs;
    }
  }
}

// Sort, Window and the sort-merge join keep their documented order at
// every vector size: std::stable_sort over the input rows by
// Value::Compare, ties in input order.
TEST(ExecChunkTest, SortWindowAndMergeOrderMatchStableSortAtEverySize) {
  // k mixes INTEGER, REAL, TEXT and NULL, with ties; j breaks some of
  // them; column 2 tags each row with its input position.
  const std::vector<Value> ks = {
      Value::Int(2),      Value::Text("b"), Value::Null(),    Value::Double(1.5),
      Value::Int(2),      Value::Text("a"), Value::Int(1),    Value::Null(),
      Value::Double(2.0), Value::Text("b"), Value::Int(-3),   Value::Double(1.5)};
  std::vector<Row> input;
  for (size_t i = 0; i < ks.size(); ++i) {
    input.push_back({ks[i], Value::Int(static_cast<int64_t>(i % 3)),
                     Value::Int(static_cast<int64_t>(i))});
  }
  Schema schema = TwoCols("t", "k", "j");
  schema.Add(Column{"t", "tag", ValueType::kNull});
  const auto tags = [](const std::vector<Row>& rows) {
    std::vector<int64_t> out;
    for (const Row& r : rows) out.push_back(r[2].AsInt());
    return out;
  };
  // (key column, descending) lists: one key each way, then two keys.
  const std::vector<std::vector<std::pair<size_t, bool>>> orders = {
      {{0, false}}, {{0, true}}, {{0, false}, {1, true}}, {{1, true}, {0, false}}};
  for (const auto& order : orders) {
    std::vector<Row> expected = input;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](const Row& a, const Row& b) {
                       for (const auto& [col, desc] : order) {
                         const int c = Value::Compare(a[col], b[col]);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
    for (size_t vs : kLazySizes) {
      std::vector<SortKey> keys;
      for (const auto& [col, desc] : order) {
        keys.push_back(SortKey{BoundColumn(col), desc});
      }
      SortOp sort(Rows(schema, input), std::move(keys));
      EXPECT_EQ(tags(DrainAt(sort, vs)), tags(expected))
          << "vector_size=" << vs;
    }
  }

  // ROW_NUMBER, RANK and DENSE_RANK over PARTITION BY j ORDER BY k: peers
  // (equal k within a partition) number in input order.
  std::vector<size_t> by_key(input.size());
  std::iota(by_key.begin(), by_key.end(), size_t{0});
  std::stable_sort(by_key.begin(), by_key.end(), [&](size_t a, size_t b) {
    const int c = Value::Compare(input[a][1], input[b][1]);
    return c != 0 ? c < 0 : Value::Compare(input[a][0], input[b][0]) < 0;
  });
  std::vector<std::vector<int64_t>> numbers(input.size());
  for (size_t i = 0, row = 0, rank = 0, dense = 0; i < by_key.size(); ++i) {
    const Row& cur = input[by_key[i]];
    const bool same_part =
        i > 0 && Value::Compare(cur[1], input[by_key[i - 1]][1]) == 0;
    const bool peer =
        same_part && Value::Compare(cur[0], input[by_key[i - 1]][0]) == 0;
    row = same_part ? row + 1 : 1;
    if (!same_part) dense = 0;
    if (!peer) {
      rank = row;
      ++dense;
    }
    numbers[by_key[i]] = {static_cast<int64_t>(row),
                          static_cast<int64_t>(rank),
                          static_cast<int64_t>(dense)};
  }
  for (size_t vs : kLazySizes) {
    std::vector<WindowSpec> specs;
    for (WindowFunc f : {WindowFunc::kRowNumber, WindowFunc::kRank,
                         WindowFunc::kDenseRank}) {
      WindowSpec spec;
      spec.func = f;
      spec.partition_by.push_back(BoundColumn(1));
      spec.order_by.push_back(SortKey{BoundColumn(0), false});
      spec.output_name = "w";
      specs.push_back(std::move(spec));
    }
    WindowOp window(Rows(schema, input), std::move(specs));
    const std::vector<Row> rows = DrainAt(window, vs);
    ASSERT_EQ(rows.size(), input.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i][2].AsInt(), static_cast<int64_t>(i));  // input order
      EXPECT_EQ((std::vector<int64_t>{rows[i][3].AsInt(), rows[i][4].AsInt(),
                                      rows[i][5].AsInt()}),
                numbers[i])
          << "row " << i << " at vector_size=" << vs;
    }
  }

  // A sort-merge LEFT join on k, duplicate and NULL keys on both sides,
  // gives the hash join's rows stably sorted on the left key: left rows in
  // key order, each one's matches in right input order.
  const std::vector<Row> right = {
      {Value::Int(2), Value::Text("r0")},       {Value::Null(), Value::Text("r1")},
      {Value::Text("b"), Value::Text("r2")},    {Value::Int(2), Value::Text("r3")},
      {Value::Double(1.5), Value::Text("r4")},  {Value::Text("b"), Value::Text("r5")}};
  for (size_t vs : kLazySizes) {
    HashJoinOp hash(Rows(schema, input), Rows(TwoCols("u", "k", "r"), right),
                    Keys(0), Keys(0), JoinType::kLeft);
    std::vector<Row> expected = DrainAt(hash, vs);
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Row& a, const Row& b) {
                       return Value::Compare(a[0], b[0]) < 0;
                     });
    SortMergeJoinOp merge(Rows(schema, input),
                          Rows(TwoCols("u", "k", "r"), right), Keys(0),
                          Keys(0), JoinType::kLeft);
    const std::vector<Row> got = DrainAt(merge, vs);
    ASSERT_EQ(got.size(), expected.size()) << "vector_size=" << vs;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i][2].AsInt(), expected[i][2].AsInt())
          << "row " << i << " at vector_size=" << vs;
      EXPECT_EQ(got[i][4].ToString(), expected[i][4].ToString())
          << "row " << i << " at vector_size=" << vs;
    }
  }
}

TEST(ExecChunkTest, DataChunkAppendHelpers) {
  DataChunk chunk;
  chunk.Reset(2);
  chunk.AppendRow({Value::Int(1), Value::Text("a")});
  chunk.AppendRow({Value::Int(2), Value::Text("b")});
  chunk.AppendRow({Value::Int(3), Value::Text("c")});
  ASSERT_EQ(chunk.size(), 3u);

  SelectionVector sel = {0, 2};
  DataChunk picked;
  picked.Reset(2);
  picked.AppendSelected(chunk, sel);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked.column(0)[1].AsInt(), 3);

  DataChunk sliced;
  sliced.Reset(2);
  sliced.AppendRange(chunk, 1, 2);
  ASSERT_EQ(sliced.size(), 2u);
  EXPECT_EQ(sliced.column(0)[0].AsInt(), 2);

  // A permutation gathers in its own order.
  DataChunk permuted;
  permuted.Reset(2);
  permuted.AppendSelected(chunk, {2, 0, 1});
  ASSERT_EQ(permuted.size(), 3u);
  EXPECT_EQ(permuted.column(0)[0].AsInt(), 3);
  EXPECT_EQ(permuted.column(1)[2].AsText(), "b");

  // The pair gather: left row ++ right row per pair, a kNoRow right side
  // padded with NULLs (LEFT join emission), rows repeating as pairs do.
  DataChunk right;
  right.Reset(1);
  right.AppendRow({Value::Int(10)});
  right.AppendRow({Value::Int(20)});
  DataChunk joined;
  joined.Reset(3);
  const std::vector<RowPair> pairs = {{2, 1}, {0, kNoRow}, {2, 0}};
  joined.AppendPairs(chunk, right, pairs);
  joined.AppendPairs(chunk, right, std::span<const RowPair>(pairs).first(1));
  ASSERT_EQ(joined.size(), 4u);  // appends, never overwrites
  EXPECT_EQ(joined.column(0)[0].AsInt(), 3);
  EXPECT_EQ(joined.column(1)[0].AsText(), "c");
  EXPECT_EQ(joined.column(2)[0].AsInt(), 20);
  EXPECT_EQ(joined.column(0)[1].AsInt(), 1);
  EXPECT_TRUE(joined.column(2)[1].is_null());
  EXPECT_EQ(joined.column(2)[2].AsInt(), 10);
  EXPECT_EQ(joined.column(2)[3].AsInt(), 20);
}

}  // namespace
}  // namespace bornsql::exec
