// Operator-level unit tests: each volcano operator driven directly,
// without the parser or planner.
#include "exec/operators.h"

#include <gtest/gtest.h>

#include <set>

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

TEST(ExecTest, SingleRowEmitsOnce) {
  SingleRowOp op;
  auto rows = MustDrain(op);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].empty());
}

TEST(ExecTest, FilterKeepsTruthyRows) {
  auto source = Rows(OneCol("t", "a"),
                     {{Value::Int(1)}, {Value::Int(0)}, {Value::Null()},
                      {Value::Int(5)}});
  FilterOp filter(std::move(source), BoundColumn(0));
  auto rows = MustDrain(filter);
  ASSERT_EQ(rows.size(), 2u);  // 0 is false, NULL is filtered
  EXPECT_EQ(rows[0][0].AsInt(), 1);
  EXPECT_EQ(rows[1][0].AsInt(), 5);
}

TEST(ExecTest, ProjectComputesExpressions) {
  auto source = Rows(OneCol("t", "a"), {{Value::Int(3)}});
  std::vector<BoundExprPtr> exprs;
  auto sum = std::make_unique<BoundExpr>();
  sum->kind = BoundKind::kBinary;
  sum->binary_op = BoundBinaryOp::kAdd;
  sum->children.push_back(BoundColumn(0));
  sum->children.push_back(BoundLiteral(Value::Int(10)));
  exprs.push_back(std::move(sum));
  ProjectOp project(std::move(source), std::move(exprs), OneCol("", "s"));
  auto rows = MustDrain(project);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 13);
}

std::vector<BoundExprPtr> Keys(size_t idx) {
  std::vector<BoundExprPtr> keys;
  keys.push_back(BoundColumn(idx));
  return keys;
}

TEST(ExecTest, HashJoinInnerMultiMatch) {
  auto left = Rows(TwoCols("l", "k", "v"),
                   {{Value::Int(1), Value::Text("a")},
                    {Value::Int(2), Value::Text("b")}});
  auto right = Rows(TwoCols("r", "k", "v"),
                    {{Value::Int(1), Value::Text("x")},
                     {Value::Int(1), Value::Text("y")},
                     {Value::Int(3), Value::Text("z")}});
  HashJoinOp join(std::move(left), std::move(right), Keys(0), Keys(0),
                  JoinType::kInner);
  auto rows = MustDrain(join);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][3].AsText(), "x");
  EXPECT_EQ(rows[1][3].AsText(), "y");
}

TEST(ExecTest, HashJoinLeftEmitsNullsOnce) {
  auto left = Rows(OneCol("l", "k"), {{Value::Int(1)}, {Value::Int(9)}});
  auto right = Rows(OneCol("r", "k"), {{Value::Int(1)}});
  HashJoinOp join(std::move(left), std::move(right), Keys(0), Keys(0),
                  JoinType::kLeft);
  auto rows = MustDrain(join);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].AsInt(), 1);
  EXPECT_TRUE(rows[1][1].is_null());
}

TEST(ExecTest, SortMergeJoinMatchesHashJoin) {
  std::vector<Row> lrows, rrows;
  for (int i = 0; i < 30; ++i) {
    lrows.push_back({Value::Int(i % 7), Value::Int(i)});
    rrows.push_back({Value::Int(i % 5), Value::Int(100 + i)});
  }
  HashJoinOp hash(Rows(TwoCols("l", "k", "v"), lrows),
                  Rows(TwoCols("r", "k", "v"), rrows), Keys(0), Keys(0),
                  JoinType::kInner);
  SortMergeJoinOp merge(Rows(TwoCols("l", "k", "v"), lrows),
                        Rows(TwoCols("r", "k", "v"), rrows), Keys(0),
                        Keys(0), JoinType::kInner);
  auto a = MustDrain(hash);
  auto b = MustDrain(merge);
  auto dump = [](std::vector<Row>& rows) {
    std::vector<std::string> out;
    for (Row& r : rows) {
      std::string line;
      for (Value& v : r) line += v.ToString() + "|";
      out.push_back(line);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(dump(a), dump(b));
}

TEST(ExecTest, NestedLoopCrossProduct) {
  auto left = Rows(OneCol("l", "a"), {{Value::Int(1)}, {Value::Int(2)}});
  auto right = Rows(OneCol("r", "b"), {{Value::Int(10)}, {Value::Int(20)},
                                       {Value::Int(30)}});
  NestedLoopJoinOp join(std::move(left), std::move(right), nullptr,
                        JoinType::kCross);
  EXPECT_EQ(MustDrain(join).size(), 6u);
}

TEST(ExecTest, IndexJoinProbesSecondaryIndex) {
  storage::Table table("w", TwoCols("w", "j", "v"), {});
  table.AppendUnchecked({Value::Text("a"), Value::Int(1)});
  table.AppendUnchecked({Value::Text("a"), Value::Int(2)});
  table.AppendUnchecked({Value::Text("b"), Value::Int(3)});
  size_t idx = table.AddSecondaryIndex({0});

  auto outer = Rows(OneCol("x", "j"), {{Value::Text("a")},
                                       {Value::Text("missing")}});
  IndexJoinOp join(std::move(outer), &table, table.schema(), idx, Keys(0),
                   /*inner_on_left=*/false);
  auto rows = MustDrain(join);
  ASSERT_EQ(rows.size(), 2u);  // 'a' matched twice, 'missing' none
  // Output layout: outer column then inner columns; match order within one
  // probe is unspecified (hash index), so compare as a set.
  std::set<int64_t> values;
  for (const Row& row : rows) {
    EXPECT_EQ(row[0].AsText(), "a");
    values.insert(row[2].AsInt());
  }
  EXPECT_EQ(values, (std::set<int64_t>{1, 2}));
}

TEST(ExecTest, IndexJoinInnerOnLeftSwapsSchema) {
  storage::Table table("w", OneCol("w", "j"), {});
  table.AppendUnchecked({Value::Text("a")});
  size_t idx = table.AddSecondaryIndex({0});
  auto outer = Rows(TwoCols("x", "j", "v"),
                    {{Value::Text("a"), Value::Int(7)}});
  IndexJoinOp join(std::move(outer), &table, table.schema(), idx, Keys(0),
                   /*inner_on_left=*/true);
  EXPECT_EQ(join.schema().column(0).qualifier, "w");
  auto rows = MustDrain(join);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsText(), "a");  // inner first
  EXPECT_EQ(rows[0][2].AsInt(), 7);     // outer after
}

TEST(ExecTest, HashAggGroupsAndAggregates) {
  auto source = Rows(TwoCols("t", "g", "v"),
                     {{Value::Int(1), Value::Int(10)},
                      {Value::Int(1), Value::Int(20)},
                      {Value::Int(2), Value::Int(5)}});
  std::vector<BoundExprPtr> groups;
  groups.push_back(BoundColumn(0));
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggFunc::kSum, BoundColumn(1)});
  aggs.push_back(AggSpec{AggFunc::kCountStar, nullptr});
  Schema out = TwoCols("", "g", "s");
  out.Add(Column{"", "c", ValueType::kNull});
  HashAggOp agg(std::move(source), std::move(groups), std::move(aggs), out);
  auto rows = MustDrain(agg);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].AsInt(), 30);
  EXPECT_EQ(rows[0][2].AsInt(), 2);
  EXPECT_EQ(rows[1][1].AsInt(), 5);
}

TEST(ExecTest, GlobalAggOnEmptyInputYieldsOneRow) {
  auto source = Rows(OneCol("t", "v"), {});
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggFunc::kSum, BoundColumn(0)});
  HashAggOp agg(std::move(source), {}, std::move(aggs), OneCol("", "s"));
  auto rows = MustDrain(agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_null());
}

TEST(ExecTest, SortIsStable) {
  auto source = Rows(TwoCols("t", "k", "tag"),
                     {{Value::Int(2), Value::Text("first")},
                      {Value::Int(1), Value::Text("a")},
                      {Value::Int(2), Value::Text("second")}});
  std::vector<SortKey> keys;
  keys.push_back(SortKey{BoundColumn(0), false});
  SortOp sort(std::move(source), std::move(keys));
  auto rows = MustDrain(sort);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][1].AsText(), "first");
  EXPECT_EQ(rows[2][1].AsText(), "second");
}

TEST(ExecTest, LimitAndOffset) {
  std::vector<Row> input;
  for (int i = 0; i < 10; ++i) input.push_back({Value::Int(i)});
  LimitOp limit(Rows(OneCol("t", "v"), input), 3, 4);
  auto rows = MustDrain(limit);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt(), 4);
  EXPECT_EQ(rows[2][0].AsInt(), 6);
}

TEST(ExecTest, DistinctComparesWholeRow) {
  auto source = Rows(TwoCols("t", "a", "b"),
                     {{Value::Int(1), Value::Int(1)},
                      {Value::Int(1), Value::Int(1)},
                      {Value::Int(1), Value::Int(2)},
                      {Value::Null(), Value::Null()},
                      {Value::Null(), Value::Null()}});
  DistinctOp distinct(std::move(source));
  // NULL rows deduplicate with each other (DISTINCT grouping semantics).
  EXPECT_EQ(MustDrain(distinct).size(), 3u);
}

TEST(ExecTest, UnionAllConcatenatesInOrder) {
  std::vector<OperatorPtr> children;
  children.push_back(Rows(OneCol("a", "v"), {{Value::Int(1)}}));
  children.push_back(Rows(OneCol("b", "v"), {{Value::Int(2)}}));
  UnionAllOp u(std::move(children));
  auto rows = MustDrain(u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 1);
  EXPECT_EQ(rows[1][0].AsInt(), 2);
  // Union output is unqualified.
  EXPECT_EQ(u.schema().column(0).qualifier, "");
}

TEST(ExecTest, OperatorsAreReopenable) {
  auto source = Rows(OneCol("t", "v"), {{Value::Int(1)}, {Value::Int(2)}});
  FilterOp filter(std::move(source), BoundLiteral(Value::Bool(true)));
  EXPECT_EQ(MustDrain(filter).size(), 2u);
  EXPECT_EQ(MustDrain(filter).size(), 2u);  // Drain reopens
}

TEST(ExecTest, DebugStringsNameTheOperators) {
  auto source = Rows(OneCol("t", "v"), {});
  EXPECT_NE(source->DebugString().find("MaterializedScan"),
            std::string::npos);
  FilterOp filter(std::move(source), BoundLiteral(Value::Bool(true)));
  EXPECT_EQ(filter.DebugString(), "Filter");
  ASSERT_EQ(filter.children().size(), 1u);
}

}  // namespace
}  // namespace bornsql::exec
