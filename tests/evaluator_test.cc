// Expression evaluation edge cases, driven through parse+bind+EvalChunk
// over a one-row chunk so SQL-level semantics (NULL propagation,
// coercions, three-valued logic) are exercised exactly as the engine sees
// them.
#include "exec/evaluator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "engine/binder.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace bornsql::exec {
namespace {

// Evaluates a SQL expression over a row with columns i=1, d=2.5, s='txt',
// z=NULL.
Result<Value> EvalSql(const std::string& expr_sql) {
  Schema schema;
  schema.Add(Column{"t", "i", ValueType::kInt});
  schema.Add(Column{"t", "d", ValueType::kDouble});
  schema.Add(Column{"t", "s", ValueType::kText});
  schema.Add(Column{"t", "z", ValueType::kNull});
  DataChunk chunk;
  chunk.Reset(schema.size());
  chunk.AppendRow({Value::Int(1), Value::Double(2.5), Value::Text("txt"),
                   Value::Null()});
  BORNSQL_ASSIGN_OR_RETURN(sql::ExprPtr parsed,
                           sql::ParseExpression(expr_sql));
  BORNSQL_ASSIGN_OR_RETURN(BoundExprPtr bound,
                           engine::BindExpr(*parsed, schema));
  std::vector<Value> out;
  BORNSQL_RETURN_IF_ERROR(EvalChunk(*bound, chunk, &out));
  return out[0];
}

Value MustEval(const std::string& expr_sql) {
  auto v = EvalSql(expr_sql);
  EXPECT_TRUE(v.ok()) << expr_sql << ": " << v.status().ToString();
  return v.ok() ? *v : Value::Null();
}

TEST(EvaluatorTest, ArithmeticTypePromotion) {
  EXPECT_TRUE(MustEval("i + 1").is_int());
  EXPECT_TRUE(MustEval("i + d").is_double());
  EXPECT_DOUBLE_EQ(MustEval("i + d").AsDouble(), 3.5);
  EXPECT_TRUE(MustEval("i * 2").is_int());
  EXPECT_DOUBLE_EQ(MustEval("d * d").AsDouble(), 6.25);
}

TEST(EvaluatorTest, NullPropagatesThroughArithmetic) {
  EXPECT_TRUE(MustEval("z + 1").is_null());
  EXPECT_TRUE(MustEval("z * d").is_null());
  EXPECT_TRUE(MustEval("-z").is_null());
  EXPECT_TRUE(MustEval("z || 'a'").is_null());
}

TEST(EvaluatorTest, ComparisonsWithNullAreNull) {
  EXPECT_TRUE(MustEval("z = 1").is_null());
  EXPECT_TRUE(MustEval("z <> z").is_null());
  EXPECT_TRUE(MustEval("z < 5").is_null());
}

TEST(EvaluatorTest, ThreeValuedAndOr) {
  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  EXPECT_EQ(MustEval("(1 = 2) AND (z = 1)").AsInt(), 0);
  EXPECT_TRUE(MustEval("(1 = 1) AND (z = 1)").is_null());
  // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
  EXPECT_EQ(MustEval("(1 = 1) OR (z = 1)").AsInt(), 1);
  EXPECT_TRUE(MustEval("(1 = 2) OR (z = 1)").is_null());
}

TEST(EvaluatorTest, ShortCircuitSkipsErrors) {
  // The right side would be a type error, but the left side decides.
  EXPECT_EQ(MustEval("(1 = 2) AND (s + 1 > 0)").AsInt(), 0);
  EXPECT_EQ(MustEval("(1 = 1) OR (s + 1 > 0)").AsInt(), 1);
}

TEST(EvaluatorTest, TextArithmeticIsAnError) {
  EXPECT_FALSE(EvalSql("s + 1").ok());
  EXPECT_FALSE(EvalSql("-s").ok());
}

TEST(EvaluatorTest, ConcatCoercesNumbers) {
  EXPECT_EQ(MustEval("'n=' || i").AsText(), "n=1");
  EXPECT_EQ(MustEval("s || '!' ").AsText(), "txt!");
}

TEST(EvaluatorTest, NumericComparisonCrossType) {
  EXPECT_EQ(MustEval("1 = 1.0").AsInt(), 1);
  EXPECT_EQ(MustEval("i < d").AsInt(), 1);
  EXPECT_EQ(MustEval("2.5 >= d").AsInt(), 1);
}

TEST(EvaluatorTest, IsNullNeverReturnsNull) {
  EXPECT_EQ(MustEval("z IS NULL").AsInt(), 1);
  EXPECT_EQ(MustEval("i IS NULL").AsInt(), 0);
  EXPECT_EQ(MustEval("z IS NOT NULL").AsInt(), 0);
}

TEST(EvaluatorTest, InListWithNullMember) {
  EXPECT_EQ(MustEval("1 IN (1, z)").AsInt(), 1);    // found: true
  EXPECT_TRUE(MustEval("5 IN (1, z)").is_null());   // miss + NULL: NULL
  EXPECT_TRUE(MustEval("5 NOT IN (1, z)").is_null());
  EXPECT_EQ(MustEval("5 NOT IN (1, 2)").AsInt(), 1);
}

TEST(EvaluatorTest, CaseFallsThroughToElseOrNull) {
  EXPECT_EQ(MustEval("CASE WHEN i = 2 THEN 'a' ELSE 'b' END").AsText(), "b");
  EXPECT_TRUE(MustEval("CASE WHEN i = 2 THEN 'a' END").is_null());
  // NULL condition is not truthy.
  EXPECT_EQ(MustEval("CASE WHEN z THEN 'a' ELSE 'b' END").AsText(), "b");
}

TEST(EvaluatorTest, MathFunctionEdgeCases) {
  EXPECT_DOUBLE_EQ(MustEval("POW(0, 0)").AsDouble(), 1.0);
  EXPECT_TRUE(MustEval("POW(-1, 0.5)").is_null());  // NaN -> NULL
  EXPECT_TRUE(MustEval("SQRT(-1)").is_null());
  EXPECT_TRUE(MustEval("EXP(10000)").is_null());    // overflow -> NULL
  EXPECT_EQ(MustEval("FLOOR(2.7)").AsInt(), 2);
  EXPECT_EQ(MustEval("CEIL(2.1)").AsInt(), 3);
  EXPECT_DOUBLE_EQ(MustEval("ROUND(2.456, 2)").AsDouble(), 2.46);
  EXPECT_EQ(MustEval("SIGN(-3.5)").AsInt(), -1);
  EXPECT_EQ(MustEval("MOD(7, 3)").AsInt(), 1);
}

TEST(EvaluatorTest, StringFunctionEdgeCases) {
  EXPECT_EQ(MustEval("SUBSTR('hello', 2, 3)").AsText(), "ell");
  EXPECT_EQ(MustEval("SUBSTR('hello', 99)").AsText(), "");
  EXPECT_EQ(MustEval("SUBSTR('hello', 1, 0)").AsText(), "");
  EXPECT_EQ(MustEval("UPPER(s)").AsText(), "TXT");
  EXPECT_EQ(MustEval("LENGTH('')").AsInt(), 0);
  EXPECT_EQ(MustEval("REPLACE('aaa', 'a', 'bb')").AsText(), "bbbbbb");
  EXPECT_EQ(MustEval("REPLACE('abc', '', 'x')").AsText(), "abc");
  EXPECT_EQ(MustEval("NULLIF(1, 1)").type(), ValueType::kNull);
  EXPECT_EQ(MustEval("NULLIF(1, 2)").AsInt(), 1);
}

TEST(EvaluatorTest, CoalesceShortCircuits) {
  // Later arguments are not evaluated once a non-NULL is found: a type
  // error in the tail is never reached.
  EXPECT_EQ(MustEval("COALESCE(1, s + 1)").AsInt(), 1);
  EXPECT_EQ(MustEval("COALESCE(z, z, 9)").AsInt(), 9);
}

TEST(EvaluatorTest, CastSemantics) {
  EXPECT_EQ(MustEval("CAST('42' AS INTEGER)").AsInt(), 42);
  EXPECT_EQ(MustEval("CAST(2.9 AS INTEGER)").AsInt(), 2);
  EXPECT_EQ(MustEval("CAST(7 AS TEXT)").AsText(), "7");
  EXPECT_TRUE(MustEval("CAST(z AS INTEGER)").is_null());
  EXPECT_FALSE(EvalSql("CAST('abc' AS INTEGER)").ok());
}

TEST(EvaluatorTest, LikePatterns) {
  EXPECT_EQ(MustEval("'abstract:robot' LIKE 'abstract:%'").AsInt(), 1);
  EXPECT_EQ(MustEval("'abc' LIKE 'a_c'").AsInt(), 1);
  EXPECT_EQ(MustEval("'abc' LIKE 'a_d'").AsInt(), 0);
  EXPECT_EQ(MustEval("'' LIKE '%'").AsInt(), 1);
  EXPECT_EQ(MustEval("'xx' LIKE ''").AsInt(), 0);
  EXPECT_EQ(MustEval("'a%b' LIKE '%\%%'").AsInt(), 1);  // % matches anything
  EXPECT_TRUE(MustEval("z LIKE '%'").is_null());
}

TEST(EvaluatorTest, LikeMatchDirect) {
  EXPECT_TRUE(LikeMatch("hello world", "hello%"));
  EXPECT_TRUE(LikeMatch("hello world", "%world"));
  EXPECT_TRUE(LikeMatch("hello world", "%lo wo%"));
  EXPECT_TRUE(LikeMatch("aaab", "%ab"));  // backtracking
  EXPECT_FALSE(LikeMatch("abc", "abcd"));
  EXPECT_TRUE(LikeMatch("", ""));
}

TEST(EvaluatorTest, IntegerDivisionTruncatesTowardZero) {
  EXPECT_EQ(MustEval("7 / 2").AsInt(), 3);
  EXPECT_EQ(MustEval("-7 / 2").AsInt(), -3);
  EXPECT_EQ(MustEval("1702 / 100").AsInt(), 17);
}

TEST(EvaluatorTest, IsConstExprDetectsColumns) {
  auto col = BoundColumn(0);
  EXPECT_FALSE(IsConstExpr(*col));
  auto lit = BoundLiteral(Value::Int(1));
  EXPECT_TRUE(IsConstExpr(*lit));
}

TEST(EvaluatorTest, BetweenDesugar) {
  EXPECT_EQ(MustEval("i BETWEEN 0 AND 2").AsInt(), 1);
  EXPECT_EQ(MustEval("i BETWEEN 2 AND 5").AsInt(), 0);
  EXPECT_EQ(MustEval("i NOT BETWEEN 2 AND 5").AsInt(), 1);
}

}  // namespace
}  // namespace bornsql::exec
