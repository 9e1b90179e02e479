// Bound (index-resolved) expressions and their evaluator.
//
// The binder (engine/binder.cc) lowers sql::Expr trees into BoundExpr trees
// whose column references are integer offsets into the input row. NULL
// semantics follow SQLite/MySQL where the three systems disagree (notably:
// division by zero and ln of a non-positive number yield NULL, not an
// error), since BornSQL targets the common portable subset.
#ifndef BORNSQL_EXEC_EVALUATOR_H_
#define BORNSQL_EXEC_EVALUATOR_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "exec/chunk.h"
#include "types/value.h"

namespace bornsql::exec {

enum class BoundKind {
  kLiteral,
  kColumn,
  kUnary,
  kBinary,
  kCall,    // scalar function
  kCase,
  kIsNull,
  kInList,
  kInSet,   // subject IN <hashed constant set> (folded IN-subqueries)
  kParameter,  // unbound placeholder (bound without arguments); no value
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return Value::Compare(a, b) == 0;
  }
};

// The materialized right-hand side of a folded IN (SELECT ...).
struct ValueSet {
  std::unordered_set<Value, ValueHash, ValueEq> values;
  bool has_null = false;  // a NULL member makes misses evaluate to NULL
};

enum class ScalarFunc {
  kPow,
  kLn,
  kLog10,
  kExp,
  kSqrt,
  kAbs,
  kRound,
  kFloor,
  kCeil,
  kLower,
  kUpper,
  kLength,
  kSubstr,
  kCoalesce,
  kNullIf,
  kCast,  // second arg is a text literal: 'integer' | 'real' | 'text'
  kMod,
  kSign,
  kTrim,
  kReplace,
  kInstr,
};

// Maps a function name (case-insensitive) to its ScalarFunc, with arity
// validation. NotFound if the name is not a scalar function.
Result<ScalarFunc> LookupScalarFunc(const std::string& name, size_t arity);

// Re-using the parser's operator enums keeps binding a 1:1 lowering.
enum class BoundUnaryOp { kNegate, kNot, kPlus };
enum class BoundBinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNotEq, kLt, kLtEq, kGt, kGtEq,
  kAnd, kOr,
  kConcat,
  kLike,
};

struct BoundExpr;
using BoundExprPtr = std::unique_ptr<BoundExpr>;

struct BoundExpr {
  BoundKind kind = BoundKind::kLiteral;

  Value literal;                       // kLiteral
  size_t column_index = 0;             // kColumn
  BoundUnaryOp unary_op = BoundUnaryOp::kNegate;
  BoundBinaryOp binary_op = BoundBinaryOp::kAdd;
  ScalarFunc func = ScalarFunc::kPow;  // kCall
  std::vector<BoundExprPtr> children;  // operands / args / IN list items
  // kCase: children holds [when0, then0, when1, then1, ..., else?];
  // has_else marks the trailing else.
  bool has_else = false;
  bool negated = false;                // kIsNull / kInList / kInSet
  std::shared_ptr<const ValueSet> in_set;  // kInSet (subject = children[0])
};

BoundExprPtr BoundLiteral(Value v);
BoundExprPtr BoundColumn(size_t index);

// The one evaluator: computes `expr` for every row of `chunk`, writing
// exactly chunk.size() values into *out (cleared first). Column references
// index into the chunk's columns; a constant evaluates over a 1-row chunk
// with no columns. AND, OR, CASE, COALESCE and IN-lists evaluate a later
// operand only for the rows earlier operands left undecided, so only rows
// that row-at-a-time execution fails can fail. On an error the rows re-run
// one at a time and the first failing row reports, whatever the chunk size.
Status EvalChunk(const BoundExpr& expr, const DataChunk& chunk,
                 std::vector<Value>* out);

// EvalChunk without the output copy for bare column references: a
// kColumn expression returns a pointer to the chunk's own column; anything
// else evaluates into *scratch and returns scratch. The pointer is valid
// only while both `chunk` and `scratch` live and are not mutated.
Result<const std::vector<Value>*> EvalChunkRef(const BoundExpr& expr,
                                               const DataChunk& chunk,
                                               std::vector<Value>* scratch);

// Column views: (*cols[k])[i] is row i's value in column k.
using KeyColumnRefs = std::vector<const std::vector<Value>*>;

// An operator's expression list over a chunk, EvalChunkRef for each:
// (*cols[k])[i] = exprs[k] on row i, with bare column references aliasing
// the chunk's columns and the rest evaluated into (*scratch)[k]. A null
// entry (COUNT(*)'s argument) yields a null ref. On an error, and only
// then, the rows replay one at a time, each through the whole list in
// order, and the first failure reports: the error vector size 1 reports.
Status EvalExprs(const std::vector<const BoundExpr*>& exprs,
                 const DataChunk& chunk,
                 std::vector<std::vector<Value>>* scratch, KeyColumnRefs* cols);

// The raw pointers of `exprs`, for EvalExprs.
std::vector<const BoundExpr*> ExprList(const std::vector<BoundExprPtr>& exprs);

// SQL LIKE with % and _ wildcards (case-sensitive, no ESCAPE clause).
bool LikeMatch(const std::string& text, const std::string& pattern);

// True if the expression tree contains no kColumn nodes (safe to evaluate
// over a chunk with no columns).
bool IsConstExpr(const BoundExpr& expr);

}  // namespace bornsql::exec

#endif  // BORNSQL_EXEC_EVALUATOR_H_
