// Abstract syntax tree for the BornSQL dialect.
//
// Expressions use a single tagged struct rather than a class hierarchy: the
// dialect is small and the binder (engine/binder.cc) immediately lowers the
// AST into a bound, index-resolved form, so virtual dispatch would buy
// nothing here.
#ifndef BORNSQL_SQL_AST_H_
#define BORNSQL_SQL_AST_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "types/value.h"

namespace bornsql::sql {

struct Expr;
struct SelectStmt;
using ExprPtr = std::unique_ptr<Expr>;

// Source position of an AST node, carried from the token that started it.
// Programmatically built nodes (tests, query builders, planner rewrites)
// leave it invalid; diagnostics then omit the span.
struct SourceLoc {
  size_t offset = 0;
  size_t line = 0;  // 1-based; 0 => unknown
  size_t column = 0;
  bool valid() const { return line > 0; }
};

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kUnary,
  kBinary,
  kFunctionCall,  // scalar or aggregate; classified at bind time
  kWindow,        // <func>(...) OVER (PARTITION BY ... ORDER BY ...)
  kStar,          // bare * inside COUNT(*)
  kCase,          // CASE WHEN ... THEN ... [ELSE ...] END
  kIsNull,        // expr IS [NOT] NULL
  kInList,        // expr [NOT] IN (e1, e2, ...)
  kScalarSubquery,  // (SELECT ...) producing one value
  kInSubquery,      // expr [NOT] IN (SELECT ...)
  kExists,          // [NOT] EXISTS (SELECT ...)
  kInSet,           // planner-internal: expr [NOT] IN <materialized values>
  kParameter,       // ? or $n placeholder; only valid inside PREPAREd text
};

enum class UnaryOp { kNegate, kNot, kPlus };

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNotEq, kLt, kLtEq, kGt, kGtEq,
  kAnd, kOr,
  kConcat,
  kLike,
};

struct OrderItem;

struct Expr {
  ExprKind kind = ExprKind::kLiteral;
  SourceLoc loc;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string qualifier;  // optional table/alias
  std::string column;

  // kUnary (uses left), kBinary
  UnaryOp unary_op = UnaryOp::kNegate;
  BinaryOp binary_op = BinaryOp::kAdd;
  ExprPtr left;
  ExprPtr right;

  // kFunctionCall / kWindow
  std::string func_name;  // original spelling; matched case-insensitively
  std::vector<ExprPtr> args;
  // kWindow only:
  std::vector<ExprPtr> partition_by;
  std::vector<std::pair<ExprPtr, bool>> window_order_by;  // (expr, desc)

  // kCase
  std::vector<std::pair<ExprPtr, ExprPtr>> when_clauses;
  ExprPtr else_clause;

  // kIsNull / kInList / kInSubquery / kExists / kInSet
  bool negated = false;

  // kScalarSubquery / kInSubquery / kExists. Uncorrelated only: the
  // planner evaluates the subquery once and folds the result into the
  // expression (kInSubquery becomes kInSet).
  std::unique_ptr<SelectStmt> subquery;

  // kInSet: values materialized from an IN subquery.
  std::vector<Value> set_values;

  // kParameter: 1-based ordinal. `$n` carries n from the lexer; bare `?`
  // placeholders arrive as 0 and are assigned ordinals in source order by
  // engine::AssignParameterOrdinals before binding.
  size_t param_index = 0;
};

// Convenience constructors (used by tests and programmatic query builders).
ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string qualifier, std::string column);
ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeCall(std::string name, std::vector<ExprPtr> args);
ExprPtr CloneExpr(const Expr& e);

struct OrderItem {
  ExprPtr expr;
  bool desc = false;
};

struct SelectItem {
  // Either a star projection (optionally qualified: t.*) or an expression
  // with an optional alias.
  bool is_star = false;
  std::string star_qualifier;
  ExprPtr expr;
  std::string alias;
};

struct SelectStmt;

struct TableRef {
  SourceLoc loc;
  // Exactly one of table_name / subquery is set.
  std::string table_name;
  std::unique_ptr<SelectStmt> subquery;
  std::string alias;  // empty => table_name is the exposed qualifier

  // How this ref connects to the refs before it in the FROM clause.
  // kComma behaves as CROSS JOIN with predicates supplied via WHERE.
  enum class JoinKind { kFirst, kComma, kInner, kLeft, kCross };
  JoinKind join_kind = JoinKind::kFirst;
  ExprPtr join_condition;  // for kInner / kLeft (the ON clause)
};

// One SELECT core (everything except WITH / ORDER BY / LIMIT / UNION).
struct SelectCore {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;  // empty => SELECT of constants
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
};

struct CommonTableExpr {
  SourceLoc loc;
  std::string name;
  std::unique_ptr<SelectStmt> select;
};

struct SelectStmt {
  std::vector<CommonTableExpr> ctes;
  std::vector<SelectCore> cores;  // >1 => UNION ALL chain, in order
  std::vector<OrderItem> order_by;
  ExprPtr limit;
  ExprPtr offset;
};

std::unique_ptr<SelectStmt> CloneSelect(const SelectStmt& s);
SelectCore CloneCore(const SelectCore& core);

// ---- Statements ----------------------------------------------------------

struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kNull;  // kNull => dynamic
  bool primary_key = false;           // inline "PRIMARY KEY"
};

struct CreateTableStmt {
  std::string table;
  bool if_not_exists = false;
  bool temp = false;
  std::vector<ColumnDef> columns;          // empty when created AS SELECT
  std::vector<std::string> primary_key;    // table-level PRIMARY KEY(...)
  std::unique_ptr<SelectStmt> as_select;   // CREATE TABLE ... AS SELECT
};

struct DropTableStmt {
  std::string table;
  bool if_exists = false;
};

struct CreateIndexStmt {
  std::string name;
  std::string table;
  bool unique = false;
  std::vector<std::string> columns;
};

struct OnConflictClause {
  std::vector<std::string> target_columns;  // must match a unique constraint
  bool do_nothing = false;
  // DO UPDATE SET col = expr. Expressions may reference `excluded.<col>`
  // (the incoming row) and the target table's columns (the existing row).
  std::vector<std::pair<std::string, ExprPtr>> set_clauses;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;          // empty => table order
  std::vector<std::vector<ExprPtr>> values;  // literal rows, or
  std::unique_ptr<SelectStmt> select;        // INSERT ... SELECT
  std::unique_ptr<OnConflictClause> on_conflict;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> set_clauses;
  ExprPtr where;
  SourceLoc loc;  // position of the UPDATE keyword
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;
  SourceLoc loc;  // position of the DELETE keyword
};

// SET <name> = <expr>: a dotted setting name (e.g. born.slow_query_ms) and
// a constant value expression, evaluated at execution time.
struct SetStmt {
  std::string name;  // dot-joined, lower-cased by the parser
  ExprPtr value;
};

struct Statement;

// PREPARE <name> AS <stmt>: names a parameterized statement for later
// EXECUTE. The body may contain kParameter placeholders; only SELECT /
// INSERT / UPDATE / DELETE bodies are accepted (the parser enforces this).
struct PrepareStmt {
  SourceLoc loc;
  std::string name;
  std::unique_ptr<Statement> body;
  SourceLoc body_loc;  // first token of the body, for slicing source text
};

// EXECUTE <name>(arg, ...): runs a prepared statement with constant
// arguments bound to its placeholders in ordinal order.
struct ExecuteStmt {
  SourceLoc loc;
  std::string name;
  std::vector<ExprPtr> args;  // constant expressions, evaluated at execute
};

// DEALLOCATE <name> | DEALLOCATE ALL.
struct DeallocateStmt {
  SourceLoc loc;
  std::string name;  // empty => ALL
};

enum class StatementKind {
  kSelect,
  kExplain,  // EXPLAIN [ANALYZE|VERIFY|LINT|LOGICAL] <stmt>: `explained` + flags
  kCreateTable,
  kDropTable,
  kCreateIndex,
  kInsert,
  kUpdate,
  kDelete,
  kSet,
  kPrepare,
  kExecute,
  kDeallocate,
};

struct Statement {
  StatementKind kind;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<DropTableStmt> drop_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<SetStmt> set;
  std::unique_ptr<PrepareStmt> prepare;
  std::unique_ptr<ExecuteStmt> execute;
  std::unique_ptr<DeallocateStmt> deallocate;

  // kExplain: the wrapped statement (any kind except kExplain itself) and
  // which mode was requested: ANALYZE (execute + per-operator stats),
  // VERIFY (plan-invariant check, src/lint/plan_verifier.h) or LINT
  // (static SQL diagnostics, src/lint/linter.h). At most one is set.
  std::unique_ptr<Statement> explained;
  bool explain_analyze = false;
  bool explain_verify = false;
  bool explain_lint = false;
  bool explain_logical = false;
};

}  // namespace bornsql::sql

#endif  // BORNSQL_SQL_AST_H_
