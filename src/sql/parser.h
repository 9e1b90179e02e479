// Recursive-descent parser for the BornSQL dialect.
#ifndef BORNSQL_SQL_PARSER_H_
#define BORNSQL_SQL_PARSER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace bornsql::sql {

// Parses a single statement (a trailing ';' is allowed).
Result<Statement> ParseStatement(std::string_view sql);

// Same, from an already-lexed token stream (must end with a kEof token).
// Lets callers that also need the raw tokens — e.g. for statement-text
// normalization — lex once instead of twice.
Result<Statement> ParseStatementTokens(std::vector<Token> tokens);

// One statement of a script: its AST and the range [begin, end) of the
// script's tokens it was parsed from (through its ';', or up to the final
// kEof).
struct ScriptStatement {
  Statement stmt;
  size_t begin = 0;
  size_t end = 0;
};

// Parses a ';'-separated script: lexes it once, splits the tokens on ';'
// (empty statements are dropped) and parses every statement before
// returning any, so a caller that runs them runs nothing from a script
// with a syntax error. Positions, those of parse errors too, are
// script-relative. `tokens`, if given, receives the script's tokens.
Result<std::vector<ScriptStatement>> ParseScript(
    std::string_view sql, std::vector<Token>* tokens = nullptr);

// Parses just an expression (used by tests).
Result<ExprPtr> ParseExpression(std::string_view sql);

}  // namespace bornsql::sql

#endif  // BORNSQL_SQL_PARSER_H_
