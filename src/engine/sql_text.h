// Statement-text normalization for born_stat_statements.
//
// Executions are aggregated per normalized statement, pg_stat_statements
// style: literals are replaced by '?', whitespace/comments collapse (they
// never reach the token stream), and keywords keep the lexer's upper-case
// spelling. Two executions of "select 1" and "SELECT   2;" therefore share
// the key "SELECT ?".
//
// Lives in the engine layer (not obs) because it needs the SQL lexer, and
// the obs library deliberately depends only on common.
#ifndef BORNSQL_ENGINE_SQL_TEXT_H_
#define BORNSQL_ENGINE_SQL_TEXT_H_

#include <string>
#include <vector>

#include "sql/token.h"

namespace bornsql::engine {

// Renders tokens[begin, end) as normalized statement text. Skips semicolons
// and EOF; literals become '?'.
std::string NormalizeTokens(const std::vector<sql::Token>& tokens,
                            size_t begin, size_t end);

}  // namespace bornsql::engine

#endif  // BORNSQL_ENGINE_SQL_TEXT_H_
