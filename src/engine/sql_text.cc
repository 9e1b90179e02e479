#include "engine/sql_text.h"

namespace bornsql::engine {

namespace {

// Spelling of one token in normalized output ("?" for literals).
std::string TokenSpelling(const sql::Token& t) {
  switch (t.type) {
    case sql::TokenType::kIdentifier:
    case sql::TokenType::kKeyword:
      return t.text;
    case sql::TokenType::kIntLiteral:
    case sql::TokenType::kDoubleLiteral:
    case sql::TokenType::kStringLiteral:
      return "?";
    case sql::TokenType::kParameter:
      // Keep the spelled form: "$1 AND $1" and "? AND ?" bind differently,
      // so they must not share a normalized key. A bare '?' keeps '?',
      // which also lets auto-parameterized ad-hoc text share cache entries
      // with the equivalent PREPAREd statement.
      return t.text;
    case sql::TokenType::kLParen: return "(";
    case sql::TokenType::kRParen: return ")";
    case sql::TokenType::kComma: return ",";
    case sql::TokenType::kDot: return ".";
    case sql::TokenType::kStar: return "*";
    case sql::TokenType::kPlus: return "+";
    case sql::TokenType::kMinus: return "-";
    case sql::TokenType::kSlash: return "/";
    case sql::TokenType::kPercent: return "%";
    case sql::TokenType::kEq: return "=";
    case sql::TokenType::kNotEq: return "<>";
    case sql::TokenType::kLt: return "<";
    case sql::TokenType::kLtEq: return "<=";
    case sql::TokenType::kGt: return ">";
    case sql::TokenType::kGtEq: return ">=";
    case sql::TokenType::kConcat: return "||";
    case sql::TokenType::kSemicolon:
    case sql::TokenType::kEof:
      return "";
  }
  return "";
}

bool NoSpaceBefore(sql::TokenType t) {
  return t == sql::TokenType::kComma || t == sql::TokenType::kRParen ||
         t == sql::TokenType::kDot;
}

bool NoSpaceAfter(sql::TokenType t) {
  return t == sql::TokenType::kLParen || t == sql::TokenType::kDot;
}

}  // namespace

std::string NormalizeTokens(const std::vector<sql::Token>& tokens,
                            size_t begin, size_t end) {
  std::string out;
  sql::TokenType prev = sql::TokenType::kEof;
  bool first = true;
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    const sql::Token& t = tokens[i];
    std::string spelling = TokenSpelling(t);
    if (spelling.empty()) continue;
    if (!first && !NoSpaceBefore(t.type) && !NoSpaceAfter(prev)) {
      out += ' ';
    }
    out += spelling;
    prev = t.type;
    first = false;
  }
  return out;
}

}  // namespace bornsql::engine
