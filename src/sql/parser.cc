#include "sql/parser.h"

#include <cassert>
#include <span>

#include "common/strings.h"
#include "sql/lexer.h"

namespace bornsql::sql {
namespace {

class Parser {
 public:
  // Parses `tokens`; reading past their end yields `eof`, so a script's
  // statements parse in place out of the script's one token stream.
  Parser(std::span<const Token> tokens, const Token& eof)
      : tokens_(tokens), eof_(eof) {}

  Result<Statement> Single() {
    while (Match(TokenType::kSemicolon)) {}
    BORNSQL_ASSIGN_OR_RETURN(Statement stmt, StatementRule());
    while (Match(TokenType::kSemicolon)) {}
    if (!AtEnd()) return Error("unexpected trailing input");
    return stmt;
  }

  Result<ExprPtr> SingleExpression() {
    BORNSQL_ASSIGN_OR_RETURN(ExprPtr e, Expression());
    if (!AtEnd()) return Error("unexpected trailing input");
    return e;
  }

 private:
  // ---- token plumbing ----
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : eof_;
  }
  bool AtEnd() const { return Peek().type == TokenType::kEof; }
  const Token& Advance() {
    const Token& t = Peek();
    ++pos_;
    return t;
  }

  bool Check(TokenType t) const { return Peek().type == t; }
  bool CheckKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kKeyword && EqualsIgnoreCase(t.text, kw);
  }
  bool Match(TokenType t) {
    if (!Check(t)) return false;
    Advance();
    return true;
  }
  bool MatchKeyword(std::string_view kw) {
    if (!CheckKeyword(kw)) return false;
    Advance();
    return true;
  }
  Status Expect(TokenType t) {
    if (Match(t)) return Status::OK();
    return Error(StrFormat("expected %s, found %s", TokenTypeName(t),
                           Describe(Peek()).c_str()));
  }
  Status ExpectKeyword(std::string_view kw) {
    if (MatchKeyword(kw)) return Status::OK();
    return Error(StrFormat("expected %.*s, found %s",
                           static_cast<int>(kw.size()), kw.data(),
                           Describe(Peek()).c_str()));
  }
  static std::string Describe(const Token& t) {
    if (t.type == TokenType::kKeyword || t.type == TokenType::kIdentifier) {
      return "'" + t.text + "'";
    }
    return TokenTypeName(t.type);
  }
  Status Error(std::string msg) const {
    const Token& t = Peek();
    return Status::ParseError(StrFormat("%s (at line %zu:%zu)", msg.c_str(),
                                        t.line, t.column));
  }

  // Source location of the next token, for stamping AST nodes.
  SourceLoc Loc() const {
    const Token& t = Peek();
    return SourceLoc{t.offset, t.line, t.column};
  }

  // VERIFY/LINT/LOGICAL are deliberately not keywords (they stay usable as
  // table or column names); EXPLAIN matches them as bare identifiers instead.
  bool CheckIdent(std::string_view word, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier && EqualsIgnoreCase(t.text, word);
  }
  bool MatchIdent(std::string_view word) {
    if (!CheckIdent(word)) return false;
    Advance();
    return true;
  }

  Result<std::string> Identifier(const char* what) {
    if (Check(TokenType::kIdentifier)) return Advance().text;
    return Error(StrFormat("expected %s, found %s", what,
                           Describe(Peek()).c_str()));
  }

  // ---- statements ----
  Result<Statement> StatementRule() {
    if (CheckKeyword("SELECT") || CheckKeyword("WITH")) {
      BORNSQL_ASSIGN_OR_RETURN(auto sel, SelectStatement());
      Statement st;
      st.kind = StatementKind::kSelect;
      st.select = std::move(sel);
      return st;
    }
    if (MatchKeyword("EXPLAIN")) {
      Statement st;
      st.kind = StatementKind::kExplain;
      if (MatchKeyword("ANALYZE")) {
        st.explain_analyze = true;
      } else if (MatchIdent("VERIFY")) {
        st.explain_verify = true;
      } else if (MatchIdent("LINT")) {
        st.explain_lint = true;
      } else if (MatchIdent("LOGICAL")) {
        st.explain_logical = true;
      }
      if (CheckKeyword("EXPLAIN")) return Error("cannot EXPLAIN an EXPLAIN");
      BORNSQL_ASSIGN_OR_RETURN(Statement inner, StatementRule());
      st.explained = std::make_unique<Statement>(std::move(inner));
      return st;
    }
    if (CheckKeyword("CREATE")) return CreateStatement();
    if (CheckKeyword("DROP")) return DropStatement();
    if (CheckKeyword("INSERT")) return InsertStatement();
    if (CheckKeyword("UPDATE")) return UpdateStatement();
    if (CheckKeyword("DELETE")) return DeleteStatement();
    if (CheckKeyword("SET")) return SetStatement();
    // PREPARE / EXECUTE / DEALLOCATE are contextual (not keywords, so they
    // stay usable as table or column names); no other statement starts with
    // a bare identifier, so the word position disambiguates.
    if (CheckIdent("PREPARE")) return PrepareStatement();
    if (CheckIdent("EXECUTE")) return ExecuteStatement();
    if (CheckIdent("DEALLOCATE")) return DeallocateStatement();
    return Error("expected a statement");
  }

  // PREPARE <name> AS <select|insert|update|delete>
  Result<Statement> PrepareStatement() {
    SourceLoc loc = Loc();
    Advance();  // PREPARE
    auto stmt = std::make_unique<PrepareStmt>();
    stmt->loc = loc;
    BORNSQL_ASSIGN_OR_RETURN(stmt->name, Identifier("prepared statement name"));
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("AS"));
    stmt->body_loc = Loc();
    BORNSQL_ASSIGN_OR_RETURN(Statement body, StatementRule());
    switch (body.kind) {
      case StatementKind::kSelect:
      case StatementKind::kInsert:
      case StatementKind::kUpdate:
      case StatementKind::kDelete:
        break;
      default:
        return Error(
            "PREPARE body must be SELECT, INSERT, UPDATE or DELETE");
    }
    stmt->body = std::make_unique<Statement>(std::move(body));
    Statement st;
    st.kind = StatementKind::kPrepare;
    st.prepare = std::move(stmt);
    return st;
  }

  // EXECUTE <name> [ ( expr, ... ) ]
  Result<Statement> ExecuteStatement() {
    SourceLoc loc = Loc();
    Advance();  // EXECUTE
    auto stmt = std::make_unique<ExecuteStmt>();
    stmt->loc = loc;
    BORNSQL_ASSIGN_OR_RETURN(stmt->name, Identifier("prepared statement name"));
    if (Match(TokenType::kLParen)) {
      if (!Match(TokenType::kRParen)) {
        do {
          BORNSQL_ASSIGN_OR_RETURN(ExprPtr arg, Expression());
          stmt->args.push_back(std::move(arg));
        } while (Match(TokenType::kComma));
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      }
    }
    Statement st;
    st.kind = StatementKind::kExecute;
    st.execute = std::move(stmt);
    return st;
  }

  // DEALLOCATE <name> | DEALLOCATE ALL
  Result<Statement> DeallocateStatement() {
    SourceLoc loc = Loc();
    Advance();  // DEALLOCATE
    auto stmt = std::make_unique<DeallocateStmt>();
    stmt->loc = loc;
    if (MatchKeyword("ALL")) {
      stmt->name.clear();
    } else {
      BORNSQL_ASSIGN_OR_RETURN(stmt->name,
                               Identifier("prepared statement name"));
    }
    Statement st;
    st.kind = StatementKind::kDeallocate;
    st.deallocate = std::move(stmt);
    return st;
  }

  // SET <name>[.<name>...] = <expr>
  Result<Statement> SetStatement() {
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("SET"));
    auto stmt = std::make_unique<SetStmt>();
    BORNSQL_ASSIGN_OR_RETURN(std::string part, Identifier("setting name"));
    stmt->name = AsciiToLower(part);
    while (Match(TokenType::kDot)) {
      BORNSQL_ASSIGN_OR_RETURN(part, Identifier("setting name"));
      stmt->name += '.';
      stmt->name += AsciiToLower(part);
    }
    BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kEq));
    BORNSQL_ASSIGN_OR_RETURN(stmt->value, Expression());
    Statement st;
    st.kind = StatementKind::kSet;
    st.set = std::move(stmt);
    return st;
  }

  Result<Statement> CreateStatement() {
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    bool temp = MatchKeyword("TEMP") || MatchKeyword("TEMPORARY");
    bool unique = MatchKeyword("UNIQUE");
    if (MatchKeyword("INDEX")) {
      if (temp) return Error("TEMP INDEX is not supported");
      auto stmt = std::make_unique<CreateIndexStmt>();
      stmt->unique = unique;
      BORNSQL_ASSIGN_OR_RETURN(stmt->name, Identifier("index name"));
      BORNSQL_RETURN_IF_ERROR(ExpectKeyword("ON"));
      BORNSQL_ASSIGN_OR_RETURN(stmt->table, Identifier("table name"));
      BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      do {
        BORNSQL_ASSIGN_OR_RETURN(std::string col, Identifier("column name"));
        stmt->columns.push_back(std::move(col));
      } while (Match(TokenType::kComma));
      BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      Statement st;
      st.kind = StatementKind::kCreateIndex;
      st.create_index = std::move(stmt);
      return st;
    }
    if (unique) return Error("expected INDEX after UNIQUE");
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<CreateTableStmt>();
    stmt->temp = temp;
    if (MatchKeyword("IF")) {
      BORNSQL_RETURN_IF_ERROR(ExpectKeyword("NOT"));
      BORNSQL_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      stmt->if_not_exists = true;
    }
    BORNSQL_ASSIGN_OR_RETURN(stmt->table, Identifier("table name"));
    if (MatchKeyword("AS")) {
      BORNSQL_ASSIGN_OR_RETURN(stmt->as_select, SelectStatement());
    } else {
      BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      do {
        if (CheckKeyword("PRIMARY")) {
          Advance();
          BORNSQL_RETURN_IF_ERROR(ExpectKeyword("KEY"));
          BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
          do {
            BORNSQL_ASSIGN_OR_RETURN(std::string col,
                                     Identifier("column name"));
            stmt->primary_key.push_back(std::move(col));
          } while (Match(TokenType::kComma));
          BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
          continue;
        }
        ColumnDef def;
        BORNSQL_ASSIGN_OR_RETURN(def.name, Identifier("column name"));
        // Optional type.
        if (Check(TokenType::kIdentifier)) {
          const std::string& ty = Peek().text;
          if (EqualsIgnoreCase(ty, "INTEGER") || EqualsIgnoreCase(ty, "INT") ||
              EqualsIgnoreCase(ty, "BIGINT")) {
            def.type = ValueType::kInt;
            Advance();
          } else if (EqualsIgnoreCase(ty, "REAL") ||
                     EqualsIgnoreCase(ty, "DOUBLE") ||
                     EqualsIgnoreCase(ty, "FLOAT") ||
                     EqualsIgnoreCase(ty, "NUMERIC")) {
            def.type = ValueType::kDouble;
            Advance();
            if (EqualsIgnoreCase(ty, "DOUBLE") &&
                Check(TokenType::kIdentifier) &&
                EqualsIgnoreCase(Peek().text, "PRECISION")) {
              Advance();
            }
          } else if (EqualsIgnoreCase(ty, "TEXT") ||
                     EqualsIgnoreCase(ty, "VARCHAR") ||
                     EqualsIgnoreCase(ty, "CHAR") ||
                     EqualsIgnoreCase(ty, "CLOB")) {
            def.type = ValueType::kText;
            Advance();
            if (Match(TokenType::kLParen)) {  // VARCHAR(n): length ignored
              BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kIntLiteral));
              BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
            }
          }
        }
        if (MatchKeyword("PRIMARY")) {
          BORNSQL_RETURN_IF_ERROR(ExpectKeyword("KEY"));
          def.primary_key = true;
        }
        if (MatchKeyword("NOT")) {  // NOT NULL accepted, not enforced
          BORNSQL_RETURN_IF_ERROR(ExpectKeyword("NULL"));
        }
        stmt->columns.push_back(std::move(def));
      } while (Match(TokenType::kComma));
      BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    }
    Statement st;
    st.kind = StatementKind::kCreateTable;
    st.create_table = std::move(stmt);
    return st;
  }

  Result<Statement> DropStatement() {
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("DROP"));
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<DropTableStmt>();
    if (MatchKeyword("IF")) {
      BORNSQL_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      stmt->if_exists = true;
    }
    BORNSQL_ASSIGN_OR_RETURN(stmt->table, Identifier("table name"));
    Statement st;
    st.kind = StatementKind::kDropTable;
    st.drop_table = std::move(stmt);
    return st;
  }

  Result<Statement> InsertStatement() {
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<InsertStmt>();
    BORNSQL_ASSIGN_OR_RETURN(stmt->table, Identifier("table name"));
    if (Match(TokenType::kLParen)) {
      do {
        BORNSQL_ASSIGN_OR_RETURN(std::string col, Identifier("column name"));
        stmt->columns.push_back(std::move(col));
      } while (Match(TokenType::kComma));
      BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    }
    if (MatchKeyword("VALUES")) {
      do {
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
        std::vector<ExprPtr> row;
        do {
          BORNSQL_ASSIGN_OR_RETURN(ExprPtr e, Expression());
          row.push_back(std::move(e));
        } while (Match(TokenType::kComma));
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        stmt->values.push_back(std::move(row));
      } while (Match(TokenType::kComma));
    } else if (CheckKeyword("SELECT") || CheckKeyword("WITH")) {
      BORNSQL_ASSIGN_OR_RETURN(stmt->select, SelectStatement());
    } else {
      return Error("expected VALUES or SELECT in INSERT");
    }
    if (MatchKeyword("ON")) {
      BORNSQL_RETURN_IF_ERROR(ExpectKeyword("CONFLICT"));
      auto conflict = std::make_unique<OnConflictClause>();
      BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      do {
        BORNSQL_ASSIGN_OR_RETURN(std::string col, Identifier("column name"));
        conflict->target_columns.push_back(std::move(col));
      } while (Match(TokenType::kComma));
      BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      BORNSQL_RETURN_IF_ERROR(ExpectKeyword("DO"));
      if (MatchKeyword("NOTHING")) {
        conflict->do_nothing = true;
      } else {
        BORNSQL_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
        BORNSQL_RETURN_IF_ERROR(ExpectKeyword("SET"));
        do {
          BORNSQL_ASSIGN_OR_RETURN(std::string col, Identifier("column name"));
          BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kEq));
          BORNSQL_ASSIGN_OR_RETURN(ExprPtr e, Expression());
          conflict->set_clauses.emplace_back(std::move(col), std::move(e));
        } while (Match(TokenType::kComma));
      }
      stmt->on_conflict = std::move(conflict);
    }
    Statement st;
    st.kind = StatementKind::kInsert;
    st.insert = std::move(stmt);
    return st;
  }

  Result<Statement> UpdateStatement() {
    SourceLoc loc = Loc();
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    auto stmt = std::make_unique<UpdateStmt>();
    stmt->loc = loc;
    BORNSQL_ASSIGN_OR_RETURN(stmt->table, Identifier("table name"));
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("SET"));
    do {
      BORNSQL_ASSIGN_OR_RETURN(std::string col, Identifier("column name"));
      BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kEq));
      BORNSQL_ASSIGN_OR_RETURN(ExprPtr e, Expression());
      stmt->set_clauses.emplace_back(std::move(col), std::move(e));
    } while (Match(TokenType::kComma));
    if (MatchKeyword("WHERE")) {
      BORNSQL_ASSIGN_OR_RETURN(stmt->where, Expression());
    }
    Statement st;
    st.kind = StatementKind::kUpdate;
    st.update = std::move(stmt);
    return st;
  }

  Result<Statement> DeleteStatement() {
    SourceLoc loc = Loc();
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<DeleteStmt>();
    stmt->loc = loc;
    BORNSQL_ASSIGN_OR_RETURN(stmt->table, Identifier("table name"));
    if (MatchKeyword("WHERE")) {
      BORNSQL_ASSIGN_OR_RETURN(stmt->where, Expression());
    }
    Statement st;
    st.kind = StatementKind::kDelete;
    st.del = std::move(stmt);
    return st;
  }

  // ---- SELECT ----
  Result<std::unique_ptr<SelectStmt>> SelectStatement() {
    auto stmt = std::make_unique<SelectStmt>();
    if (MatchKeyword("WITH")) {
      do {
        CommonTableExpr cte;
        cte.loc = Loc();
        BORNSQL_ASSIGN_OR_RETURN(cte.name, Identifier("CTE name"));
        BORNSQL_RETURN_IF_ERROR(ExpectKeyword("AS"));
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
        BORNSQL_ASSIGN_OR_RETURN(cte.select, SelectStatement());
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        stmt->ctes.push_back(std::move(cte));
      } while (Match(TokenType::kComma));
    }
    BORNSQL_ASSIGN_OR_RETURN(SelectCore core, SelectCoreRule());
    stmt->cores.push_back(std::move(core));
    while (CheckKeyword("UNION")) {
      Advance();
      if (!MatchKeyword("ALL")) {
        return Error("only UNION ALL is supported (UNION DISTINCT is not)");
      }
      BORNSQL_ASSIGN_OR_RETURN(SelectCore next, SelectCoreRule());
      stmt->cores.push_back(std::move(next));
    }
    if (MatchKeyword("ORDER")) {
      BORNSQL_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        OrderItem item;
        BORNSQL_ASSIGN_OR_RETURN(item.expr, Expression());
        if (MatchKeyword("DESC")) {
          item.desc = true;
        } else {
          MatchKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
      } while (Match(TokenType::kComma));
    }
    if (MatchKeyword("LIMIT")) {
      BORNSQL_ASSIGN_OR_RETURN(stmt->limit, Expression());
      if (MatchKeyword("OFFSET")) {
        BORNSQL_ASSIGN_OR_RETURN(stmt->offset, Expression());
      }
    }
    return stmt;
  }

  Result<SelectCore> SelectCoreRule() {
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    SelectCore core;
    if (MatchKeyword("DISTINCT")) {
      core.distinct = true;
    } else {
      MatchKeyword("ALL");
    }
    do {
      SelectItem item;
      if (Match(TokenType::kStar)) {
        item.is_star = true;
      } else if (Check(TokenType::kIdentifier) &&
                 Peek(1).type == TokenType::kDot &&
                 Peek(2).type == TokenType::kStar) {
        item.is_star = true;
        item.star_qualifier = Advance().text;
        Advance();  // '.'
        Advance();  // '*'
      } else {
        BORNSQL_ASSIGN_OR_RETURN(item.expr, Expression());
        if (MatchKeyword("AS")) {
          BORNSQL_ASSIGN_OR_RETURN(item.alias, Identifier("column alias"));
        } else if (Check(TokenType::kIdentifier)) {
          item.alias = Advance().text;
        }
      }
      core.items.push_back(std::move(item));
    } while (Match(TokenType::kComma));

    if (MatchKeyword("FROM")) {
      BORNSQL_ASSIGN_OR_RETURN(TableRef first, TableRefRule());
      first.join_kind = TableRef::JoinKind::kFirst;
      core.from.push_back(std::move(first));
      while (true) {
        if (Match(TokenType::kComma)) {
          BORNSQL_ASSIGN_OR_RETURN(TableRef ref, TableRefRule());
          ref.join_kind = TableRef::JoinKind::kComma;
          core.from.push_back(std::move(ref));
          continue;
        }
        if (CheckKeyword("CROSS")) {
          Advance();
          BORNSQL_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
          BORNSQL_ASSIGN_OR_RETURN(TableRef ref, TableRefRule());
          ref.join_kind = TableRef::JoinKind::kCross;
          core.from.push_back(std::move(ref));
          continue;
        }
        if (CheckKeyword("INNER") || CheckKeyword("JOIN") ||
            CheckKeyword("LEFT")) {
          TableRef::JoinKind kind = TableRef::JoinKind::kInner;
          if (MatchKeyword("LEFT")) {
            // Accept optional OUTER (not a keyword in this dialect, so it
            // arrives as an identifier).
            if (Check(TokenType::kIdentifier) &&
                EqualsIgnoreCase(Peek().text, "OUTER")) {
              Advance();
            }
            kind = TableRef::JoinKind::kLeft;
          } else {
            MatchKeyword("INNER");
          }
          BORNSQL_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
          BORNSQL_ASSIGN_OR_RETURN(TableRef ref, TableRefRule());
          ref.join_kind = kind;
          BORNSQL_RETURN_IF_ERROR(ExpectKeyword("ON"));
          BORNSQL_ASSIGN_OR_RETURN(ref.join_condition, Expression());
          core.from.push_back(std::move(ref));
          continue;
        }
        break;
      }
    }
    if (MatchKeyword("WHERE")) {
      BORNSQL_ASSIGN_OR_RETURN(core.where, Expression());
    }
    if (MatchKeyword("GROUP")) {
      BORNSQL_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        BORNSQL_ASSIGN_OR_RETURN(ExprPtr e, Expression());
        core.group_by.push_back(std::move(e));
      } while (Match(TokenType::kComma));
    }
    if (MatchKeyword("HAVING")) {
      BORNSQL_ASSIGN_OR_RETURN(core.having, Expression());
    }
    return core;
  }

  Result<TableRef> TableRefRule() {
    TableRef ref;
    ref.loc = Loc();
    if (Match(TokenType::kLParen)) {
      BORNSQL_ASSIGN_OR_RETURN(ref.subquery, SelectStatement());
      BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      if (MatchKeyword("AS")) {
        BORNSQL_ASSIGN_OR_RETURN(ref.alias, Identifier("table alias"));
      } else if (Check(TokenType::kIdentifier)) {
        ref.alias = Advance().text;
      } else {
        return Error("derived table requires an alias");
      }
      return ref;
    }
    BORNSQL_ASSIGN_OR_RETURN(ref.table_name, Identifier("table name"));
    if (MatchKeyword("AS")) {
      BORNSQL_ASSIGN_OR_RETURN(ref.alias, Identifier("table alias"));
    } else if (Check(TokenType::kIdentifier)) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  // ---- expressions (precedence climbing) ----
  // Compound nodes (binary/unary) inherit the location of their first
  // token, so a diagnostic about `a + 1 > b` points at `a`.
  Result<ExprPtr> Expression() { return OrExpr(); }

  Result<ExprPtr> OrExpr() {
    const SourceLoc start = Loc();
    BORNSQL_ASSIGN_OR_RETURN(ExprPtr left, AndExpr());
    while (MatchKeyword("OR")) {
      BORNSQL_ASSIGN_OR_RETURN(ExprPtr right, AndExpr());
      left = MakeBinary(BinaryOp::kOr, std::move(left), std::move(right));
      left->loc = start;
    }
    return left;
  }

  Result<ExprPtr> AndExpr() {
    const SourceLoc start = Loc();
    BORNSQL_ASSIGN_OR_RETURN(ExprPtr left, NotExpr());
    while (MatchKeyword("AND")) {
      BORNSQL_ASSIGN_OR_RETURN(ExprPtr right, NotExpr());
      left = MakeBinary(BinaryOp::kAnd, std::move(left), std::move(right));
      left->loc = start;
    }
    return left;
  }

  Result<ExprPtr> NotExpr() {
    const SourceLoc start = Loc();
    if (MatchKeyword("NOT")) {
      BORNSQL_ASSIGN_OR_RETURN(ExprPtr inner, NotExpr());
      ExprPtr e = MakeUnary(UnaryOp::kNot, std::move(inner));
      e->loc = start;
      return e;
    }
    return Comparison();
  }

  Result<ExprPtr> Comparison() {
    const SourceLoc start = Loc();
    BORNSQL_ASSIGN_OR_RETURN(ExprPtr left, Additive());
    while (true) {
      if (MatchKeyword("IS")) {
        bool negated = MatchKeyword("NOT");
        BORNSQL_RETURN_IF_ERROR(ExpectKeyword("NULL"));
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kIsNull;
        e->loc = start;
        e->left = std::move(left);
        e->negated = negated;
        left = std::move(e);
        continue;
      }
      bool negated_in = false;
      if (CheckKeyword("NOT") && CheckKeyword("IN", 1)) {
        Advance();
        negated_in = true;
      }
      if (MatchKeyword("IN")) {
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
        if (CheckKeyword("SELECT") || CheckKeyword("WITH")) {
          auto sub = std::make_unique<Expr>();
          sub->kind = ExprKind::kInSubquery;
          sub->loc = start;
          sub->left = std::move(left);
          sub->negated = negated_in;
          BORNSQL_ASSIGN_OR_RETURN(sub->subquery, SelectStatement());
          BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
          left = std::move(sub);
          continue;
        }
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kInList;
        e->loc = start;
        e->left = std::move(left);
        e->negated = negated_in;
        do {
          BORNSQL_ASSIGN_OR_RETURN(ExprPtr item, Expression());
          e->args.push_back(std::move(item));
        } while (Match(TokenType::kComma));
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        left = std::move(e);
        continue;
      }
      bool negated_between = false;
      if (CheckKeyword("NOT") && CheckKeyword("BETWEEN", 1)) {
        Advance();
        negated_between = true;
      }
      if (MatchKeyword("BETWEEN")) {
        BORNSQL_ASSIGN_OR_RETURN(ExprPtr lo, Additive());
        BORNSQL_RETURN_IF_ERROR(ExpectKeyword("AND"));
        BORNSQL_ASSIGN_OR_RETURN(ExprPtr hi, Additive());
        // Desugar: (left >= lo AND left <= hi), negated if requested.
        ExprPtr copy = CloneExpr(*left);
        ExprPtr both = MakeBinary(
            BinaryOp::kAnd,
            MakeBinary(BinaryOp::kGtEq, std::move(left), std::move(lo)),
            MakeBinary(BinaryOp::kLtEq, std::move(copy), std::move(hi)));
        left = negated_between ? MakeUnary(UnaryOp::kNot, std::move(both))
                               : std::move(both);
        left->loc = start;
        continue;
      }
      bool negated_like = false;
      if (CheckKeyword("NOT") && CheckKeyword("LIKE", 1)) {
        Advance();
        negated_like = true;
      }
      if (MatchKeyword("LIKE")) {
        BORNSQL_ASSIGN_OR_RETURN(ExprPtr pattern, Additive());
        ExprPtr like =
            MakeBinary(BinaryOp::kLike, std::move(left), std::move(pattern));
        left = negated_like ? MakeUnary(UnaryOp::kNot, std::move(like))
                            : std::move(like);
        left->loc = start;
        continue;
      }
      BinaryOp op;
      if (Match(TokenType::kEq)) {
        op = BinaryOp::kEq;
      } else if (Match(TokenType::kNotEq)) {
        op = BinaryOp::kNotEq;
      } else if (Match(TokenType::kLtEq)) {
        op = BinaryOp::kLtEq;
      } else if (Match(TokenType::kLt)) {
        op = BinaryOp::kLt;
      } else if (Match(TokenType::kGtEq)) {
        op = BinaryOp::kGtEq;
      } else if (Match(TokenType::kGt)) {
        op = BinaryOp::kGt;
      } else {
        break;
      }
      BORNSQL_ASSIGN_OR_RETURN(ExprPtr right, Additive());
      left = MakeBinary(op, std::move(left), std::move(right));
      left->loc = start;
    }
    return left;
  }

  Result<ExprPtr> Additive() {
    const SourceLoc start = Loc();
    BORNSQL_ASSIGN_OR_RETURN(ExprPtr left, Multiplicative());
    while (true) {
      BinaryOp op;
      if (Match(TokenType::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Match(TokenType::kMinus)) {
        op = BinaryOp::kSub;
      } else if (Match(TokenType::kConcat)) {
        op = BinaryOp::kConcat;
      } else {
        break;
      }
      BORNSQL_ASSIGN_OR_RETURN(ExprPtr right, Multiplicative());
      left = MakeBinary(op, std::move(left), std::move(right));
      left->loc = start;
    }
    return left;
  }

  Result<ExprPtr> Multiplicative() {
    const SourceLoc start = Loc();
    BORNSQL_ASSIGN_OR_RETURN(ExprPtr left, Unary());
    while (true) {
      BinaryOp op;
      if (Match(TokenType::kStar)) {
        op = BinaryOp::kMul;
      } else if (Match(TokenType::kSlash)) {
        op = BinaryOp::kDiv;
      } else if (Match(TokenType::kPercent)) {
        op = BinaryOp::kMod;
      } else {
        break;
      }
      BORNSQL_ASSIGN_OR_RETURN(ExprPtr right, Unary());
      left = MakeBinary(op, std::move(left), std::move(right));
      left->loc = start;
    }
    return left;
  }

  Result<ExprPtr> Unary() {
    const SourceLoc start = Loc();
    if (Match(TokenType::kMinus)) {
      BORNSQL_ASSIGN_OR_RETURN(ExprPtr inner, Unary());
      ExprPtr e = MakeUnary(UnaryOp::kNegate, std::move(inner));
      e->loc = start;
      return e;
    }
    if (Match(TokenType::kPlus)) {
      BORNSQL_ASSIGN_OR_RETURN(ExprPtr inner, Unary());
      ExprPtr e = MakeUnary(UnaryOp::kPlus, std::move(inner));
      e->loc = start;
      return e;
    }
    return Primary();
  }

  Result<ExprPtr> Primary() {
    const Token& t = Peek();
    const SourceLoc at{t.offset, t.line, t.column};
    auto with_loc = [&at](ExprPtr e) {
      e->loc = at;
      return e;
    };
    switch (t.type) {
      case TokenType::kIntLiteral:
        Advance();
        return with_loc(MakeLiteral(Value::Int(t.int_value)));
      case TokenType::kDoubleLiteral:
        Advance();
        return with_loc(MakeLiteral(Value::Double(t.double_value)));
      case TokenType::kStringLiteral:
        Advance();
        return with_loc(MakeLiteral(Value::Text(t.text)));
      case TokenType::kParameter: {
        Advance();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kParameter;
        e->param_index = static_cast<size_t>(t.int_value);  // 0 for bare '?'
        return with_loc(std::move(e));
      }
      case TokenType::kLParen: {
        Advance();
        if (CheckKeyword("SELECT") || CheckKeyword("WITH")) {
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kScalarSubquery;
          e->loc = at;
          BORNSQL_ASSIGN_OR_RETURN(e->subquery, SelectStatement());
          BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
          ExprPtr out = std::move(e);
          return out;
        }
        BORNSQL_ASSIGN_OR_RETURN(ExprPtr inner, Expression());
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        return inner;
      }
      case TokenType::kKeyword:
        if (MatchKeyword("NULL")) return with_loc(MakeLiteral(Value::Null()));
        if (MatchKeyword("EXISTS")) {
          BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kExists;
          e->loc = at;
          BORNSQL_ASSIGN_OR_RETURN(e->subquery, SelectStatement());
          BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
          ExprPtr out = std::move(e);
          return out;
        }
        if (CheckKeyword("CASE")) return CaseExpr();
        if (MatchKeyword("CAST")) {
          // CAST(expr AS type) — lowered to the cast() scalar function.
          BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
          BORNSQL_ASSIGN_OR_RETURN(ExprPtr inner, Expression());
          BORNSQL_RETURN_IF_ERROR(ExpectKeyword("AS"));
          BORNSQL_ASSIGN_OR_RETURN(std::string type_name,
                                   Identifier("type name"));
          BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
          std::vector<ExprPtr> args;
          args.push_back(std::move(inner));
          args.push_back(MakeLiteral(Value::Text(AsciiToLower(type_name))));
          return with_loc(MakeCall("cast", std::move(args)));
        }
        return Error(StrFormat("unexpected keyword '%s' in expression",
                               t.text.c_str()));
      case TokenType::kIdentifier:
        return IdentifierExpr();
      default:
        return Error(StrFormat("unexpected %s in expression",
                               Describe(t).c_str()));
    }
  }

  Result<ExprPtr> CaseExpr() {
    const SourceLoc start = Loc();
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("CASE"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCase;
    e->loc = start;
    // Optional operand form: CASE x WHEN v THEN r ... desugars each WHEN to
    // (x = v).
    ExprPtr operand;
    if (!CheckKeyword("WHEN")) {
      BORNSQL_ASSIGN_OR_RETURN(operand, Expression());
    }
    while (MatchKeyword("WHEN")) {
      BORNSQL_ASSIGN_OR_RETURN(ExprPtr when, Expression());
      if (operand) {
        when = MakeBinary(BinaryOp::kEq, CloneExpr(*operand), std::move(when));
      }
      BORNSQL_RETURN_IF_ERROR(ExpectKeyword("THEN"));
      BORNSQL_ASSIGN_OR_RETURN(ExprPtr then, Expression());
      e->when_clauses.emplace_back(std::move(when), std::move(then));
    }
    if (e->when_clauses.empty()) {
      return Error("CASE requires at least one WHEN clause");
    }
    if (MatchKeyword("ELSE")) {
      BORNSQL_ASSIGN_OR_RETURN(e->else_clause, Expression());
    }
    BORNSQL_RETURN_IF_ERROR(ExpectKeyword("END"));
    ExprPtr out = std::move(e);
    return out;
  }

  Result<ExprPtr> IdentifierExpr() {
    const SourceLoc start = Loc();
    std::string first = Advance().text;
    // Function call?
    if (Check(TokenType::kLParen)) {
      Advance();
      auto call = std::make_unique<Expr>();
      call->kind = ExprKind::kFunctionCall;
      call->loc = start;
      call->func_name = first;
      if (Match(TokenType::kStar)) {  // COUNT(*)
        auto star = std::make_unique<Expr>();
        star->kind = ExprKind::kStar;
        call->args.push_back(std::move(star));
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      } else if (!Match(TokenType::kRParen)) {
        do {
          BORNSQL_ASSIGN_OR_RETURN(ExprPtr arg, Expression());
          call->args.push_back(std::move(arg));
        } while (Match(TokenType::kComma));
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      }
      if (MatchKeyword("OVER")) {
        call->kind = ExprKind::kWindow;
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
        if (MatchKeyword("PARTITION")) {
          BORNSQL_RETURN_IF_ERROR(ExpectKeyword("BY"));
          do {
            BORNSQL_ASSIGN_OR_RETURN(ExprPtr p, Expression());
            call->partition_by.push_back(std::move(p));
          } while (Match(TokenType::kComma));
        }
        if (MatchKeyword("ORDER")) {
          BORNSQL_RETURN_IF_ERROR(ExpectKeyword("BY"));
          do {
            BORNSQL_ASSIGN_OR_RETURN(ExprPtr o, Expression());
            bool desc = false;
            if (MatchKeyword("DESC")) {
              desc = true;
            } else {
              MatchKeyword("ASC");
            }
            call->window_order_by.emplace_back(std::move(o), desc);
          } while (Match(TokenType::kComma));
        }
        BORNSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      }
      ExprPtr out = std::move(call);
      return out;
    }
    // Qualified column?
    if (Match(TokenType::kDot)) {
      BORNSQL_ASSIGN_OR_RETURN(std::string col, Identifier("column name"));
      ExprPtr e = MakeColumnRef(std::move(first), std::move(col));
      e->loc = start;
      return e;
    }
    ExprPtr e = MakeColumnRef("", std::move(first));
    e->loc = start;
    return e;
  }

  std::span<const Token> tokens_;
  const Token& eof_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view sql) {
  BORNSQL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  return Parser(tokens, tokens.back()).Single();
}

Result<Statement> ParseStatementTokens(std::vector<Token> tokens) {
  return Parser(tokens, tokens.back()).Single();
}

Result<std::vector<ScriptStatement>> ParseScript(
    std::string_view sql, std::vector<Token>* tokens_out) {
  BORNSQL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  std::vector<ScriptStatement> out;
  size_t begin = 0;  // first token of the current statement
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].type != TokenType::kSemicolon &&
        tokens[i].type != TokenType::kEof) {
      continue;
    }
    if (i > begin) {
      const std::span<const Token> own(tokens.data() + begin, i + 1 - begin);
      BORNSQL_ASSIGN_OR_RETURN(Statement stmt,
                               Parser(own, tokens.back()).Single());
      out.push_back({std::move(stmt), begin, i + 1});
    }
    begin = i + 1;
  }
  if (tokens_out != nullptr) *tokens_out = std::move(tokens);
  return out;
}

Result<ExprPtr> ParseExpression(std::string_view sql) {
  BORNSQL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  return Parser(tokens, tokens.back()).SingleExpression();
}

}  // namespace bornsql::sql
