#include "tools/fuzz/fuzzer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "common/strings.h"

namespace bornsql::fuzz {
namespace {

// ---------------------------------------------------------------------------
// Fixture schema metadata the grammar draws from.
// ---------------------------------------------------------------------------

struct ColumnInfo {
  const char* name;
  bool is_int = false;
  bool is_double = false;
  bool is_text = false;
};

struct TableInfo {
  const char* name;
  std::vector<ColumnInfo> columns;
};

const std::vector<TableInfo>& Tables() {
  static const std::vector<TableInfo>* tables = new std::vector<TableInfo>{
      {"docs",
       {{"doc_id", true}, {"label", true}, {"score", false, true},
        {"tag", false, false, true}}},
      {"tokens", {{"doc_id", true}, {"term_id", true}, {"tf", true}}},
      {"vocab",
       {{"term_id", true}, {"df", true}, {"idf", false, true},
        {"word", false, false, true}}},
      {"weights", {{"term_id", true}, {"label", true}, {"w", false, true}}},
  };
  return *tables;
}

// Equi-join edges between fixture tables: (left table, left col, right
// table, right col). The generator only joins along these, so every join
// predicate is schema-meaningful.
struct JoinEdge {
  const char* left_table;
  const char* left_col;
  const char* right_table;
  const char* right_col;
};

const std::vector<JoinEdge>& Edges() {
  static const std::vector<JoinEdge>* edges = new std::vector<JoinEdge>{
      {"docs", "doc_id", "tokens", "doc_id"},
      {"tokens", "term_id", "vocab", "term_id"},
      {"tokens", "term_id", "weights", "term_id"},
      {"vocab", "term_id", "weights", "term_id"},
      {"docs", "label", "weights", "label"},
  };
  return *edges;
}

// ---------------------------------------------------------------------------
// Expression grammar. Everything is rendered as SQL text immediately; the
// structure lives in QuerySpec.
// ---------------------------------------------------------------------------

// One table alias in scope, with the fixture table it exposes. Derived
// tables and CTEs re-expose base columns under new names, tracked the same
// way.
struct ScopeEntry {
  std::string alias;
  std::vector<ColumnInfo> columns;
};

struct GenContext {
  std::vector<ScopeEntry> scope;
  Rng* rng;

  const ScopeEntry& AnyEntry() {
    return scope[rng->Uniform(scope.size())];
  }
};

std::vector<const ColumnInfo*> ColumnsWhere(const ScopeEntry& e,
                                            bool want_int, bool want_double,
                                            bool want_text) {
  std::vector<const ColumnInfo*> out;
  for (const ColumnInfo& c : e.columns) {
    if ((want_int && c.is_int) || (want_double && c.is_double) ||
        (want_text && c.is_text)) {
      out.push_back(&c);
    }
  }
  return out;
}

std::string IntConst(Rng& rng) {
  return std::to_string(static_cast<int64_t>(rng.Uniform(9)) - 2);
}

std::string TextConst(Rng& rng) {
  static const char* kWords[] = {"'alpha'", "'beta'", "'gamma'",
                                 "'delta'", "'w3'",   "'zzz'"};
  return kWords[rng.Uniform(6)];
}

// Qualified reference to a random column of the requested class. The
// fallback (a scope can lack the class entirely, e.g. a CTE projecting only
// int columns) must be a constant of a requested class: an int standing in
// for a text column would make `lower(...)` or LIKE ill-typed, and an
// evaluation error can legally fire under one conjunct order and not
// another.
std::string PickColumn(GenContext& ctx, bool want_int, bool want_double,
                       bool want_text) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    const ScopeEntry& e = ctx.AnyEntry();
    std::vector<const ColumnInfo*> cols =
        ColumnsWhere(e, want_int, want_double, want_text);
    if (!cols.empty()) {
      return e.alias + "." + cols[ctx.rng->Uniform(cols.size())]->name;
    }
  }
  if (want_int) return IntConst(*ctx.rng);
  if (want_double) return "0.5";
  return TextConst(*ctx.rng);
}

std::string IntExpr(GenContext& ctx, int depth);

// Integer-valued scalar expression. Division and modulus only ever by
// non-zero constants: a row-dependent evaluation error could legally
// surface under one conjunct order and not another.
std::string IntExpr(GenContext& ctx, int depth) {
  Rng& rng = *ctx.rng;
  if (depth <= 0 || rng.Bernoulli(0.45)) {
    return rng.Bernoulli(0.75) ? PickColumn(ctx, true, false, false)
                               : IntConst(rng);
  }
  switch (rng.Uniform(6)) {
    case 0:
      return "(" + IntExpr(ctx, depth - 1) + " + " + IntExpr(ctx, depth - 1) +
             ")";
    case 1:
      return "(" + IntExpr(ctx, depth - 1) + " - " + IntExpr(ctx, depth - 1) +
             ")";
    case 2:
      return "(" + IntExpr(ctx, depth - 1) + " * " +
             std::to_string(1 + rng.Uniform(3)) + ")";
    case 3:
      return "abs(" + IntExpr(ctx, depth - 1) + ")";
    case 4:
      return "coalesce(" + PickColumn(ctx, true, false, false) + ", " +
             IntConst(rng) + ")";
    default:
      return "length(" + PickColumn(ctx, false, false, true) + ")";
  }
}

std::string Comparison(GenContext& ctx) {
  static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  Rng& rng = *ctx.rng;
  switch (rng.Uniform(6)) {
    case 0:  // int comparison
    case 1:
      return IntExpr(ctx, 1) + " " + kOps[rng.Uniform(6)] + " " +
             IntExpr(ctx, 1);
    case 2: {  // double column vs constant (exact binary constants)
      static const char* kDoubles[] = {"-1.5", "-0.25", "0.0", "0.5", "2.25"};
      return PickColumn(ctx, false, true, false) + " " + kOps[rng.Uniform(6)] +
             " " + kDoubles[rng.Uniform(5)];
    }
    case 3: {  // text predicates
      const std::string col = PickColumn(ctx, false, false, true);
      if (rng.Bernoulli(0.5)) return col + " = " + TextConst(rng);
      static const char* kPatterns[] = {"'%a%'", "'b%'", "'%ta'", "'w%'"};
      return col + " LIKE " + kPatterns[rng.Uniform(4)];
    }
    case 4: {  // NULL tests
      const std::string col = PickColumn(ctx, true, true, true);
      return col + (rng.Bernoulli(0.5) ? " IS NULL" : " IS NOT NULL");
    }
    default: {  // IN list
      const std::string col = PickColumn(ctx, true, false, false);
      std::string list = IntConst(rng);
      const size_t n = 1 + rng.Uniform(3);
      for (size_t i = 0; i < n; ++i) list += ", " + IntConst(rng);
      return col + " IN (" + list + ")";
    }
  }
}

std::string Predicate(GenContext& ctx) {
  Rng& rng = *ctx.rng;
  if (rng.Bernoulli(0.2)) {
    return "(" + Comparison(ctx) + " OR " + Comparison(ctx) + ")";
  }
  if (rng.Bernoulli(0.1)) return "NOT (" + Comparison(ctx) + ")";
  return Comparison(ctx);
}

// Select item of any type (int expression, double column, text column, or
// a CASE over them).
std::string SelectExpr(GenContext& ctx) {
  Rng& rng = *ctx.rng;
  switch (rng.Uniform(6)) {
    case 0:
      return PickColumn(ctx, false, true, false);
    case 1:
      return PickColumn(ctx, false, false, true);
    case 2:
      return "CASE WHEN " + Comparison(ctx) + " THEN " + IntExpr(ctx, 1) +
             " ELSE " + IntExpr(ctx, 1) + " END";
    case 3:
      return "lower(" + PickColumn(ctx, false, false, true) + ")";
    default:
      return IntExpr(ctx, 2);
  }
}

// ---------------------------------------------------------------------------
// Sub-select generation (CTE bodies and derived tables). Single base table,
// aliased output columns, so the outer scope knows exactly what it exposes.
// ---------------------------------------------------------------------------

struct SubSelect {
  std::string sql;                  // "SELECT ... FROM ... [WHERE ...]"
  std::vector<ColumnInfo> columns;  // exposed columns, with classes
};

// Column-name pool for sub-select outputs. Distinct from base column names
// so shadowing never makes an outer reference ambiguous.
std::string SubColName(size_t i) { return "s" + std::to_string(i); }

SubSelect GenerateSubSelect(Rng& rng) {
  const TableInfo& table = Tables()[rng.Uniform(Tables().size())];
  const std::string alias = "b";
  GenContext ctx{{{alias, table.columns}}, &rng};

  SubSelect out;
  // Project a random non-empty subset of the base columns, renamed.
  std::vector<std::string> items;
  static std::vector<ColumnInfo> storage;  // names must outlive ColumnInfo*
  const size_t ncols = 1 + rng.Uniform(table.columns.size());
  std::vector<size_t> picked;
  for (size_t i = 0; i < table.columns.size(); ++i) picked.push_back(i);
  for (size_t i = 0; i < ncols; ++i) {
    const size_t j = i + rng.Uniform(picked.size() - i);
    std::swap(picked[i], picked[j]);
  }
  for (size_t i = 0; i < ncols; ++i) {
    const ColumnInfo& c = table.columns[picked[i]];
    items.push_back(alias + "." + c.name + " AS " + SubColName(i));
    ColumnInfo exposed = c;
    exposed.name = nullptr;  // replaced below via the stable pool
    out.columns.push_back(exposed);
  }
  // Point the exposed names at a process-lifetime pool of "sN" strings.
  static const char* kSubNames[] = {"s0", "s1", "s2", "s3", "s4", "s5"};
  for (size_t i = 0; i < out.columns.size(); ++i) {
    out.columns[i].name = kSubNames[i];
  }

  out.sql = "SELECT " + Join(items, ", ") + " FROM " +
            std::string(table.name) + " " + alias;
  if (rng.Bernoulli(0.6)) out.sql += " WHERE " + Predicate(ctx);
  // An ORDER BY here is semantically inert (and is exactly what lint rule
  // BSL008 flags) -- emit one occasionally so the fuzzer also covers the
  // wasted-sort path through every configuration.
  if (rng.Bernoulli(0.15)) {
    out.sql += " ORDER BY " + std::string(alias) + "." +
               table.columns[0].name;
  }
  return out;
}

// An uncorrelated subquery conjunct, `<int> IN (SELECT <int> FROM src)` or
// `EXISTS (SELECT ...)`, over a base table or over the query's CTE (when
// it has one). The planner folds it by running its own tree, which then
// reads the CTE the outer statement reads too.
std::string SubqueryPredicate(GenContext& ctx, const std::string& cte_name,
                              const std::vector<ColumnInfo>& cte_columns) {
  Rng& rng = *ctx.rng;
  std::string source = cte_name;
  std::vector<ColumnInfo> columns = cte_columns;
  if (cte_name.empty() || rng.Bernoulli(0.5)) {
    const TableInfo& table = Tables()[rng.Uniform(Tables().size())];
    source = table.name;
    columns = table.columns;
  }
  GenContext sub{{{"q", columns}}, &rng};
  std::string select =
      "SELECT " + PickColumn(sub, true, false, false) + " FROM " + source +
      " q";
  if (rng.Bernoulli(0.5)) select += " WHERE " + Predicate(sub);
  if (rng.Bernoulli(0.5)) return "EXISTS (" + select + ")";
  return PickColumn(ctx, true, false, false) + " IN (" + select + ")";
}

}  // namespace

// ---------------------------------------------------------------------------
// Query generation.
// ---------------------------------------------------------------------------

uint64_t DeriveSeed(uint64_t base_seed, uint64_t index) {
  // splitmix64 finalizer over (base ^ golden-ratio-stepped index).
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

QuerySpec GenerateQuery(Rng& rng) {
  QuerySpec q;
  GenContext ctx{{}, &rng};
  size_t next_alias = 0;
  auto fresh_alias = [&next_alias] {
    return "t" + std::to_string(next_alias++);
  };

  // Optional CTE, referenced once or twice (twice exercises the
  // materialize-vs-inline axis hardest).
  std::string cte_name;
  std::vector<ColumnInfo> cte_columns;
  if (rng.Bernoulli(0.35)) {
    SubSelect sub = GenerateSubSelect(rng);
    cte_name = "c0";
    cte_columns = sub.columns;
    q.cte_sqls.push_back(cte_name + " AS (" + sub.sql + ")");
  }

  // FROM clause: 1-3 items, joined along schema edges where possible.
  const size_t nfrom = 1 + rng.Uniform(3);
  for (size_t i = 0; i < nfrom; ++i) {
    FromItem item;
    item.alias = fresh_alias();
    std::string source_table;  // base table name when this item is one
    std::vector<ColumnInfo> columns;
    const uint64_t shape = rng.Uniform(10);
    if (!cte_name.empty() && shape < 3) {
      item.sql = cte_name + " " + item.alias;
      columns = cte_columns;
    } else if (shape < 5) {
      SubSelect sub = GenerateSubSelect(rng);
      item.sql = "(" + sub.sql + ") " + item.alias;
      columns = sub.columns;
    } else {
      const TableInfo& table = Tables()[rng.Uniform(Tables().size())];
      item.sql = std::string(table.name) + " " + item.alias;
      columns = table.columns;
      source_table = table.name;
    }

    // Connect base tables to an earlier base table along a join edge;
    // LEFT JOIN sometimes, comma join + WHERE conjunct otherwise. Derived
    // tables and CTEs stay comma-joined (their renamed columns are not on
    // the edge list) and usually get a manual equi conjunct below.
    if (i > 0 && !source_table.empty()) {
      std::vector<std::pair<std::string, const JoinEdge*>> candidates;
      for (size_t p = 0; p < q.from.size(); ++p) {
        // Recover the earlier item's base table from its rendered SQL.
        for (const JoinEdge& e : Edges()) {
          const std::string& prev_sql = q.from[p].sql;
          const std::string prev_alias = q.from[p].alias;
          const bool prev_is_left =
              prev_sql.rfind(std::string(e.left_table) + " ", 0) == 0 &&
              source_table == e.right_table;
          const bool prev_is_right =
              prev_sql.rfind(std::string(e.right_table) + " ", 0) == 0 &&
              source_table == e.left_table;
          if (prev_is_left) {
            candidates.push_back(
                {prev_alias + "." + e.left_col + " = " + item.alias + "." +
                     e.right_col,
                 &e});
          } else if (prev_is_right) {
            candidates.push_back(
                {prev_alias + "." + e.right_col + " = " + item.alias + "." +
                     e.left_col,
                 &e});
          }
        }
      }
      if (!candidates.empty()) {
        const std::string equi =
            candidates[rng.Uniform(candidates.size())].first;
        if (rng.Bernoulli(0.3)) {
          item.left_join = true;
          item.on = equi;
        } else {
          q.where.push_back(equi);
        }
      }
    }
    ctx.scope.push_back({item.alias, columns});
    q.from.push_back(std::move(item));
  }

  // Tie any two int columns together occasionally (covers derived/CTE
  // joins the edge list cannot express).
  if (ctx.scope.size() > 1 && rng.Bernoulli(0.3)) {
    const std::string a = PickColumn(ctx, true, false, false);
    const std::string b = PickColumn(ctx, true, false, false);
    if (a != b) q.where.push_back(a + " = " + b);
  }

  // WHERE conjuncts.
  const size_t npred = rng.Uniform(4);
  for (size_t i = 0; i < npred; ++i) q.where.push_back(Predicate(ctx));
  if (rng.Bernoulli(0.15)) {
    q.where.push_back(SubqueryPredicate(ctx, cte_name, cte_columns));
  }

  // Aggregate or plain projection.
  if (rng.Bernoulli(0.35)) {
    const size_t ngroups = 1 + rng.Uniform(2);
    std::set<std::string> seen;
    for (size_t i = 0; i < ngroups; ++i) {
      const std::string g = PickColumn(ctx, true, false, true);
      if (!seen.insert(g).second) continue;
      q.group_by.push_back(g);
      q.select_items.push_back(g + " AS g" + std::to_string(i));
    }
    const size_t naggs = 1 + rng.Uniform(3);
    for (size_t i = 0; i < naggs; ++i) {
      std::string agg;
      switch (rng.Uniform(5)) {
        case 0:
          agg = "COUNT(*)";
          break;
        case 1:
          agg = "COUNT(" + PickColumn(ctx, true, true, true) + ")";
          break;
        case 2:
          // SUM/AVG over INTEGER only: int64 accumulation is exact, so the
          // result is independent of row order across configurations.
          agg = (rng.Bernoulli(0.5) ? "SUM(" : "AVG(") + IntExpr(ctx, 1) +
                ")";
          break;
        default:
          agg = (rng.Bernoulli(0.5) ? "MIN(" : "MAX(") +
                PickColumn(ctx, true, true, true) + ")";
          break;
      }
      q.select_items.push_back(agg + " AS a" + std::to_string(i));
    }
    if (rng.Bernoulli(0.25)) {
      q.having = "COUNT(*) >= " + std::to_string(1 + rng.Uniform(2));
    }
  } else {
    const size_t nitems = 1 + rng.Uniform(4);
    for (size_t i = 0; i < nitems; ++i) {
      q.select_items.push_back(SelectExpr(ctx) + " AS c" + std::to_string(i));
    }
    q.distinct = rng.Bernoulli(0.2);
  }

  // ORDER BY is legal everywhere here. Results are compared as multisets,
  // and every SELECT lane also checks its rows come in the key's order.
  if (rng.Bernoulli(0.3)) {
    const size_t key = rng.Uniform(q.select_items.size());
    q.order_by.push_back(std::to_string(key + 1) +
                         (rng.Bernoulli(0.4) ? " DESC" : ""));
  }
  return q;
}

std::string RenderQuery(const QuerySpec& q) {
  std::string sql;
  if (!q.cte_sqls.empty()) sql += "WITH " + Join(q.cte_sqls, ", ") + " ";
  sql += "SELECT ";
  if (q.distinct) sql += "DISTINCT ";
  sql += Join(q.select_items, ", ");
  sql += " FROM ";
  for (size_t i = 0; i < q.from.size(); ++i) {
    const FromItem& f = q.from[i];
    if (i == 0) {
      sql += f.sql;
    } else if (f.left_join) {
      sql += " LEFT JOIN " + f.sql + " ON " + f.on;
    } else {
      sql += ", " + f.sql;
    }
  }
  if (!q.where.empty()) sql += " WHERE " + Join(q.where, " AND ");
  if (!q.group_by.empty()) sql += " GROUP BY " + Join(q.group_by, ", ");
  if (!q.having.empty()) sql += " HAVING " + q.having;
  if (!q.order_by.empty()) sql += " ORDER BY " + Join(q.order_by, ", ");
  return sql;
}

// ---------------------------------------------------------------------------
// Fixture.
// ---------------------------------------------------------------------------

Status LoadFixture(engine::Database* db) {
  BORNSQL_RETURN_IF_ERROR(db->ExecuteScript(
      "CREATE TABLE docs (doc_id INTEGER, label INTEGER, score DOUBLE, "
      "tag TEXT);"
      "CREATE TABLE tokens (doc_id INTEGER, term_id INTEGER, tf INTEGER);"
      "CREATE TABLE vocab (term_id INTEGER, df INTEGER, idf DOUBLE, "
      "word TEXT);"
      "CREATE TABLE weights (term_id INTEGER, label INTEGER, w DOUBLE);"));

  static const char* kTags[] = {"alpha", "beta", "gamma", "delta"};
  std::string script;
  for (int d = 1; d <= 40; ++d) {
    const std::string label =
        d % 11 == 0 ? "NULL" : std::to_string(d % 3);
    const std::string score =
        d % 9 == 0 ? "NULL"
                   : StrFormat("%.17g", (d * 7 % 23) * 0.5 - 3.0);
    const std::string tag =
        d % 7 == 0 ? "NULL" : "'" + std::string(kTags[d % 4]) + "'";
    script += StrFormat("INSERT INTO docs VALUES (%d, %s, %s, %s);", d,
                        label.c_str(), score.c_str(), tag.c_str());
    for (int j = 1; j <= 3; ++j) {
      const int term = (d * j + j) % 25;
      const int row = d * 3 + j;
      const std::string tf =
          row % 13 == 0 ? "NULL" : std::to_string(1 + (d + j) % 5);
      script += StrFormat("INSERT INTO tokens VALUES (%d, %d, %s);", d, term,
                          tf.c_str());
    }
  }
  for (int t = 0; t < 25; ++t) {
    const int df = 1 + t % 10;
    script += StrFormat(
        "INSERT INTO vocab VALUES (%d, %d, %.17g, 'w%d');", t, df,
        (25.0 - df) * 0.125, t);
    for (int label = 0; label <= 1; ++label) {
      script += StrFormat("INSERT INTO weights VALUES (%d, %d, %.17g);", t,
                          label, ((t * 3 + label) % 7 - 3) * 0.25);
    }
  }
  return db->ExecuteScript(script);
}

// ---------------------------------------------------------------------------
// Configuration matrix and differential runner.
// ---------------------------------------------------------------------------

std::vector<FuzzConfig> AllConfigs(size_t vector_size, bool verify_chunks) {
  using engine::EngineConfig;
  using engine::JoinStrategy;
  struct StrategyName {
    JoinStrategy strategy;
    const char* name;
  };
  static const StrategyName kStrategies[] = {
      {JoinStrategy::kHash, "hash"},
      {JoinStrategy::kSortMerge, "sortmerge"},
      {JoinStrategy::kNestedLoop, "nestedloop"},
  };

  std::vector<FuzzConfig> out;
  for (const StrategyName& s : kStrategies) {
    EngineConfig base;
    base.join_strategy = s.strategy;
    // Verifiers on regardless of build type: a translation-validation
    // violation fails the query in that configuration, which the runner
    // reports as a status divergence -- so every fuzz query doubles as a
    // validator test even in optimized builds.
    base.verify_plans = true;
    base.verify_rewrites = true;
    // The chunk verifier is opt-in per campaign (--verify-chunks): it adds
    // a per-value sweep to every boundary crossing, so the large default
    // smoke batch stays fast while a dedicated CI lane runs it armed.
    base.verify_chunks = verify_chunks;
    if (vector_size != 0) base.vector_size = vector_size;

    FuzzConfig all_on{std::string(s.name) + "/all_on", base};
    out.push_back(all_on);

    FuzzConfig all_off{std::string(s.name) + "/all_off", base};
    all_off.config.rules.derived_table_pullup = false;
    all_off.config.rules.constant_folding = false;
    all_off.config.rules.predicate_pushdown = false;
    all_off.config.rules.equi_join_extraction = false;
    all_off.config.rules.filter_reorder = false;
    all_off.config.rules.projection_pruning = false;
    out.push_back(all_off);

    struct RuleOff {
      const char* name;
      bool engine::OptimizerRules::* flag;
    };
    static const RuleOff kRules[] = {
        {"off_derived_table_pullup",
         &engine::OptimizerRules::derived_table_pullup},
        {"off_constant_folding", &engine::OptimizerRules::constant_folding},
        {"off_predicate_pushdown",
         &engine::OptimizerRules::predicate_pushdown},
        {"off_equi_join_extraction",
         &engine::OptimizerRules::equi_join_extraction},
        {"off_filter_reorder", &engine::OptimizerRules::filter_reorder},
        {"off_projection_pruning",
         &engine::OptimizerRules::projection_pruning},
    };
    for (const RuleOff& r : kRules) {
      FuzzConfig one{std::string(s.name) + "/" + r.name, base};
      one.config.rules.*r.flag = false;
      out.push_back(one);
    }

    FuzzConfig inlined{std::string(s.name) + "/inline_ctes", base};
    inlined.config.materialize_ctes = false;
    out.push_back(inlined);

    // Scalar-compatibility lane: chunk-of-one execution must be
    // observationally identical to the chunked engine (same results, same
    // error surface) under every join strategy.
    FuzzConfig vec1{std::string(s.name) + "/vector1", base};
    vec1.config.vector_size = 1;
    out.push_back(vec1);
  }
  return out;
}

namespace {

// Canonical comparison key: every row rendered value-by-value, rows sorted
// (results are compared as multisets; InOrder checks ORDER BY apart).
std::string CanonicalRows(const engine::QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Row& row : result.rows) {
    std::string r;
    for (const Value& v : row) {
      r += v.is_null() ? "<null>" : v.ToString();
      r += "|";
    }
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end());
  std::string joined;
  for (const std::string& r : rows) joined += r + "\n";
  return joined;
}

std::string Preview(const std::string& canonical) {
  constexpr size_t kMax = 400;
  if (canonical.size() <= kMax) return canonical;
  return canonical.substr(0, kMax) + "...";
}

// A lane's outcome: whether it succeeded, and its canonical rows or error.
struct Outcome {
  bool ok = false;
  std::string text;
};

Outcome OutcomeOf(const Result<engine::QueryResult>& result) {
  if (!result.ok()) return {false, result.status().ToString()};
  return {true, CanonicalRows(*result)};
}

// True when lane `name` agrees with the baseline lane `base_name`: the same
// status and, when both succeed, the same row multiset. Otherwise describes
// the divergence in *detail (when non-null).
bool Agrees(const std::string& base_name, const Outcome& base,
            const std::string& name, const Outcome& got, std::string* detail) {
  if (got.ok != base.ok) {
    if (detail != nullptr) {
      *detail = "status divergence: " + base_name +
                (base.ok ? " succeeded" : " failed") + " but " + name +
                (got.ok ? " succeeded" : " failed: " + got.text);
    }
    return false;
  }
  if (base.ok && got.text != base.text) {
    if (detail != nullptr) {
      *detail = "result divergence between " + base_name + " and " + name +
                "\n--- " + base_name + "\n" + Preview(base.text) + "--- " +
                name + "\n" + Preview(got.text);
    }
    return false;
  }
  return true;
}

// The write lane: `sql`'s rows go through the write sinks into a fresh
// table fz, once by CREATE TABLE ... AS and once by INSERT ... SELECT, and
// are read back. fz is dropped either way.
Result<engine::QueryResult> WriteAndReadBack(engine::Database& db,
                                             const std::string& sql) {
  Result<engine::QueryResult> result = [&]() -> Result<engine::QueryResult> {
    BORNSQL_RETURN_IF_ERROR(db.Execute("CREATE TABLE fz AS " + sql).status());
    BORNSQL_RETURN_IF_ERROR(db.Execute("INSERT INTO fz " + sql).status());
    return db.Execute("SELECT * FROM fz");
  }();
  Status dropped = db.Execute("DROP TABLE IF EXISTS fz").status();
  if (!dropped.ok()) return dropped;
  return result;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// True unless lane `name` succeeded with rows out of q's ORDER BY order:
// each row must follow the one before it by Value::Compare on the first
// key that differs (non-increasing for DESC). Otherwise describes the
// first pair out of order in *detail (when non-null).
bool InOrder(const QuerySpec& q, const std::string& name,
             const Result<engine::QueryResult>& result, std::string* detail) {
  if (q.order_by.empty() || !result.ok()) return true;
  const std::vector<Row>& rows = result->rows;
  for (size_t i = 1; i < rows.size(); ++i) {
    for (const std::string& item : q.order_by) {
      const size_t col = std::stoul(item) - 1;  // "N" or "N DESC"
      int c = Value::Compare(rows[i - 1][col], rows[i][col]);
      if (EndsWith(item, " DESC")) c = -c;
      if (c < 0) break;
      if (c == 0) continue;
      if (detail != nullptr) {
        *detail = "order violation in " + name + ": row " +
                  std::to_string(i) + " (" + rows[i][col].ToString() +
                  ") follows " + rows[i - 1][col].ToString() +
                  " under ORDER BY " + item;
      }
      return false;
    }
  }
  return true;
}

}  // namespace

DifferentialRunner::DifferentialRunner(size_t vector_size, bool verify_chunks)
    : configs_(AllConfigs(vector_size, verify_chunks)) {
  dbs_.reserve(configs_.size());
  for (const FuzzConfig& c : configs_) {
    auto db = std::make_unique<engine::Database>(c.config);
    Status s = LoadFixture(db.get());
    if (!s.ok()) {
      // The fixture is fixed SQL over the engine's own DDL; a failure here
      // is an engine bug every query would hit anyway.
      std::fprintf(stderr, "fuzz fixture load failed under %s: %s\n",
                   c.name.c_str(), s.ToString().c_str());
      std::abort();
    }
    dbs_.push_back(std::move(db));
  }
  serve::ServerConfig serving;
  serving.engine = configs_[0].config;
  server_ = std::make_unique<serve::Server>(std::move(serving));
  session_ = server_->Connect();
  Status s = LoadFixture(&session_->database());
  if (!s.ok()) {
    std::fprintf(stderr, "fuzz fixture load failed under serving/cached: %s\n",
                 s.ToString().c_str());
    std::abort();
  }
}

bool DifferentialRunner::Check(const QuerySpec& spec, std::string* detail) {
  const std::string sql = RenderQuery(spec);
  const std::string& base_name = configs_[0].name;
  const Result<engine::QueryResult> base_result = dbs_[0]->Execute(sql);
  if (!InOrder(spec, base_name, base_result, detail)) return false;
  const Outcome base = OutcomeOf(base_result);
  // A SELECT lane keeps the ORDER BY and agrees with the baseline.
  const auto lane_ok = [&](const std::string& name,
                           const Result<engine::QueryResult>& result) {
    return InOrder(spec, name, result, detail) &&
           Agrees(base_name, base, name, OutcomeOf(result), detail);
  };
  for (size_t i = 1; i < dbs_.size(); ++i) {
    if (!lane_ok(configs_[i].name, dbs_[i]->Execute(sql))) return false;
  }
  // Serving lane: run the query twice through the session. The first run
  // misses the plan cache and inserts (auto-parameterized), the second is
  // served from it; both must agree with the baseline.
  for (const char* lane : {"serving/uncached", "serving/cached"}) {
    if (!lane_ok(lane, session_->Execute(sql))) return false;
  }
  // Write lane: the baseline and the vector1 lanes write the query's rows
  // through CREATE TABLE ... AS and INSERT ... SELECT, and must read back
  // the same table.
  const Outcome written = OutcomeOf(WriteAndReadBack(*dbs_[0], sql));
  for (size_t i = 1; i < dbs_.size(); ++i) {
    if (!EndsWith(configs_[i].name, "/vector1")) continue;
    if (!Agrees(base_name + "/write", written, configs_[i].name + "/write",
                OutcomeOf(WriteAndReadBack(*dbs_[i], sql)), detail)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------------

namespace {

bool MentionsAlias(const QuerySpec& q, const std::string& alias) {
  const std::string needle = alias + ".";
  auto contains = [&needle](const std::string& s) {
    return s.find(needle) != std::string::npos;
  };
  for (const std::string& s : q.select_items) {
    if (contains(s)) return true;
  }
  for (const std::string& s : q.where) {
    if (contains(s)) return true;
  }
  for (const std::string& s : q.group_by) {
    if (contains(s)) return true;
  }
  for (const std::string& s : q.order_by) {
    if (contains(s)) return true;
  }
  for (const FromItem& f : q.from) {
    if (contains(f.on)) return true;
  }
  return contains(q.having);
}

bool MentionsCte(const QuerySpec& q, const std::string& name) {
  const std::string needle = name + " ";
  for (const FromItem& f : q.from) {
    if (f.sql.rfind(needle, 0) == 0) return true;
  }
  // A subquery conjunct may read the CTE too.
  for (const std::string& s : q.where) {
    if (s.find(" FROM " + needle) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

QuerySpec Shrink(const QuerySpec& spec,
                 const std::function<bool(const QuerySpec&)>& still_fails) {
  QuerySpec best = spec;
  bool progress = true;
  while (progress) {
    progress = false;
    auto try_reduce = [&](QuerySpec candidate) {
      if (still_fails(candidate)) {
        best = std::move(candidate);
        progress = true;
        return true;
      }
      return false;
    };

    for (size_t i = 0; i < best.where.size(); ++i) {
      QuerySpec candidate = best;
      candidate.where.erase(candidate.where.begin() + i);
      if (try_reduce(std::move(candidate))) break;
    }
    if (!best.order_by.empty()) {
      QuerySpec candidate = best;
      candidate.order_by.clear();
      try_reduce(std::move(candidate));
    }
    if (best.distinct) {
      QuerySpec candidate = best;
      candidate.distinct = false;
      try_reduce(std::move(candidate));
    }
    if (!best.having.empty()) {
      QuerySpec candidate = best;
      candidate.having.clear();
      try_reduce(std::move(candidate));
    }
    // Drop select items (aggregate queries keep their GROUP BY keys by
    // construction only if the item survives; positional ORDER BY was
    // cleared above before this matters).
    if (best.select_items.size() > 1 && best.order_by.empty()) {
      for (size_t i = best.select_items.size(); i-- > 0;) {
        if (best.select_items.size() <= 1) break;
        QuerySpec candidate = best;
        candidate.select_items.erase(candidate.select_items.begin() + i);
        if (try_reduce(std::move(candidate))) break;
      }
    }
    // Drop trailing FROM items nothing references.
    if (best.from.size() > 1) {
      const FromItem& last = best.from.back();
      QuerySpec candidate = best;
      candidate.from.pop_back();
      if (!MentionsAlias(candidate, last.alias)) {
        try_reduce(std::move(candidate));
      }
    }
    // Drop CTEs no FROM item references.
    for (size_t i = 0; i < best.cte_sqls.size(); ++i) {
      const std::string name =
          best.cte_sqls[i].substr(0, best.cte_sqls[i].find(' '));
      if (MentionsCte(best, name)) continue;
      QuerySpec candidate = best;
      candidate.cte_sqls.erase(candidate.cte_sqls.begin() + i);
      if (try_reduce(std::move(candidate))) break;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Campaign driver.
// ---------------------------------------------------------------------------

RunReport RunDifferential(const RunOptions& opts) {
  DifferentialRunner runner(opts.vector_size, opts.verify_chunks);
  RunReport report;
  for (uint64_t i = 0; i < opts.queries; ++i) {
    Rng rng(DeriveSeed(opts.seed, i));
    const QuerySpec spec = GenerateQuery(rng);
    ++report.executed;
    std::string detail;
    if (runner.Check(spec, &detail)) {
      if (opts.verbose) {
        std::fprintf(stderr, "[%llu] ok: %s\n",
                     static_cast<unsigned long long>(i),
                     RenderQuery(spec).c_str());
      }
      continue;
    }
    report.diverged = true;
    report.divergent_index = i;
    const QuerySpec shrunk = Shrink(
        spec, [&runner](const QuerySpec& q) { return !runner.Check(q, nullptr); });
    std::string shrunk_detail;
    runner.Check(shrunk, &shrunk_detail);
    report.divergent_query = RenderQuery(shrunk);
    report.detail = shrunk_detail.empty() ? detail : shrunk_detail;
    return report;
  }
  return report;
}

}  // namespace bornsql::fuzz
