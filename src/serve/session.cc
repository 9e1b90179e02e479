#include "serve/session.h"

#include <optional>
#include <utility>

#include "common/strings.h"
#include "engine/binder.h"
#include "engine/optimizer.h"
#include "engine/sql_text.h"
#include "serve/server.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace bornsql::serve {

namespace {

using engine::QueryResult;

std::string AtSpan(const sql::SourceLoc& loc) {
  if (!loc.valid()) return "";
  return StrFormat(" (at line %zu:%zu)", loc.line, loc.column);
}

// Does executing `stmt` change the set or shape of tables? Recurses into
// EXPLAIN because EXPLAIN ANALYZE really executes its statement.
bool MutatesSchema(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::StatementKind::kCreateTable:
    case sql::StatementKind::kDropTable:
    case sql::StatementKind::kCreateIndex:
      return true;
    case sql::StatementKind::kExplain:
      return stmt.explain_analyze && stmt.explained != nullptr &&
             MutatesSchema(*stmt.explained);
    default:
      return false;
  }
}

}  // namespace

std::string ConfigFingerprint(const engine::EngineConfig& config) {
  std::string fp;
  fp += 'j';
  fp += static_cast<char>('0' + static_cast<int>(config.join_strategy));
  fp += config.materialize_ctes ? 'M' : 'I';
  fp += config.use_index_joins ? 'X' : 'x';
  // One bit per rule, in the catalog's pipeline order (stable across
  // sessions, so equal configs always produce equal fingerprints).
  engine::OptimizerRules rules = config.rules;
  for (const std::string& rule : engine::OptimizerRuleNames()) {
    if (const bool* flag = engine::OptimizerRuleFlag(&rules, rule)) {
      fp += *flag ? '1' : '0';
    }
  }
  return fp;
}

Session::Session(Server* server, uint64_t id, engine::EngineConfig config)
    : server_(server),
      id_(id),
      mem_(StrFormat("session %llu", static_cast<unsigned long long>(id)),
           "session", &obs::MemoryTracker::Process()),
      db_(config, &server->catalog_) {
  db_.set_metrics(&server->metrics_);
  db_.set_statement_stats(&server->stmt_stats_);
  db_.set_extra_system_views(&server->views_);
  db_.set_memory_parent(&mem_);
}

Session::~Session() { server_->Unregister(id_); }

size_t Session::prepared_count() const {
  MutexLock lock(&mu_);
  return prepared_.size();
}

std::vector<PreparedInfo> Session::PreparedSnapshot() const {
  MutexLock lock(&mu_);
  std::vector<PreparedInfo> out;
  out.reserve(prepared_.size());
  for (const auto& [key, p] : prepared_) {
    out.push_back({id_, p->name, p->normalized, p->slots.size(),
                   p->calls.load(std::memory_order_relaxed), p->cacheable});
  }
  return out;
}

std::string Session::CacheKey(const std::string& normalized,
                              const std::string& kept_literals) const {
  return ConfigFingerprint(db_.config()) + "|" +
         std::to_string(db_.catalog().version()) + "|" + normalized + "|" +
         kept_literals;
}

std::string Session::StatsKey(const std::string& normalized) const {
  return StrFormat("s%llu: ", static_cast<unsigned long long>(id_)) +
         normalized;
}

Result<QueryResult> Session::Execute(std::string_view sql) {
  statements_.fetch_add(1, std::memory_order_relaxed);
  BORNSQL_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Lex(sql));
  BORNSQL_ASSIGN_OR_RETURN(sql::Statement stmt,
                           sql::ParseStatementTokens(tokens));
  return Dispatch(std::move(stmt), tokens);
}

Status Session::ExecuteScript(std::string_view sql) {
  std::vector<sql::Token> tokens;
  BORNSQL_ASSIGN_OR_RETURN(std::vector<sql::ScriptStatement> script,
                           sql::ParseScript(sql, &tokens));
  for (sql::ScriptStatement& s : script) {
    statements_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<sql::Token> own(tokens.begin() + s.begin,
                                      tokens.begin() + s.end);
    BORNSQL_RETURN_IF_ERROR(Dispatch(std::move(s.stmt), own).status());
  }
  return Status::OK();
}

Result<QueryResult> Session::Dispatch(sql::Statement stmt,
                                      const std::vector<sql::Token>& tokens) {
  switch (stmt.kind) {
    case sql::StatementKind::kPrepare:
      return RunPrepare(tokens, std::move(stmt));
    case sql::StatementKind::kExecute:
      return RunExecute(*stmt.execute);
    case sql::StatementKind::kDeallocate:
      return RunDeallocate(*stmt.deallocate);
    case sql::StatementKind::kSet:
      return RunSet(stmt, tokens);
    case sql::StatementKind::kSelect:
      return RunSelect(stmt, tokens);
    default: {
      auto result = db_.ExecuteParsed(
          stmt,
          StatsKey(engine::NormalizeTokens(tokens, 0, tokens.size())));
      if (result.ok() && MutatesSchema(stmt)) {
        // The catalog version in the key already prevents reuse; clearing
        // additionally releases plans holding dropped tables' pointers.
        server_->plan_cache().Clear();
      }
      return result;
    }
  }
}

Result<QueryResult> Session::RunPrepare(const std::vector<sql::Token>& tokens,
                                        sql::Statement stmt) {
  sql::PrepareStmt& prep = *stmt.prepare;
  auto entry = std::make_shared<Prepared>();
  entry->name = prep.name;
  entry->stmt = std::move(prep.body);

  // The body's normalized token run, for the view and for cache/stats keys
  // that match the equivalent ad-hoc statement.
  size_t body_begin = 0;
  while (body_begin < tokens.size() &&
         tokens[body_begin].offset < prep.body_loc.offset) {
    ++body_begin;
  }
  entry->normalized =
      engine::NormalizeTokens(tokens, body_begin, tokens.size());

  BORNSQL_ASSIGN_OR_RETURN(entry->slots,
                           engine::AnalyzeParameters(entry->stmt.get()));
  engine::InferParameterTypes(*entry->stmt, db_.catalog(), &entry->slots);
  entry->cacheable = engine::IsCacheable(*entry->stmt);

  MutexLock lock(&mu_);
  prepared_[AsciiToLower(prep.name)] = std::move(entry);  // re-PREPARE wins
  return QueryResult{};
}

Result<QueryResult> Session::RunExecute(const sql::ExecuteStmt& stmt) {
  std::shared_ptr<Prepared> prep;
  {
    MutexLock lock(&mu_);
    auto it = prepared_.find(AsciiToLower(stmt.name));
    if (it == prepared_.end()) {
      return Status::NotFound("prepared statement '" + stmt.name +
                              "' does not exist" + AtSpan(stmt.loc));
    }
    prep = it->second;
  }

  std::vector<Value> args;
  args.reserve(stmt.args.size());
  for (const sql::ExprPtr& arg : stmt.args) {
    BORNSQL_ASSIGN_OR_RETURN(Value v, engine::EvalConstExpr(*arg));
    args.push_back(std::move(v));
  }
  BORNSQL_ASSIGN_OR_RETURN(
      args, engine::CoerceArguments(prep->slots, prep->name, std::move(args)));
  prep->calls.fetch_add(1, std::memory_order_relaxed);

  std::string stats_key = StatsKey(prep->normalized);
  if (plan_cache_enabled_.load(std::memory_order_relaxed) && prep->cacheable) {
    if (auto served =
            RunThroughCache(*prep->stmt, prep->normalized, args, stats_key)) {
      return std::move(*served);
    }
  }
  // Uncached, or a body the plan builder refused: the planner binds the
  // arguments, and reports a refusal with its ordinary diagnostics.
  return db_.ExecuteParsed(*prep->stmt, std::move(stats_key), args);
}

Result<QueryResult> Session::RunDeallocate(const sql::DeallocateStmt& stmt) {
  MutexLock lock(&mu_);
  if (stmt.name.empty()) {  // DEALLOCATE ALL
    prepared_.clear();
    return QueryResult{};
  }
  auto it = prepared_.find(AsciiToLower(stmt.name));
  if (it == prepared_.end()) {
    return Status::NotFound("prepared statement '" + stmt.name +
                            "' does not exist" + AtSpan(stmt.loc));
  }
  prepared_.erase(it);
  return QueryResult{};
}

Result<QueryResult> Session::RunSet(const sql::Statement& stmt,
                                    const std::vector<sql::Token>& tokens) {
  const sql::SetStmt& set = *stmt.set;
  if (set.name == "born.plan_cache") {
    BORNSQL_ASSIGN_OR_RETURN(Value value, engine::EvalConstExpr(*set.value));
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    plan_cache_enabled_.store(v.AsInt() != 0, std::memory_order_relaxed);
    return QueryResult{};
  }
  if (set.name == "born.plan_cache_capacity") {
    BORNSQL_ASSIGN_OR_RETURN(Value value, engine::EvalConstExpr(*set.value));
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    if (v.AsInt() < 1) {
      return Status::InvalidArgument(
          "born.plan_cache_capacity must be >= 1");
    }
    server_->plan_cache().set_capacity(static_cast<size_t>(v.AsInt()));
    return QueryResult{};
  }
  if (set.name == "born.session_memory_limit") {
    BORNSQL_ASSIGN_OR_RETURN(Value value, engine::EvalConstExpr(*set.value));
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    if (v.AsInt() < 0) {
      return Status::InvalidArgument(
          "born.session_memory_limit must be >= 0 bytes (0 = unlimited)");
    }
    mem_.set_limit(static_cast<uint64_t>(v.AsInt()));
    return QueryResult{};
  }
  // Engine settings (born.opt.*, born.trace, ...) apply to this session's
  // database only. Cached plans need no invalidation: the config
  // fingerprint in the cache key changes with the config.
  return db_.ExecuteParsed(
      stmt, StatsKey(engine::NormalizeTokens(tokens, 0, tokens.size())));
}

Result<QueryResult> Session::RunSelect(const sql::Statement& stmt,
                                       const std::vector<sql::Token>& tokens) {
  const std::string normalized =
      engine::NormalizeTokens(tokens, 0, tokens.size());
  std::string stats_key = StatsKey(normalized);
  if (engine::HasParameters(stmt)) {
    return Status::InvalidArgument(
        "parameter placeholders are only valid inside PREPARE bodies");
  }
  // Expression subqueries are folded to constants at plan time, so a
  // cached plan would freeze their results; such statements run uncached.
  if (plan_cache_enabled_.load(std::memory_order_relaxed) &&
      engine::IsCacheable(stmt)) {
    // Auto-parameterize a copy: literals become placeholders, so repeated
    // predict queries differing only in constants — and EXECUTEs of an
    // equivalent PREPAREd statement — share one cache entry.
    sql::Statement templ;
    templ.kind = sql::StatementKind::kSelect;
    templ.select = sql::CloneSelect(*stmt.select);
    std::vector<Value> args;
    engine::ParameterizeLiterals(&templ, &args);
    if (auto served = RunThroughCache(templ, normalized, args, stats_key)) {
      return std::move(*served);
    }
  }
  // Uncached, or a template the plan builder refused — each literal is its
  // own placeholder there, so `a / 100 ... GROUP BY a / 100` no longer
  // matches its key. The statement itself still has its literals.
  return db_.ExecuteParsed(stmt, std::move(stats_key));
}

std::optional<Result<QueryResult>> Session::RunThroughCache(
    const sql::Statement& stmt, const std::string& normalized,
    const std::vector<Value>& args, const std::string& stats_key) {
  const std::string key =
      CacheKey(normalized, engine::KeptLiteralSuffix(stmt));
  PlanCache& cache = server_->plan_cache();
  if (std::shared_ptr<const CachedPlan> hit = cache.Lookup(key)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    db_.metrics().IncrementCounter(obs::kPlanCacheHits);
    return db_.ExecuteCachedPlan(hit->plan, args, stats_key);
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  db_.metrics().IncrementCounter(obs::kPlanCacheMisses);
  auto built = db_.BuildOptimizedPlan(*stmt.select);
  if (built.ok()) {
    auto entry = std::make_shared<CachedPlan>();
    entry->plan = std::move(*built);
    entry->statement = normalized;
    entry->num_params = args.size();
    entry->catalog_version = db_.catalog().version();
    entry->approx_bytes = ApproxCachedPlanBytes(*entry);
    const uint64_t before = cache.evictions();
    cache.Insert(key, entry);
    if (const uint64_t evicted = cache.evictions() - before; evicted > 0) {
      db_.metrics().IncrementCounter(obs::kPlanCacheEvictions, evicted);
    }
    return db_.ExecuteCachedPlan(entry->plan, args, stats_key);
  }
  return std::nullopt;
}

}  // namespace bornsql::serve
