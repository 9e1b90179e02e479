#include "engine/database.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <unordered_set>

#include "common/strings.h"
#include "engine/binder.h"
#include "engine/optimizer.h"
#include "engine/sql_text.h"
#include "exec/operators.h"
#include "lint/linter.h"
#include "lint/plan_verifier.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace bornsql::engine {

namespace {

// Mirrors an operator tree into the obs data model, copying any collected
// stats.
obs::PlanStatsNode CapturePlan(const exec::Operator& op) {
  obs::PlanStatsNode node;
  node.name = op.DebugString();
  node.has_stats = op.stats_enabled();
  node.stats = op.stats();
  for (const exec::Operator* child : op.children()) {
    if (child != nullptr) node.children.push_back(CapturePlan(*child));
  }
  return node;
}

// Folds an instrumented plan into the registry: per-operator-type
// aggregates, rows_scanned from the scan leaves, join_probes from each
// join's probe input. With a non-null `trace` it also appends one span per
// operator, over the lifetime interval (first/last hook timestamps) its
// stats collected. `seen` dedupes CTE subtrees shared by several gates.
void FoldPlanStats(obs::MetricsRegistry* metrics,
                   const obs::TraceRecorder& recorder,
                   obs::StatementTrace* trace, const exec::Operator& op,
                   std::unordered_set<const exec::Operator*>* seen) {
  if (!seen->insert(&op).second) return;
  const obs::OperatorStats& stats = op.stats();
  const std::string type = obs::OperatorTypeOf(op.DebugString());
  metrics->RecordOperator(type, stats);
  if (type == "SeqScan" || type == "MaterializedScan" || type == "CteScan") {
    metrics->IncrementCounter(obs::kRowsScanned, stats.rows_emitted);
  }
  const std::vector<exec::Operator*> children = op.children();
  const bool is_join = type == "HashJoin" || type == "SortMergeJoin" ||
                       type == "NestedLoopJoin" || type == "IndexJoin";
  if (is_join && !children.empty() && children.front() != nullptr) {
    metrics->IncrementCounter(obs::kJoinProbes,
                              children.front()->stats().rows_emitted);
  }
  if (trace != nullptr && stats.first_ns != 0) {
    trace->spans.push_back(
        {op.DebugString(), "operator", recorder.RelativeNs(stats.first_ns),
         stats.last_ns > stats.first_ns ? stats.last_ns - stats.first_ns : 0});
  }
  for (const exec::Operator* child : children) {
    if (child != nullptr) FoldPlanStats(metrics, recorder, trace, *child, seen);
  }
}

// The SELECT a statement embeds (SELECT, INSERT ... SELECT, CREATE TABLE
// ... AS), or null: the statements with a logical plan.
const sql::SelectStmt* EmbeddedSelect(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      return stmt.select.get();
    case sql::StatementKind::kInsert:
      return stmt.insert->select.get();
    case sql::StatementKind::kCreateTable:
      return stmt.create_table->as_select.get();
    default:
      return nullptr;
  }
}

// Statements that produce or write rows: they run as an operator tree
// (Planner::PlanStatement). DDL and SET run as direct calls.
bool HasPlan(const sql::Statement& stmt) {
  return stmt.kind == sql::StatementKind::kInsert ||
         stmt.kind == sql::StatementKind::kUpdate ||
         stmt.kind == sql::StatementKind::kDelete ||
         EmbeddedSelect(stmt) != nullptr;
}

Status ServingSessionRequired() {
  // Prepared-statement state is per session, not per database.
  return Status::InvalidArgument(
      "PREPARE/EXECUTE/DEALLOCATE require a serving session "
      "(serve::Session)");
}

// A one-column text result, one row per line (the EXPLAIN outputs).
QueryResult TextRows(const char* column, std::vector<std::string> lines) {
  QueryResult out;
  out.column_names = {column};
  for (std::string& line : lines) {
    out.rows.push_back({Value::Text(std::move(line))});
  }
  return out;
}

// One line per diagnostic, or `ok` when there are none.
void AddDiagnosticLines(const std::vector<lint::Diagnostic>& diags,
                        std::string ok, std::vector<std::string>* lines) {
  if (diags.empty()) lines->push_back(std::move(ok));
  for (const lint::Diagnostic& d : diags) {
    lines->push_back(lint::FormatDiagnostic(d));
  }
}

// Moves a drained result into rows, freeing each chunk's buffers as its
// rows move out.
QueryResult ToQueryResult(exec::MaterializedChunks data) {
  QueryResult out;
  out.column_names = data.schema.ColumnNames();
  out.rows.reserve(data.row_count);
  const size_t width = data.schema.size();
  for (exec::DataChunk& chunk : data.chunks) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      Row row;
      row.reserve(width);
      for (size_t c = 0; c < width; ++c) {
        row.push_back(std::move(chunk.column(c)[i]));
      }
      out.rows.push_back(std::move(row));
    }
    chunk.Clear();
  }
  return out;
}

}  // namespace

Result<Value> QueryResult::ScalarValue() const {
  if (rows.size() != 1 || rows[0].size() != 1) {
    return Status::InvalidArgument(
        StrFormat("expected a 1x1 result, got %zux%zu", rows.size(),
                  rows.empty() ? 0 : rows[0].size()));
  }
  return rows[0][0];
}

Database::StatementContext Database::BeginStatement(std::string key) const {
  StatementContext ctx;
  ctx.key = std::move(key);
  ctx.tracing = trace_enabled_;
  ctx.trace.start_ns = trace_.NowNs();
  return ctx;
}

void Database::AddPhaseSpan(obs::StatementTrace* trace, const char* name,
                            uint64_t start_ns) const {
  if (trace == nullptr) return;
  trace->spans.push_back({name, "phase", start_ns, trace_.NowNs() - start_ns});
}

Result<QueryResult> Database::Execute(std::string_view sql) {
  return ExecuteText(sql, nullptr);
}

Result<ProfiledQuery> Database::ExecuteProfiled(std::string_view sql) {
  ProfiledQuery out;
  BORNSQL_ASSIGN_OR_RETURN(out.result, ExecuteText(sql, &out.plan));
  return out;
}

Result<QueryResult> Database::ExecuteText(std::string_view sql,
                                          obs::PlanStatsNode* profile_plan) {
  StatementContext ctx = BeginStatement("");
  obs::StatementTrace* trace = ctx.tracing ? &ctx.trace : nullptr;
  const uint64_t lex_start = PhaseStart(trace);
  BORNSQL_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Lex(sql));
  AddPhaseSpan(trace, "lex", lex_start);
  ctx.key = NormalizeTokens(tokens, 0, tokens.size());
  const uint64_t parse_start = PhaseStart(trace);
  BORNSQL_ASSIGN_OR_RETURN(sql::Statement stmt,
                           sql::ParseStatementTokens(std::move(tokens)));
  AddPhaseSpan(trace, "parse", parse_start);
  if (profile_plan != nullptr && stmt.kind == sql::StatementKind::kExplain) {
    return Status::InvalidArgument(
        "ExecuteProfiled expects a plain statement, not EXPLAIN");
  }
  ctx.profile_plan = profile_plan;
  return ExecuteTracked(stmt.kind, &ctx, [&](obs::PlanStatsNode* profile) {
    return DispatchStatement(stmt, profile);
  });
}

Status Database::ExecuteScript(std::string_view sql) {
  std::vector<sql::Token> tokens;
  BORNSQL_ASSIGN_OR_RETURN(std::vector<sql::ScriptStatement> script,
                           sql::ParseScript(sql, &tokens));
  // Key every statement, then drop the tokens: a long script (a model
  // restore of INSERT VALUES) runs holding only the keys.
  std::vector<std::string> keys;
  keys.reserve(script.size());
  for (const sql::ScriptStatement& s : script) {
    keys.push_back(NormalizeTokens(tokens, s.begin, s.end));
  }
  std::vector<sql::Token>().swap(tokens);
  for (size_t i = 0; i < script.size(); ++i) {
    BORNSQL_RETURN_IF_ERROR(
        ExecuteParsed(script[i].stmt, std::move(keys[i])).status());
  }
  return Status::OK();
}

Result<QueryResult> Database::ExecuteParsed(const sql::Statement& stmt,
                                            std::string key,
                                            const std::vector<Value>& args) {
  StatementContext ctx = BeginStatement(std::move(key));
  return ExecuteTracked(stmt.kind, &ctx, [&](obs::PlanStatsNode* profile) {
    return DispatchStatement(stmt, profile, args);
  });
}

Result<plan::LogicalPlan> Database::BuildOptimizedPlan(
    const sql::SelectStmt& stmt) {
  Planner planner = MakePlanner();
  BORNSQL_ASSIGN_OR_RETURN(plan::LogicalPlan plan,
                           planner.BuildLogical(stmt));
  BORNSQL_RETURN_IF_ERROR(planner.OptimizeLogical(&plan));
  return plan;
}

Result<QueryResult> Database::ExecuteCachedPlan(
    const plan::LogicalPlan& cached, const std::vector<Value>& args,
    std::string key) {
  StatementContext ctx = BeginStatement(std::move(key));
  return ExecuteTracked(
      sql::StatementKind::kSelect, &ctx,
      [&](obs::PlanStatsNode* profile) -> Result<QueryResult> {
        const uint64_t lower_start = PhaseStart(active_trace_);
        BORNSQL_ASSIGN_OR_RETURN(exec::OperatorPtr tree,
                                 MakePlanner(args).LowerLogical(cached));
        AddPhaseSpan(active_trace_, "lower", lower_start);
        BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks data,
                                 ExecPlan(std::move(tree), profile));
        return ToQueryResult(std::move(data));
      });
}

Result<QueryResult> Database::ExecuteTracked(sql::StatementKind kind,
                                             StatementContext* ctx,
                                             const StatementBody& body) {
  // While the slow-query log is armed, eligible statements run instrumented
  // (the auto_explain.log_analyze approach) so a logged entry carries its
  // stats-annotated plan. EXPLAIN and SET never profile.
  const bool slow_armed = slow_query_ms_ >= 0 &&
                          kind != sql::StatementKind::kExplain &&
                          kind != sql::StatementKind::kSet;
  const bool want_profile = ctx->profile_plan != nullptr || slow_armed;

  obs::StatementTrace* saved_trace = active_trace_;
  active_trace_ = ctx->tracing ? &ctx->trace : nullptr;
  const uint64_t body_start = PhaseStart(active_trace_);
  const size_t spans_before = ctx->trace.spans.size();
  obs::PlanStatsNode plan;
  Result<QueryResult> result = body(want_profile ? &plan : nullptr);
  active_trace_ = saved_trace;

  // One clock: every sink records the statement's trace span.
  const uint64_t end_ns = trace_.NowNs();
  const uint64_t dur_ns = end_ns - ctx->trace.start_ns;
  const double elapsed_ms = static_cast<double>(dur_ns) / 1e6;
  metrics_->IncrementCounter(obs::kQueriesExecuted);
  if (!result.ok()) metrics_->IncrementCounter(obs::kQueriesFailed);
  metrics_->RecordLatency(obs::kStatementLatencyUs, elapsed_ms / 1e3);

  const uint64_t rows =
      result.ok() ? std::max<uint64_t>(result->rows.size(),
                                       result->rows_affected)
                  : 0;
  if (stmt_stats_->Record(ctx->key, elapsed_ms, rows, !result.ok())) {
    metrics_->IncrementCounter(obs::kStatementStatsEvictions);
  }

  if (slow_armed && result.ok() && elapsed_ms >= slow_query_ms_) {
    obs::SlowQueryEntry entry;
    entry.statement = ctx->key;
    entry.elapsed_ms = elapsed_ms;
    entry.threshold_ms = slow_query_ms_;
    entry.rows = rows;
    entry.plan =
        Join(obs::RenderPlanLines(plan, /*with_stats=*/true), "\n");
    slow_log_.Record(std::move(entry));
  }
  if (ctx->profile_plan != nullptr && result.ok()) {
    *ctx->profile_plan = std::move(plan);
  }

  if (ctx->tracing) {
    if (ctx->trace.spans.size() == spans_before) {
      // No fine-grained spans were recorded (DDL and SET run no operator
      // tree): cover the body with one coarse execute span.
      ctx->trace.spans.push_back(
          {"execute", "phase", body_start, end_ns - body_start});
    }
    ctx->trace.statement = std::move(ctx->key);
    ctx->trace.dur_ns = dur_ns;
    ctx->trace.rows = rows;
    ctx->trace.error = !result.ok();
    trace_.Record(std::move(ctx->trace));
  }
  return result;
}

std::string Database::TraceJson() const {
  return obs::ChromeTraceJson(trace_.Snapshot());
}

Status Database::ExportTrace(const std::string& path) const {
  const std::string json = TraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open trace file '" + path + "'");
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::Internal("short write to trace file '" + path + "'");
  }
  return Status::OK();
}

Result<QueryResult> Database::DispatchStatement(const sql::Statement& stmt,
                                                obs::PlanStatsNode* profile,
                                                std::span<const Value> args) {
  if (HasPlan(stmt)) return RunPlanned(stmt, profile, args);
  if (stmt.kind == sql::StatementKind::kExplain) return RunExplain(stmt);
  // The rest run no operator: a profiled one reports its described root,
  // without stats. The root is described before the statement runs.
  if (profile != nullptr) {
    BORNSQL_ASSIGN_OR_RETURN(*profile, DescribeRoot(stmt));
  }
  switch (stmt.kind) {
    case sql::StatementKind::kCreateTable:
      return RunCreateTable(*stmt.create_table);
    case sql::StatementKind::kDropTable:
      return RunDropTable(*stmt.drop_table);
    case sql::StatementKind::kCreateIndex:
      return RunCreateIndex(*stmt.create_index);
    case sql::StatementKind::kSet:
      return RunSet(*stmt.set);
    default:
      return ServingSessionRequired();  // PREPARE, EXECUTE, DEALLOCATE
  }
}

bool Database::ComposedViews::IsSystemView(const std::string& name) const {
  return (db_->extra_views_ != nullptr &&
          db_->extra_views_->IsSystemView(name)) ||
         db_->system_views_.IsSystemView(name);
}

exec::OperatorPtr Database::ComposedViews::MakeViewScan(
    const std::string& name, const std::string& qualifier) const {
  if (db_->extra_views_ != nullptr && db_->extra_views_->IsSystemView(name)) {
    return db_->extra_views_->MakeViewScan(name, qualifier);
  }
  return db_->system_views_.MakeViewScan(name, qualifier);
}

Planner Database::MakePlanner(std::span<const Value> args) {
  Planner planner(catalog_, &config_, &composed_views_, &opt_stats_, &trace_,
                  active_trace_);
  planner.set_memory_budget(mem_parent_, query_mem_limit_);
  planner.set_arguments(args);
  return planner;
}

std::string Database::IndexJoinNote() const {
  if (!config_.use_index_joins ||
      config_.join_strategy == JoinStrategy::kHash) {
    return "";
  }
  return StrFormat(
      "note: use_index_joins is ignored under the %s join strategy "
      "(index joins require join_strategy = hash)",
      config_.join_strategy == JoinStrategy::kSortMerge ? "sort-merge"
                                                        : "nested-loop");
}

std::vector<std::string> KnownSettingNames() {
  return {"born.collect_exec_stats", "born.memory_limit", "born.plan_cache",
          "born.plan_cache_capacity", "born.session_memory_limit",
          "born.slow_query_ms", "born.trace", "born.trace_capacity",
          "born.vector_size", "born.verify_chunks", "born.verify_plans",
          "born.verify_rewrites"};
}

namespace {

// The verify_* knobs are strict booleans: only the literal values 0 and 1
// are accepted. Anything else (SET born.verify_chunks = 2, = 'yes',
// = 0.5) is a typo that would otherwise silently arm or disarm a
// verifier, so it surfaces a diagnostic naming the accepted settings.
Result<bool> StrictVerifySetting(const std::string& name,
                                 const Value& value) {
  const auto reject = [&]() {
    return Status::InvalidArgument(StrFormat(
        "invalid value %s for %s; accepted settings: 0 (off), 1 (on)",
        value.ToString().c_str(), name.c_str()));
  };
  if (value.is_null()) return reject();
  if (value.is_double() && value.AsDouble() != 0.0 &&
      value.AsDouble() != 1.0) {
    return reject();
  }
  Result<Value> v = value.CoerceTo(ValueType::kInt);
  if (!v.ok()) return reject();
  const int64_t n = v->AsInt();
  if (n != 0 && n != 1) return reject();
  return n == 1;
}

}  // namespace

Result<QueryResult> Database::RunSet(const sql::SetStmt& stmt) {
  BORNSQL_ASSIGN_OR_RETURN(Value value, EvalConstExpr(*stmt.value));
  constexpr std::string_view kOptPrefix = "born.opt.";
  if (stmt.name.size() > kOptPrefix.size() &&
      std::string_view(stmt.name).substr(0, kOptPrefix.size()) == kOptPrefix) {
    const std::string rule = stmt.name.substr(kOptPrefix.size());
    bool* flag = OptimizerRuleFlag(&config_.rules, rule);
    if (flag == nullptr) {
      if (rule == "cte_inline") {
        return Status::InvalidArgument(
            "optimizer rule 'cte_inline' has no born.opt flag: it is driven "
            "by the CTE mode (EngineConfig::materialize_ctes)");
      }
      std::vector<std::string> valid;
      for (const std::string& name : OptimizerRuleNames()) {
        if (OptimizerRuleFlag(&config_.rules, name) != nullptr) {
          valid.push_back(name);
        }
      }
      return Status::InvalidArgument("unknown optimizer rule '" + rule +
                                     "'; valid rules: " + Join(valid, ", "));
    }
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    *flag = v.AsInt() != 0;
    return QueryResult{};
  }
  if (stmt.name == "born.slow_query_ms") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kDouble));
    slow_query_ms_ = v.AsDouble();
  } else if (stmt.name == "born.trace") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    trace_enabled_ = v.AsInt() != 0;
  } else if (stmt.name == "born.trace_capacity") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    if (v.AsInt() < 1) {
      return Status::InvalidArgument("born.trace_capacity must be >= 1");
    }
    trace_.set_capacity(static_cast<size_t>(v.AsInt()));
  } else if (stmt.name == "born.collect_exec_stats") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    config_.collect_exec_stats = v.AsInt() != 0;
  } else if (stmt.name == "born.vector_size") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    if (v.AsInt() < 1) {
      return Status::InvalidArgument(
          "born.vector_size must be >= 1 (1 = tuple-at-a-time execution)");
    }
    config_.vector_size =
        std::min(static_cast<size_t>(v.AsInt()),
                 exec::Operator::kMaxVectorSize);
  } else if (stmt.name == "born.verify_plans") {
    BORNSQL_ASSIGN_OR_RETURN(bool on, StrictVerifySetting(stmt.name, value));
    config_.verify_plans = on;
  } else if (stmt.name == "born.verify_rewrites") {
    BORNSQL_ASSIGN_OR_RETURN(bool on, StrictVerifySetting(stmt.name, value));
    config_.verify_rewrites = on;
  } else if (stmt.name == "born.verify_chunks") {
    BORNSQL_ASSIGN_OR_RETURN(bool on, StrictVerifySetting(stmt.name, value));
    config_.verify_chunks = on;
  } else if (stmt.name == "born.memory_limit") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    if (v.AsInt() < 0) {
      return Status::InvalidArgument(
          "born.memory_limit must be >= 0 bytes (0 = unlimited)");
    }
    query_mem_limit_ = static_cast<uint64_t>(v.AsInt());
  } else if (stmt.name == "born.plan_cache" ||
             stmt.name == "born.plan_cache_capacity" ||
             stmt.name == "born.session_memory_limit") {
    // Recognized so the diagnostic is accurate: these settings exist, but
    // they configure the serving layer (cache / session tracker), which
    // intercepts SET before it reaches a bare database.
    return Status::InvalidArgument("setting '" + stmt.name +
                                   "' requires a serving session "
                                   "(serve::Session)");
  } else {
    return Status::InvalidArgument(
        "unknown setting '" + stmt.name + "'; valid settings: " +
        Join(KnownSettingNames(), ", ") +
        ", and optimizer rule flags born.opt.<rule>");
  }
  return QueryResult{};
}

Result<QueryResult> Database::RunPlanned(const sql::Statement& stmt,
                                         obs::PlanStatsNode* profile,
                                         std::span<const Value> args) {
  // Binding interleaves with planning in this engine (the planner calls the
  // binder per expression), so the trace gets one merged bind+plan span.
  const uint64_t plan_start = PhaseStart(active_trace_);
  BORNSQL_ASSIGN_OR_RETURN(exec::OperatorPtr tree,
                           MakePlanner(args).PlanStatement(stmt));
  AddPhaseSpan(active_trace_, "bind+plan", plan_start);
  BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks data,
                           ExecPlan(std::move(tree), profile));
  QueryResult out = ToQueryResult(std::move(data));
  if (stmt.kind == sql::StatementKind::kSelect) return out;
  // A write sink's one row is the number of rows it wrote.
  return QueryResult{{}, {}, static_cast<size_t>(out.rows[0][0].AsInt())};
}

Result<exec::MaterializedChunks> Database::ExecPlan(
    exec::OperatorPtr tree, obs::PlanStatsNode* profile) {
  // The query's memory budget. The tree moves into a local declared after
  // it, so the operators' destructors (which release their reservations)
  // run before it dies.
  obs::MemoryTracker query_mem("query", "query", mem_parent_);
  if (query_mem_limit_ > 0) query_mem.set_limit(query_mem_limit_);
  const exec::OperatorPtr plan = std::move(tree);
  if (config_.verify_plans) {
    BORNSQL_RETURN_IF_ERROR(lint::VerifyPlanStatus(*plan));
  }
  plan->SetMemoryTracker(&query_mem);
  plan->SetVectorSize(config_.vector_size);
  // Execution-contract checking (BSV020-025): one verifier per statement,
  // armed at every operator boundary of this tree. Counters accumulate
  // into the database's lifetime totals below, success or failure.
  lint::ChunkVerifier chunk_verifier;
  const bool verify_chunks = config_.verify_chunks;
  if (verify_chunks) plan->SetExecVerifier(&chunk_verifier);
  const bool instrument = profile != nullptr || config_.collect_exec_stats;
  if (instrument) plan->EnableStats(true);
  const uint64_t exec_start = PhaseStart(active_trace_);
  Result<exec::MaterializedChunks> drained = exec::DrainChunks(*plan);
  if (verify_chunks) {
    chunk_verifier_totals_.Add(chunk_verifier.stats());
    ++chunk_verified_queries_;
  }
  AddPhaseSpan(active_trace_, "execute", exec_start);
  if (drained.ok()) {
    // The materialized result buffer is query memory too: charging it
    // gives streaming point lookups a truthful nonzero peak and puts the
    // rows a statement returns under the same limits as its
    // intermediate state. Released by query_mem's destructor. The charge
    // is per row and arithmetically identical to ApproxRowBytes over the
    // materialized rows these chunks stand in for.
    Status charged =
        query_mem.TryReserve(drained->ApproxRowBytes(), "result buffer");
    if (!charged.ok()) drained = std::move(charged);
  }
  // Recorded on failure too: an over-limit query's peak is exactly what
  // the caller wants to see.
  last_query_peak_bytes_ = query_mem.peak();
  if (!drained.ok()) return drained.status();
  if (instrument) {
    std::unordered_set<const exec::Operator*> seen;
    FoldPlanStats(metrics_, trace_, active_trace_, *plan, &seen);
    if (profile != nullptr) *profile = CapturePlan(*plan);
  }
  return drained;
}

Result<obs::PlanStatsNode> Database::DescribePlan(const sql::Statement& stmt) {
  if (!HasPlan(stmt)) return DescribeRoot(stmt);
  BORNSQL_ASSIGN_OR_RETURN(exec::OperatorPtr plan,
                           MakePlanner().PlanStatement(stmt));
  return CapturePlan(*plan);
}

Result<obs::PlanStatsNode> Database::DescribeRoot(const sql::Statement& stmt) {
  obs::PlanStatsNode root;
  switch (stmt.kind) {
    case sql::StatementKind::kCreateTable:
      root.name = StrFormat("CreateTable(%s, %zu columns)",
                            stmt.create_table->table.c_str(),
                            stmt.create_table->columns.size());
      return root;
    case sql::StatementKind::kDropTable:
      root.name = StrFormat("DropTable(%s)", stmt.drop_table->table.c_str());
      return root;
    case sql::StatementKind::kCreateIndex: {
      const sql::CreateIndexStmt& ci = *stmt.create_index;
      BORNSQL_RETURN_IF_ERROR(catalog_->GetTable(ci.table).status());
      root.name = StrFormat("Create%sIndex(%s ON %s)",
                            ci.unique ? "Unique" : "", ci.name.c_str(),
                            ci.table.c_str());
      return root;
    }
    case sql::StatementKind::kSet:
      root.name = StrFormat("Set(%s)", stmt.set->name.c_str());
      return root;
    default:  // PREPARE, EXECUTE, DEALLOCATE (nested EXPLAIN never parses)
      return ServingSessionRequired();
  }
}

Result<QueryResult> Database::RunExplain(const sql::Statement& stmt) {
  assert(stmt.explained != nullptr);
  if (stmt.explain_verify) return RunExplainVerify(*stmt.explained);
  if (stmt.explain_lint) return RunExplainLint(*stmt.explained);
  if (stmt.explain_logical) return RunExplainLogical(*stmt.explained);
  obs::PlanStatsNode plan;
  if (stmt.explain_analyze) {
    BORNSQL_RETURN_IF_ERROR(DispatchStatement(*stmt.explained, &plan).status());
  } else {
    BORNSQL_ASSIGN_OR_RETURN(plan, DescribePlan(*stmt.explained));
  }
  std::vector<std::string> lines =
      obs::RenderPlanLines(plan, /*with_stats=*/stmt.explain_analyze);
  if (std::string note = IndexJoinNote(); !note.empty()) {
    lines.push_back(std::move(note));
  }
  return TextRows("plan", std::move(lines));
}

Result<QueryResult> Database::RunExplainLogical(const sql::Statement& stmt) {
  // Only statements with an embedded SELECT have a logical plan.
  const sql::SelectStmt* select = EmbeddedSelect(stmt);
  if (select == nullptr) {
    return TextRows("plan",
                    {"statement has no logical plan (no embedded SELECT)"});
  }
  Planner planner = MakePlanner();
  // Two independent builds: the "before" tree stays naive (CTE bodies
  // included), the "after" tree runs the full rule pipeline.
  BORNSQL_ASSIGN_OR_RETURN(
      plan::LogicalPlan before,
      planner.BuildLogical(*select, /*optimize_ctes=*/false));
  BORNSQL_ASSIGN_OR_RETURN(plan::LogicalPlan after,
                           planner.BuildLogical(*select));
  BORNSQL_RETURN_IF_ERROR(planner.OptimizeLogical(&after));
  std::vector<std::string> lines = {"logical plan (before rules):"};
  for (std::string& line : plan::RenderLogicalLines(before)) {
    lines.push_back("  " + std::move(line));
  }
  lines.push_back("logical plan (after rules):");
  for (std::string& line : plan::RenderLogicalLines(after)) {
    lines.push_back("  " + std::move(line));
  }
  if (std::string note = IndexJoinNote(); !note.empty()) {
    lines.push_back(std::move(note));
  }
  return TextRows("plan", std::move(lines));
}

Result<QueryResult> Database::RunExplainVerify(const sql::Statement& stmt) {
  // DDL and SET run as direct calls, with no operator tree to walk.
  if (!HasPlan(stmt)) {
    return TextRows("verify", {"ok: statement has no operator plan to verify"});
  }
  Planner planner = MakePlanner();
  // Plan with translation validation armed and collecting (violations are
  // reported here rather than failing the statement), regardless of the
  // session's verify_rewrites setting: EXPLAIN VERIFY exists to show the
  // evidence.
  RewriteValidationLog vlog;
  planner.set_validation_log(&vlog);
  const bool saved_verify_rewrites = config_.verify_rewrites;
  config_.verify_rewrites = true;
  Result<exec::OperatorPtr> planned = planner.PlanStatement(stmt);
  config_.verify_rewrites = saved_verify_rewrites;
  if (!planned.ok()) return planned.status();
  size_t checks = 0;
  const std::vector<lint::Diagnostic> diags =
      lint::VerifyPlan(**planned, &checks);
  std::vector<std::string> lines;
  AddDiagnosticLines(
      diags, StrFormat("ok: %zu invariant checks, 0 violations", checks),
      &lines);
  AddDiagnosticLines(
      vlog.diags,
      StrFormat("ok: %zu rule applications translation-validated (%zu "
                "checks), 0 violations",
                vlog.applications, vlog.checks),
      &lines);
  // Cumulative execution-contract verification counters for this database
  // (the same numbers born_stat_verifier exposes as a queryable view).
  lines.push_back(StrFormat(
      "chunk verifier (BSV020-025): %s; lifetime: %llu queries verified, "
      "%llu chunks, %llu rows, %llu checks, %llu violations",
      config_.verify_chunks ? "on" : "off",
      static_cast<unsigned long long>(chunk_verified_queries_),
      static_cast<unsigned long long>(chunk_verifier_totals_.chunks_checked),
      static_cast<unsigned long long>(chunk_verifier_totals_.rows_checked),
      static_cast<unsigned long long>(chunk_verifier_totals_.checks_run),
      static_cast<unsigned long long>(chunk_verifier_totals_.violations)));
  return TextRows("verify", std::move(lines));
}

Result<QueryResult> Database::RunExplainLint(const sql::Statement& stmt) {
  std::vector<std::string> lines;
  AddDiagnosticLines(lint::LintStatement(stmt, catalog_),
                     "ok: no lint findings", &lines);
  return TextRows("lint", std::move(lines));
}

Result<QueryResult> Database::RunCreateTable(
    const sql::CreateTableStmt& stmt) {
  Schema schema;
  std::vector<size_t> key_columns;
  for (size_t i = 0; i < stmt.columns.size(); ++i) {
    const sql::ColumnDef& def = stmt.columns[i];
    schema.Add(Column{stmt.table, def.name, def.type});
    if (def.primary_key) key_columns.push_back(i);
  }
  for (const std::string& pk : stmt.primary_key) {
    size_t idx = schema.FindUnqualified(pk);
    if (idx == Schema::kNpos) {
      return Status::BindError("PRIMARY KEY column '" + pk +
                               "' is not a column of the table");
    }
    key_columns.push_back(idx);
  }
  BORNSQL_RETURN_IF_ERROR(catalog_
                              ->CreateTable(stmt.table, std::move(schema),
                                            std::move(key_columns),
                                            stmt.if_not_exists)
                              .status());
  return QueryResult{};
}

Result<QueryResult> Database::RunDropTable(const sql::DropTableStmt& stmt) {
  BORNSQL_RETURN_IF_ERROR(catalog_->DropTable(stmt.table, stmt.if_exists));
  return QueryResult{};
}

Result<QueryResult> Database::RunCreateIndex(const sql::CreateIndexStmt& stmt) {
  BORNSQL_ASSIGN_OR_RETURN(storage::Table * table,
                           catalog_->GetTable(stmt.table));
  std::vector<size_t> cols;
  for (const std::string& name : stmt.columns) {
    size_t idx = table->schema().FindUnqualified(name);
    if (idx == Schema::kNpos) {
      return Status::BindError("index column '" + name +
                               "' is not a column of '" + stmt.table + "'");
    }
    cols.push_back(idx);
  }
  if (stmt.unique) {
    BORNSQL_RETURN_IF_ERROR(table->SetUniqueKey(std::move(cols)));
  } else {
    table->AddSecondaryIndex(std::move(cols));
  }
  // DDL: a new index can change join strategy choices, so cached plans
  // built against the old version must never be reused.
  catalog_->BumpVersion();
  return QueryResult{};
}

}  // namespace bornsql::engine
