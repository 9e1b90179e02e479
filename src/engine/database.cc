#include "engine/database.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <unordered_set>

#include "common/strings.h"
#include "common/timer.h"
#include "engine/binder.h"
#include "engine/optimizer.h"
#include "engine/parameters.h"
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
// join's probe input. `seen` dedupes CTE subtrees shared by several gates.
void AccumulatePlanMetrics(obs::MetricsRegistry* metrics,
                           const exec::Operator& op,
                           std::unordered_set<const exec::Operator*>* seen) {
  if (!seen->insert(&op).second) return;
  const std::string type = obs::OperatorTypeOf(op.DebugString());
  metrics->RecordOperator(type, op.stats());
  if (type == "SeqScan" || type == "MaterializedScan" || type == "CteScan") {
    metrics->IncrementCounter(obs::kRowsScanned, op.stats().rows_emitted);
  }
  const std::vector<exec::Operator*> children = op.children();
  const bool is_join = type == "HashJoin" || type == "SortMergeJoin" ||
                       type == "NestedLoopJoin" || type == "IndexJoin";
  if (is_join && !children.empty() && children.front() != nullptr) {
    metrics->IncrementCounter(obs::kJoinProbes,
                              children.front()->stats().rows_emitted);
  }
  for (const exec::Operator* child : children) {
    if (child != nullptr) AccumulatePlanMetrics(metrics, *child, seen);
  }
}

// Synthetic stats for DML root nodes (Insert/Update/Delete), which are not
// iterator operators: one "open", rows_affected as the row count, and the
// statement's total wall time.
obs::OperatorStats DmlStats(size_t rows_affected, double elapsed_seconds) {
  obs::OperatorStats stats;
  stats.open_calls = 1;
  stats.rows_emitted = rows_affected;
  stats.wall_nanos = static_cast<uint64_t>(elapsed_seconds * 1e9);
  return stats;
}

// The SELECT a statement embeds (SELECT, INSERT ... SELECT, CREATE TABLE
// ... AS), or null: the statements with an operator tree and a logical
// plan.
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

Status ServingSessionRequired() {
  // Prepared-statement state is per session, not per database.
  return Status::InvalidArgument(
      "PREPARE/EXECUTE/DEALLOCATE require a serving session "
      "(serve::Session)");
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

// Appends one trace span per instrumented operator, using the lifetime
// interval (first/last hook timestamps) each operator's stats collected.
// `seen` dedupes CTE subtrees shared by several gates.
void AppendOperatorSpans(const obs::TraceRecorder& recorder,
                         const exec::Operator& op, obs::StatementTrace* trace,
                         std::unordered_set<const exec::Operator*>* seen) {
  if (!seen->insert(&op).second) return;
  const obs::OperatorStats& stats = op.stats();
  if (stats.first_ns != 0) {
    obs::TraceSpan span;
    span.name = op.DebugString();
    span.category = "operator";
    span.start_ns = recorder.RelativeNs(stats.first_ns);
    span.dur_ns = stats.last_ns > stats.first_ns
                      ? stats.last_ns - stats.first_ns
                      : 0;
    trace->spans.push_back(std::move(span));
  }
  for (const exec::Operator* child : op.children()) {
    if (child != nullptr) AppendOperatorSpans(recorder, *child, trace, seen);
  }
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
                                            std::string key) {
  StatementContext ctx = BeginStatement(std::move(key));
  return ExecuteTracked(stmt.kind, &ctx, [&](obs::PlanStatsNode* profile) {
    return DispatchStatement(stmt, profile);
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
        // The clone dies once lowered, as PlanSelect's plan does: the tree
        // then owns its CTE cells alone, so they release their memory
        // before ExecPlan's tracker dies.
        exec::OperatorPtr tree;
        {
          const uint64_t subst_start = PhaseStart(active_trace_);
          plan::LogicalPlan plan = plan::ClonePlanDeep(cached);
          BORNSQL_RETURN_IF_ERROR(SubstituteParamsInPlan(&plan, args));
          AddPhaseSpan(active_trace_, "substitute", subst_start);
          const uint64_t lower_start = PhaseStart(active_trace_);
          BORNSQL_ASSIGN_OR_RETURN(tree, MakePlanner().LowerLogical(plan));
          AddPhaseSpan(active_trace_, "lower", lower_start);
        }
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
      // No fine-grained spans were recorded (pure-DML path without an
      // embedded SELECT): cover the body with one coarse execute span.
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
                                                obs::PlanStatsNode* profile) {
  if (stmt.kind == sql::StatementKind::kSelect) {
    return RunSelect(*stmt.select, profile);
  }
  if (stmt.kind == sql::StatementKind::kExplain) return RunExplain(stmt);
  // The root node is described before the statement mutates anything;
  // its stats and the embedded SELECT's annotated plan are added after.
  WallTimer timer;
  obs::PlanStatsNode root;
  obs::PlanStatsNode select_plan;
  obs::PlanStatsNode* select_profile = nullptr;
  if (profile != nullptr) {
    BORNSQL_ASSIGN_OR_RETURN(root, DescribeRoot(stmt));
    select_profile = &select_plan;
  }
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    switch (stmt.kind) {
      case sql::StatementKind::kCreateTable:
        return RunCreateTable(*stmt.create_table, select_profile);
      case sql::StatementKind::kDropTable:
        return RunDropTable(*stmt.drop_table);
      case sql::StatementKind::kCreateIndex:
        return RunCreateIndex(*stmt.create_index);
      case sql::StatementKind::kInsert:
        return RunInsert(*stmt.insert, select_profile);
      case sql::StatementKind::kUpdate:
        return RunUpdate(*stmt.update);
      case sql::StatementKind::kDelete:
        return RunDelete(*stmt.del);
      case sql::StatementKind::kSet:
        return RunSet(*stmt.set);
      case sql::StatementKind::kPrepare:
      case sql::StatementKind::kExecute:
      case sql::StatementKind::kDeallocate:
        return ServingSessionRequired();
      case sql::StatementKind::kSelect:
      case sql::StatementKind::kExplain:
        break;  // dispatched above
    }
    return Status::Internal("bad statement kind");
  }();
  if (profile == nullptr || !result.ok()) return result;
  root.has_stats = true;
  root.stats = DmlStats(result->rows_affected, timer.ElapsedSeconds());
  if (!select_plan.name.empty()) {
    root.children.push_back(std::move(select_plan));
  }
  *profile = std::move(root);
  return result;
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

Planner Database::MakePlanner() {
  return Planner(catalog_, &config_, &composed_views_, &opt_stats_, &trace_,
                 active_trace_);
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

Result<QueryResult> Database::RunSelect(const sql::SelectStmt& stmt,
                                        obs::PlanStatsNode* profile) {
  BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks data,
                           ExecSelect(stmt, profile));
  return ToQueryResult(std::move(data));
}

Result<exec::MaterializedChunks> Database::ExecSelect(
    const sql::SelectStmt& stmt, obs::PlanStatsNode* profile) {
  // Binding interleaves with planning in this engine (the planner calls the
  // binder per expression), so the trace gets one merged bind+plan span.
  const uint64_t plan_start = PhaseStart(active_trace_);
  BORNSQL_ASSIGN_OR_RETURN(exec::OperatorPtr tree,
                           MakePlanner().PlanSelect(stmt));
  AddPhaseSpan(active_trace_, "bind+plan", plan_start);
  return ExecPlan(std::move(tree), profile);
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
    uint64_t result_bytes = 0;
    for (const exec::DataChunk& chunk : drained->chunks) {
      result_bytes += chunk.ApproxBytes() + chunk.size() * sizeof(Row);
    }
    Status charged = query_mem.TryReserve(result_bytes, "result buffer");
    if (!charged.ok()) drained = std::move(charged);
  }
  // Recorded on failure too: an over-limit query's peak is exactly what
  // the caller wants to see.
  last_query_peak_bytes_ = query_mem.peak();
  if (!drained.ok()) return drained.status();
  if (instrument) {
    std::unordered_set<const exec::Operator*> seen;
    AccumulatePlanMetrics(metrics_, *plan, &seen);
    if (profile != nullptr) *profile = CapturePlan(*plan);
    if (active_trace_ != nullptr) {
      std::unordered_set<const exec::Operator*> span_seen;
      AppendOperatorSpans(trace_, *plan, active_trace_, &span_seen);
    }
  }
  return drained;
}

Result<obs::PlanStatsNode> Database::DescribePlan(const sql::Statement& stmt) {
  obs::PlanStatsNode root;
  if (stmt.kind != sql::StatementKind::kSelect) {
    BORNSQL_ASSIGN_OR_RETURN(root, DescribeRoot(stmt));
  }
  const sql::SelectStmt* select = EmbeddedSelect(stmt);
  if (select == nullptr) return root;
  BORNSQL_ASSIGN_OR_RETURN(exec::OperatorPtr plan,
                           MakePlanner().PlanSelect(*select));
  if (stmt.kind == sql::StatementKind::kSelect) return CapturePlan(*plan);
  root.children.push_back(CapturePlan(*plan));
  return root;
}

Result<obs::PlanStatsNode> Database::DescribeRoot(const sql::Statement& stmt) {
  obs::PlanStatsNode root;
  switch (stmt.kind) {
    case sql::StatementKind::kInsert: {
      const sql::InsertStmt& ins = *stmt.insert;
      BORNSQL_RETURN_IF_ERROR(catalog_->GetTable(ins.table).status());
      root.name = StrFormat("Insert(%s%s)", ins.table.c_str(),
                            ins.on_conflict != nullptr ? ", on conflict" : "");
      if (ins.select == nullptr) {
        obs::PlanStatsNode values;
        values.name = StrFormat("Values(%zu rows)", ins.values.size());
        root.children.push_back(std::move(values));
      }
      return root;
    }
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete: {
      const bool is_update = stmt.kind == sql::StatementKind::kUpdate;
      const std::string& table_name =
          is_update ? stmt.update->table : stmt.del->table;
      const sql::Expr* where =
          is_update ? stmt.update->where.get() : stmt.del->where.get();
      BORNSQL_ASSIGN_OR_RETURN(storage::Table * table,
                               catalog_->GetTable(table_name));
      root.name = is_update
                      ? StrFormat("Update(%s, %zu set clauses)",
                                  table_name.c_str(),
                                  stmt.update->set_clauses.size())
                      : StrFormat("Delete(%s)", table_name.c_str());
      // UPDATE and DELETE scan the table directly rather than through
      // operators; the synthetic scan examines every row it holds before
      // the statement runs (the counts EXPLAIN ANALYZE shows).
      obs::PlanStatsNode scan;
      scan.name = StrFormat("SeqScan(%s, %zu rows)", table_name.c_str(),
                            table->row_count());
      scan.has_stats = true;
      scan.stats.open_calls = 1;
      scan.stats.rows_emitted = table->row_count();
      scan.stats.next_calls = table->row_count();
      if (where != nullptr) {
        obs::PlanStatsNode filter;
        filter.name = "Filter";
        filter.children.push_back(std::move(scan));
        root.children.push_back(std::move(filter));
      } else {
        root.children.push_back(std::move(scan));
      }
      return root;
    }
    case sql::StatementKind::kCreateTable: {
      const sql::CreateTableStmt& ct = *stmt.create_table;
      root.name = ct.as_select != nullptr
                      ? StrFormat("CreateTableAs(%s)", ct.table.c_str())
                      : StrFormat("CreateTable(%s, %zu columns)",
                                  ct.table.c_str(), ct.columns.size());
      return root;
    }
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
    case sql::StatementKind::kPrepare:
    case sql::StatementKind::kExecute:
    case sql::StatementKind::kDeallocate:
      return ServingSessionRequired();
    case sql::StatementKind::kSelect:
    case sql::StatementKind::kExplain:
      break;  // SELECT has a real plan; the parser rejects nested EXPLAIN
  }
  return Status::Internal("bad statement kind in EXPLAIN");
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
  QueryResult out;
  out.column_names = {"plan"};
  for (std::string& line :
       obs::RenderPlanLines(plan, /*with_stats=*/stmt.explain_analyze)) {
    out.rows.push_back({Value::Text(std::move(line))});
  }
  if (std::string note = IndexJoinNote(); !note.empty()) {
    out.rows.push_back({Value::Text(std::move(note))});
  }
  return out;
}

Result<QueryResult> Database::RunExplainLogical(const sql::Statement& stmt) {
  // Only statements with an embedded SELECT have a logical plan.
  const sql::SelectStmt* select = EmbeddedSelect(stmt);
  QueryResult out;
  out.column_names = {"plan"};
  if (select == nullptr) {
    out.rows.push_back(
        {Value::Text("statement has no logical plan (no embedded SELECT)")});
    return out;
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
  out.rows.push_back({Value::Text("logical plan (before rules):")});
  for (std::string& line : plan::RenderLogicalLines(before)) {
    out.rows.push_back({Value::Text("  " + std::move(line))});
  }
  out.rows.push_back({Value::Text("logical plan (after rules):")});
  for (std::string& line : plan::RenderLogicalLines(after)) {
    out.rows.push_back({Value::Text("  " + std::move(line))});
  }
  if (std::string note = IndexJoinNote(); !note.empty()) {
    out.rows.push_back({Value::Text(std::move(note))});
  }
  return out;
}

Result<QueryResult> Database::RunExplainVerify(const sql::Statement& stmt) {
  // Only statements with an embedded SELECT have an operator tree; the
  // remaining kinds (INSERT VALUES, UPDATE, DELETE, DDL) execute through
  // dedicated non-operator paths with nothing for the verifier to walk.
  const sql::SelectStmt* select = EmbeddedSelect(stmt);
  QueryResult out;
  out.column_names = {"verify"};
  if (select == nullptr) {
    out.rows.push_back(
        {Value::Text("ok: statement has no operator plan to verify")});
    return out;
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
  Result<exec::OperatorPtr> planned = planner.PlanSelect(*select);
  config_.verify_rewrites = saved_verify_rewrites;
  if (!planned.ok()) return planned.status();
  exec::OperatorPtr plan = std::move(*planned);
  size_t checks = 0;
  const std::vector<lint::Diagnostic> diags = lint::VerifyPlan(*plan, &checks);
  if (diags.empty()) {
    out.rows.push_back({Value::Text(
        StrFormat("ok: %zu invariant checks, 0 violations", checks))});
  } else {
    for (const lint::Diagnostic& d : diags) {
      out.rows.push_back({Value::Text(lint::FormatDiagnostic(d))});
    }
  }
  if (vlog.diags.empty()) {
    out.rows.push_back({Value::Text(StrFormat(
        "ok: %zu rule applications translation-validated (%zu checks), "
        "0 violations",
        vlog.applications, vlog.checks))});
  } else {
    for (const lint::Diagnostic& d : vlog.diags) {
      out.rows.push_back({Value::Text(lint::FormatDiagnostic(d))});
    }
  }
  // Cumulative execution-contract verification counters for this database
  // (the same numbers born_stat_verifier exposes as a queryable view).
  out.rows.push_back({Value::Text(StrFormat(
      "chunk verifier (BSV020-025): %s; lifetime: %llu queries verified, "
      "%llu chunks, %llu rows, %llu checks, %llu violations",
      config_.verify_chunks ? "on" : "off",
      static_cast<unsigned long long>(chunk_verified_queries_),
      static_cast<unsigned long long>(chunk_verifier_totals_.chunks_checked),
      static_cast<unsigned long long>(chunk_verifier_totals_.rows_checked),
      static_cast<unsigned long long>(chunk_verifier_totals_.checks_run),
      static_cast<unsigned long long>(chunk_verifier_totals_.violations)))});
  return out;
}

Result<QueryResult> Database::RunExplainLint(const sql::Statement& stmt) {
  const std::vector<lint::Diagnostic> diags =
      lint::LintStatement(stmt, catalog_);
  QueryResult out;
  out.column_names = {"lint"};
  if (diags.empty()) {
    out.rows.push_back({Value::Text("ok: no lint findings")});
  } else {
    for (const lint::Diagnostic& d : diags) {
      out.rows.push_back({Value::Text(lint::FormatDiagnostic(d))});
    }
  }
  return out;
}

Result<QueryResult> Database::RunCreateTable(const sql::CreateTableStmt& stmt,
                                             obs::PlanStatsNode* profile) {
  if (stmt.as_select != nullptr) {
    BORNSQL_ASSIGN_OR_RETURN(QueryResult data,
                             RunSelect(*stmt.as_select, profile));
    Schema schema;
    for (const std::string& name : data.column_names) {
      schema.Add(Column{stmt.table, name, ValueType::kNull});
    }
    if (stmt.if_not_exists && catalog_->Exists(stmt.table)) {
      QueryResult out;
      return out;
    }
    BORNSQL_ASSIGN_OR_RETURN(
        storage::Table * table,
        catalog_->CreateTable(stmt.table, std::move(schema), {}, false));
    for (Row& row : data.rows) table->AppendUnchecked(std::move(row));
    QueryResult out;
    out.rows_affected = table->row_count();
    return out;
  }

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

Status Database::CoerceRow(const storage::Table& table, Row* row) const {
  const Schema& schema = table.schema();
  assert(row->size() == schema.size());
  for (size_t i = 0; i < row->size(); ++i) {
    ValueType target = schema.column(i).type;
    if (target == ValueType::kNull) continue;  // dynamic column
    BORNSQL_ASSIGN_OR_RETURN((*row)[i], (*row)[i].CoerceTo(target));
  }
  return Status::OK();
}

Result<QueryResult> Database::RunInsert(const sql::InsertStmt& stmt,
                                        obs::PlanStatsNode* profile) {
  BORNSQL_ASSIGN_OR_RETURN(storage::Table * table,
                           catalog_->GetTable(stmt.table));
  const Schema& schema = table->schema();

  // Map provided column names to positions (default: table order).
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.size(); ++i) positions.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      size_t idx = schema.FindUnqualified(name);
      if (idx == Schema::kNpos) {
        return Status::BindError("column '" + name +
                                 "' is not a column of '" + stmt.table + "'");
      }
      positions.push_back(idx);
    }
  }

  // Produce the incoming rows.
  std::vector<Row> incoming;
  if (!stmt.values.empty()) {
    Schema empty;
    Row no_input;
    for (const auto& exprs : stmt.values) {
      if (exprs.size() != positions.size()) {
        return Status::BindError(
            StrFormat("INSERT expects %zu values per row, got %zu",
                      positions.size(), exprs.size()));
      }
      Row row(schema.size());
      for (size_t i = 0; i < exprs.size(); ++i) {
        sql::ExprPtr folded = sql::CloneExpr(*exprs[i]);
        Planner planner = MakePlanner();
        BORNSQL_RETURN_IF_ERROR(planner.FoldSubqueries(folded.get()));
        BORNSQL_ASSIGN_OR_RETURN(exec::BoundExprPtr bound,
                                 BindExpr(*folded, empty));
        BORNSQL_ASSIGN_OR_RETURN(row[positions[i]],
                                 exec::Eval(*bound, no_input));
      }
      incoming.push_back(std::move(row));
    }
  } else {
    // The select's output stays chunked: each inserted row is built exactly
    // once, remapped into table column order with values moved out of the
    // buffered columns. (The chunks are fully materialized before any row
    // is inserted, so a select reading the target table sees its
    // pre-statement contents.)
    BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks data,
                             ExecSelect(*stmt.select, profile));
    if (data.row_count > 0 && data.schema.size() != positions.size()) {
      return Status::BindError(
          StrFormat("INSERT expects %zu columns, SELECT produced %zu",
                    positions.size(), data.schema.size()));
    }
    incoming.reserve(data.row_count);
    for (exec::DataChunk& chunk : data.chunks) {
      for (size_t i = 0; i < chunk.size(); ++i) {
        Row row(schema.size());
        for (size_t c = 0; c < positions.size(); ++c) {
          row[positions[c]] = std::move(chunk.column(c)[i]);
        }
        incoming.push_back(std::move(row));
      }
      chunk.Clear();
    }
  }
  for (Row& row : incoming) {
    BORNSQL_RETURN_IF_ERROR(CoerceRow(*table, &row));
  }

  // ON CONFLICT setup.
  exec::BoundExprPtr noop;
  std::vector<std::pair<size_t, exec::BoundExprPtr>> conflict_sets;
  Schema conflict_schema;
  if (stmt.on_conflict != nullptr) {
    if (!table->has_unique_key()) {
      return Status::BindError("ON CONFLICT requires a unique key on '" +
                               stmt.table + "'");
    }
    // The target column set must match the table's unique key.
    std::vector<size_t> targets;
    for (const std::string& name : stmt.on_conflict->target_columns) {
      size_t idx = schema.FindUnqualified(name);
      if (idx == Schema::kNpos) {
        return Status::BindError("ON CONFLICT column '" + name +
                                 "' is not a column of '" + stmt.table + "'");
      }
      targets.push_back(idx);
    }
    std::vector<size_t> key = table->key_columns();
    std::sort(targets.begin(), targets.end());
    std::sort(key.begin(), key.end());
    if (targets != key) {
      return Status::BindError(
          "ON CONFLICT target does not match the table's unique key");
    }
    if (!stmt.on_conflict->do_nothing) {
      // SET expressions see the existing row under the table's name and the
      // incoming row under 'excluded'.
      conflict_schema = schema.WithQualifier(stmt.table);
      for (const Column& c : schema.columns()) {
        conflict_schema.Add(Column{"excluded", c.name, c.type});
      }
      for (const auto& [col, expr] : stmt.on_conflict->set_clauses) {
        size_t idx = schema.FindUnqualified(col);
        if (idx == Schema::kNpos) {
          return Status::BindError("SET column '" + col +
                                   "' is not a column of '" + stmt.table +
                                   "'");
        }
        BORNSQL_ASSIGN_OR_RETURN(exec::BoundExprPtr bound,
                                 BindExpr(*expr, conflict_schema));
        conflict_sets.emplace_back(idx, std::move(bound));
      }
    }
  }

  size_t affected = 0;
  for (Row& row : incoming) {
    if (stmt.on_conflict != nullptr && table->has_unique_key()) {
      size_t existing = table->FindConflict(row);
      if (existing != storage::Table::kNpos) {
        if (stmt.on_conflict->do_nothing) continue;
        // DO UPDATE: evaluate SET expressions over (existing ++ incoming).
        const Row& old_row = table->rows()[existing];
        Row combined;
        combined.reserve(old_row.size() + row.size());
        combined.insert(combined.end(), old_row.begin(), old_row.end());
        combined.insert(combined.end(), row.begin(), row.end());
        Row updated = old_row;
        for (const auto& [idx, expr] : conflict_sets) {
          BORNSQL_ASSIGN_OR_RETURN(updated[idx], exec::Eval(*expr, combined));
        }
        BORNSQL_RETURN_IF_ERROR(CoerceRow(*table, &updated));
        BORNSQL_RETURN_IF_ERROR(table->UpdateRow(existing, std::move(updated)));
        ++affected;
        continue;
      }
    }
    BORNSQL_RETURN_IF_ERROR(table->Insert(std::move(row)));
    ++affected;
  }
  QueryResult out;
  out.rows_affected = affected;
  return out;
}

Result<QueryResult> Database::RunUpdate(const sql::UpdateStmt& stmt) {
  BORNSQL_ASSIGN_OR_RETURN(storage::Table * table,
                           catalog_->GetTable(stmt.table));
  Schema schema = table->schema().WithQualifier(stmt.table);
  Planner planner = MakePlanner();

  exec::BoundExprPtr where;
  if (stmt.where != nullptr) {
    sql::ExprPtr folded = sql::CloneExpr(*stmt.where);
    BORNSQL_RETURN_IF_ERROR(planner.FoldSubqueries(folded.get()));
    BORNSQL_ASSIGN_OR_RETURN(where, BindExpr(*folded, schema));
  }
  std::vector<std::pair<size_t, exec::BoundExprPtr>> sets;
  for (const auto& [col, expr] : stmt.set_clauses) {
    size_t idx = schema.FindUnqualified(col);
    if (idx == Schema::kNpos) {
      return Status::BindError("SET column '" + col +
                               "' is not a column of '" + stmt.table + "'");
    }
    sql::ExprPtr folded = sql::CloneExpr(*expr);
    BORNSQL_RETURN_IF_ERROR(planner.FoldSubqueries(folded.get()));
    BORNSQL_ASSIGN_OR_RETURN(exec::BoundExprPtr bound,
                             BindExpr(*folded, schema));
    sets.emplace_back(idx, std::move(bound));
  }

  // Two-phase: evaluate all updates first so row mutation cannot affect
  // later predicate evaluation.
  std::vector<std::pair<size_t, Row>> updates;
  for (size_t i = 0; i < table->rows().size(); ++i) {
    const Row& row = table->rows()[i];
    if (where != nullptr) {
      BORNSQL_ASSIGN_OR_RETURN(Value v, exec::Eval(*where, row));
      if (v.is_null() || !v.Truthy()) continue;
    }
    Row updated = row;
    for (const auto& [idx, expr] : sets) {
      BORNSQL_ASSIGN_OR_RETURN(updated[idx], exec::Eval(*expr, row));
    }
    BORNSQL_RETURN_IF_ERROR(CoerceRow(*table, &updated));
    updates.emplace_back(i, std::move(updated));
  }
  for (auto& [idx, row] : updates) {
    BORNSQL_RETURN_IF_ERROR(table->UpdateRow(idx, std::move(row)));
  }
  QueryResult out;
  out.rows_affected = updates.size();
  return out;
}

Result<QueryResult> Database::RunDelete(const sql::DeleteStmt& stmt) {
  BORNSQL_ASSIGN_OR_RETURN(storage::Table * table,
                           catalog_->GetTable(stmt.table));
  Schema schema = table->schema().WithQualifier(stmt.table);

  std::vector<bool> flags(table->rows().size(), false);
  if (stmt.where == nullptr) {
    flags.assign(table->rows().size(), true);
  } else {
    Planner planner = MakePlanner();
    sql::ExprPtr folded = sql::CloneExpr(*stmt.where);
    BORNSQL_RETURN_IF_ERROR(planner.FoldSubqueries(folded.get()));
    BORNSQL_ASSIGN_OR_RETURN(exec::BoundExprPtr where,
                             BindExpr(*folded, schema));
    for (size_t i = 0; i < table->rows().size(); ++i) {
      BORNSQL_ASSIGN_OR_RETURN(Value v,
                               exec::Eval(*where, table->rows()[i]));
      flags[i] = !v.is_null() && v.Truthy();
    }
  }
  QueryResult out;
  out.rows_affected = table->DeleteRows(flags);
  return out;
}

}  // namespace bornsql::engine
