// Database: the public entry point of the SQL engine.
//
//   bornsql::engine::Database db;
//   auto st = db.ExecuteScript("CREATE TABLE t (a INTEGER, b TEXT);"
//                              "INSERT INTO t VALUES (1, 'x');");
//   auto res = db.Execute("SELECT a, b FROM t WHERE a = 1");
//   res->rows[0][1].AsText();  // "x"
//
// The engine is single-threaded and non-transactional: each statement
// applies immediately, and a failed multi-row INSERT may leave earlier rows
// inserted (documented divergence from the reference DBMSs; BornSQL's
// algorithm never relies on rollback).
#ifndef BORNSQL_ENGINE_DATABASE_H_
#define BORNSQL_ENGINE_DATABASE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/planner.h"
#include "engine/system_views.h"
#include "lint/chunk_verifier.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/optimizer_stats.h"
#include "obs/plan_stats.h"
#include "obs/statement_stats.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"
#include "sql/ast.h"
#include "types/value.h"

namespace bornsql::engine {

// Names of every SET-able engine setting (excluding the per-rule
// born.opt.<rule> flags), for the unknown-setting diagnostic. The serving
// layer's session settings (born.plan_cache*) are included: they are
// recognized everywhere, valid only through a serve::Session.
std::vector<std::string> KnownSettingNames();

struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  // For DML statements: number of rows inserted/updated/deleted.
  size_t rows_affected = 0;

  // Convenience for tests: the single value of a 1x1 result.
  Result<Value> ScalarValue() const;
};

// Result of ExecuteProfiled: the query's rows plus the annotated plan tree
// (the data behind EXPLAIN ANALYZE, exposed directly so benches can emit
// per-operator breakdowns as JSON without reparsing rendered text).
struct ProfiledQuery {
  QueryResult result;
  obs::PlanStatsNode plan;
};

class Database {
 public:
  Database() : Database(EngineConfig{}) {}
  explicit Database(EngineConfig config) : Database(config, nullptr) {}
  // Serving constructor: when `shared_catalog` is non-null the database
  // uses it instead of owning one, so several session databases can run
  // over one table namespace (serve/server.h). The shared catalog must
  // outlive the database.
  Database(EngineConfig config, catalog::Catalog* shared_catalog)
      : owned_catalog_(shared_catalog != nullptr
                           ? nullptr
                           : std::make_unique<catalog::Catalog>()),
        catalog_(shared_catalog != nullptr ? shared_catalog
                                           : owned_catalog_.get()),
        config_(config) {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Parses and executes one statement.
  Result<QueryResult> Execute(std::string_view sql);

  // Executes a ';'-separated script, discarding SELECT results. Parses
  // every statement before running any; stops at the first error.
  Status ExecuteScript(std::string_view sql);

  // Executes one statement with per-operator instrumentation enabled and
  // returns the stats-annotated plan alongside the result. EXPLAIN ANALYZE
  // is this plus text rendering.
  Result<ProfiledQuery> ExecuteProfiled(std::string_view sql);

  catalog::Catalog& catalog() { return *catalog_; }
  const catalog::Catalog& catalog() const { return *catalog_; }
  EngineConfig& config() { return config_; }
  const EngineConfig& config() const { return config_; }

  // ---- serving hooks (serve/session.h) ----

  // Executes an already-parsed statement under a caller-chosen statement-
  // stats key (sessions prefix keys for per-session attribution). `args`
  // are the statement's arguments: its planner binds `$n` to args[n-1].
  Result<QueryResult> ExecuteParsed(const sql::Statement& stmt,
                                    std::string key,
                                    const std::vector<Value>& args = {});

  // Builds and rule-optimizes the logical plan of a SELECT without lowering
  // or executing it — the artifact the serving plan cache stores. The plan
  // may contain kParameter placeholders; they survive optimization because
  // the binder treats them like literals.
  Result<plan::LogicalPlan> BuildOptimizedPlan(const sql::SelectStmt& stmt);

  // EXECUTE hot path on a cache hit: lowers `cached` with `args` bound to
  // its placeholders and runs it. `cached` is only read, never copied, so
  // sessions may share it; the lowered tree owns its CTE cells alone and
  // frees them before the query's memory tracker dies. The statement trace
  // records only lower / execute phase spans — lex, parse and bind+plan are
  // exactly what the hit skipped.
  Result<QueryResult> ExecuteCachedPlan(const plan::LogicalPlan& cached,
                                        const std::vector<Value>& args,
                                        std::string key);

  // Parent of the per-query MemoryTrackers this database creates: the
  // process root by default, a session tracker under serving (so session
  // bytes and born.session_memory_limit apply). Must outlive the database.
  void set_memory_parent(obs::MemoryTracker* parent) { mem_parent_ = parent; }
  obs::MemoryTracker* memory_parent() const { return mem_parent_; }

  // Byte budget applied to each query's MemoryTracker (SET
  // born.memory_limit; 0 = unlimited).
  uint64_t query_memory_limit() const { return query_mem_limit_; }
  void set_query_memory_limit(uint64_t bytes) { query_mem_limit_ = bytes; }

  // Peak bytes reserved by the most recent statement that ran an operator
  // tree (SELECT, INSERT, UPDATE, DELETE, CREATE TABLE ... AS).
  uint64_t last_query_peak_bytes() const { return last_query_peak_bytes_; }

  // Lifetime totals of the execution-contract chunk verifier across every
  // verified statement this database ran (born_stat_verifier, EXPLAIN
  // VERIFY's cumulative line).
  const lint::ChunkVerifierStats& chunk_verifier_totals() const {
    return chunk_verifier_totals_;
  }
  // Number of statement executions that ran with the verifier armed.
  uint64_t chunk_verified_queries() const { return chunk_verified_queries_; }

  // The metrics sink (process-wide registry by default). Every statement
  // records a latency sample and bumps queries_executed; instrumented runs
  // (collect_exec_stats, EXPLAIN ANALYZE, ExecuteProfiled) also fold in
  // per-operator aggregates, rows_scanned and join_probes.
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  // Per-normalized-statement aggregates (born_stat_statements). Session
  // databases share their server's registry via set_statement_stats.
  const obs::StatementStatsRegistry& statement_stats() const {
    return *stmt_stats_;
  }
  obs::StatementStatsRegistry& statement_stats() { return *stmt_stats_; }
  void set_statement_stats(obs::StatementStatsRegistry* stats) {
    stmt_stats_ = stats;
  }

  // Layers additional system views over the built-in born_stat_* set (the
  // serving layer registers born_stat_prepared / born_stat_sessions /
  // born_stat_plan_cache). The provider is consulted first and must
  // outlive the database.
  void set_extra_system_views(const SystemCatalog* views) {
    extra_views_ = views;
  }

  // Per-optimizer-rule counters (born_stat_optimizer): invocations, fired
  // (invocations that rewrote >= 1 node) and total rewrites per rule.
  const obs::OptimizerStatsRegistry& optimizer_stats() const {
    return opt_stats_;
  }
  obs::OptimizerStatsRegistry& optimizer_stats() { return opt_stats_; }

  // Slow-query log (born_slow_log). Armed via SET born.slow_query_ms = N
  // or set_slow_query_ms; negative disables. While armed, every eligible
  // statement runs instrumented (auto_explain-style) so logged entries
  // carry stats-annotated plans — documented overhead.
  const obs::SlowQueryLog& slow_log() const { return slow_log_; }
  double slow_query_ms() const { return slow_query_ms_; }
  void set_slow_query_ms(double ms) { slow_query_ms_ = ms; }

  // Span-based statement tracing (on by default; SET born.trace = 0 turns
  // it off). TraceJson renders the ring buffer as Chrome trace_event JSON;
  // ExportTrace writes it to a file loadable by chrome://tracing.
  bool trace_enabled() const { return trace_enabled_; }
  void set_trace_enabled(bool on) { trace_enabled_ = on; }
  obs::TraceRecorder& trace() { return trace_; }
  std::string TraceJson() const;
  Status ExportTrace(const std::string& path) const;

 private:
  // Per-statement bookkeeping: the statement-stats key, the trace under
  // construction and, for ExecuteProfiled, where to store the annotated
  // plan. trace.start_ns is read even with tracing off: every sink times
  // the same interval, the statement's trace span.
  struct StatementContext {
    std::string key;
    obs::StatementTrace trace;
    bool tracing = false;
    obs::PlanStatsNode* profile_plan = nullptr;
  };
  // A statement's work inside ExecuteTracked. `profile` non-null requests
  // instrumentation and receives the stats-annotated plan.
  using StatementBody =
      std::function<Result<QueryResult>(obs::PlanStatsNode* profile)>;

  // Starts the statement's clock.
  StatementContext BeginStatement(std::string key) const;
  // Start time of a phase span for `trace` (0, without a clock read, when
  // `trace` is null).
  uint64_t PhaseStart(const obs::StatementTrace* trace) const {
    return trace != nullptr ? trace_.NowNs() : 0;
  }
  // Appends a phase span [start_ns, now] to `trace` when it is non-null.
  void AddPhaseSpan(obs::StatementTrace* trace, const char* name,
                    uint64_t start_ns) const;
  // The text prologue of Execute and ExecuteProfiled: lex, normalize,
  // parse, then ExecuteTracked.
  Result<QueryResult> ExecuteText(std::string_view sql,
                                  obs::PlanStatsNode* profile_plan);
  // The one epilogue of every statement: runs `body` with the statement's
  // trace active, then records metrics counters + latency, statement stats
  // under ctx->key, the slow-query log (profiling the body while it is
  // armed) and the trace, all from the statement's one clock.
  Result<QueryResult> ExecuteTracked(sql::StatementKind kind,
                                     StatementContext* ctx,
                                     const StatementBody& body);
  // The kind switch. A statement that produces or writes rows runs as an
  // operator tree (RunPlanned, binding `args`); DDL and SET run as direct
  // calls, and a profiled one reports DescribeRoot's node without stats.
  Result<QueryResult> DispatchStatement(const sql::Statement& stmt,
                                        obs::PlanStatsNode* profile,
                                        std::span<const Value> args = {});

  // Plans `stmt` with `args` (one bind+plan span) and runs it through
  // ExecPlan: SELECT returns its rows, and a write sink's count becomes
  // rows_affected. `profile` non-null requests instrumentation; the
  // annotated plan is stored there after execution.
  Result<QueryResult> RunPlanned(const sql::Statement& stmt,
                                 obs::PlanStatsNode* profile,
                                 std::span<const Value> args);
  // The exec core of every planned statement, cached or not: runs the
  // operator tree under the query's memory budget and accounts for it
  // (verifiers, stats, result-buffer charge, peak bytes, metrics, operator
  // spans). Returns the result in its chunked columnar form so consumers
  // build at most one Row per result row.
  Result<exec::MaterializedChunks> ExecPlan(exec::OperatorPtr tree,
                                            obs::PlanStatsNode* profile);
  // EXPLAIN [ANALYZE] <stmt>: one text row per plan node, indented by depth.
  Result<QueryResult> RunExplain(const sql::Statement& stmt);
  // EXPLAIN VERIFY <stmt>: plans the statement (when it has an operator
  // tree) and runs the plan-invariant verifier; one row per violation, or
  // an "ok" row.
  Result<QueryResult> RunExplainVerify(const sql::Statement& stmt);
  // EXPLAIN LINT <stmt>: static diagnostics from the SQL linter, one row
  // per finding, or an "ok" row.
  Result<QueryResult> RunExplainLint(const sql::Statement& stmt);
  // EXPLAIN LOGICAL <stmt>: renders the statement's logical plan before and
  // after the optimizer rule pipeline, one text row per plan line.
  Result<QueryResult> RunExplainLogical(const sql::Statement& stmt);
  Result<QueryResult> RunCreateTable(const sql::CreateTableStmt& stmt);
  Result<QueryResult> RunDropTable(const sql::DropTableStmt& stmt);
  Result<QueryResult> RunCreateIndex(const sql::CreateIndexStmt& stmt);
  // SET <name> = <value>: engine settings (born.slow_query_ms, born.trace,
  // born.trace_capacity, born.collect_exec_stats, born.verify_plans, and
  // per-rule optimizer flags born.opt.<rule>).
  Result<QueryResult> RunSet(const sql::SetStmt& stmt);

  // Builds a Planner wired to this database's optimizer stats and (when a
  // statement trace is active) the trace recorder, binding `args`.
  Planner MakePlanner(std::span<const Value> args = {});
  // The diagnostic appended to EXPLAIN / EXPLAIN LOGICAL output when
  // use_index_joins cannot take effect under the configured join strategy;
  // empty when the setting is honored.
  std::string IndexJoinNote() const;

  // Plan tree of `stmt` without executing it (plain EXPLAIN): the operator
  // tree it would run, bound as execution binds it, or DescribeRoot's node.
  Result<obs::PlanStatsNode> DescribePlan(const sql::Statement& stmt);
  // The one node of a statement that runs no operator tree: CREATE TABLE
  // (without AS), DROP TABLE, CREATE INDEX and SET. Fails when a table the
  // statement needs is missing.
  Result<obs::PlanStatsNode> DescribeRoot(const sql::Statement& stmt);

  // SystemCatalog facade handed to planners: consults extra_views_ (when
  // set) before the built-in born_stat_* provider.
  class ComposedViews : public SystemCatalog {
   public:
    explicit ComposedViews(const Database* db) : db_(db) {}
    bool IsSystemView(const std::string& name) const override;
    exec::OperatorPtr MakeViewScan(const std::string& name,
                                   const std::string& qualifier)
        const override;

   private:
    const Database* db_;
  };

  // Declared before catalog_ so the delegating constructor can point
  // catalog_ at it. Null when the catalog is shared (serving sessions).
  std::unique_ptr<catalog::Catalog> owned_catalog_;
  catalog::Catalog* catalog_;
  EngineConfig config_;
  obs::MetricsRegistry* metrics_ = &obs::MetricsRegistry::Global();
  obs::MemoryTracker* mem_parent_ = &obs::MemoryTracker::Process();
  uint64_t query_mem_limit_ = 0;  // 0 = unlimited
  uint64_t last_query_peak_bytes_ = 0;
  lint::ChunkVerifierStats chunk_verifier_totals_;
  uint64_t chunk_verified_queries_ = 0;
  obs::StatementStatsRegistry owned_stmt_stats_;
  obs::StatementStatsRegistry* stmt_stats_ = &owned_stmt_stats_;
  obs::OptimizerStatsRegistry opt_stats_;
  obs::SlowQueryLog slow_log_;
  obs::TraceRecorder trace_;
  SystemViews system_views_{this};
  const SystemCatalog* extra_views_ = nullptr;
  ComposedViews composed_views_{this};
  bool trace_enabled_ = true;
  double slow_query_ms_ = -1.0;  // < 0 => slow-query log disarmed
  // Trace of the statement currently executing; the exec paths append
  // their phase spans and operator spans here. Null when tracing is off or
  // no statement is in flight.
  obs::StatementTrace* active_trace_ = nullptr;
};

}  // namespace bornsql::engine

#endif  // BORNSQL_ENGINE_DATABASE_H_
