// Serving sessions: per-client execution contexts over a shared catalog.
//
// A Session is what one client of the serving layer talks to. Sessions
// created by the same serve::Server share the table namespace (one
// catalog::Catalog), the statement-stats registry, the metrics registry
// and the keyed plan cache, but each session owns its engine config — SET
// born.opt.* / born.join_strategy-style settings apply per client — plus
// its private prepared-statement namespace and statement trace.
//
// The session layer implements the three statements the core engine
// rejects:
//
//   PREPARE p AS SELECT docid FROM scores WHERE label = $1;
//   EXECUTE p('spam');
//   DEALLOCATE p;           -- or DEALLOCATE ALL
//
// and routes EXECUTE of a cacheable SELECT through the plan cache: on a
// hit the statement skips lex / parse / bind / optimize entirely — the
// shared cached plan is lowered with the EXECUTE arguments bound to its
// placeholders, and run (the trace shows only lower / execute spans).
// PREPARE decides once whether a body is cacheable (engine::IsCacheable);
// any other body, and a body the plan builder refuses, runs uncached with
// its arguments handed to the planner, so every EXECUTE binds its
// arguments the same way. An ad-hoc SELECT reaches the cache through an
// auto-parameterized copy (literals become placeholders), so repeated
// predict queries that differ only in constants share one cache entry —
// including with an equivalent PREPAREd statement; when the plan builder
// refuses the copy, the statement runs uncached with its literals.
#ifndef BORNSQL_SERVE_SESSION_H_
#define BORNSQL_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/lock_ranks.h"
#include "common/status.h"
#include "common/thread_safety.h"
#include "common/tracked_mutex.h"
#include "engine/database.h"
#include "engine/engine_config.h"
#include "engine/parameters.h"
#include "obs/memory.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace bornsql::serve {

class Server;

// Deterministic spelling of every config axis a cached plan's shape
// depends on (join strategy, CTE mode, index joins, each optimizer rule
// flag). Part of the cache key, so SET born.opt.* in one session can never
// serve another session a plan optimized under different rules.
std::string ConfigFingerprint(const engine::EngineConfig& config);

// Snapshot row of one prepared statement (born_stat_prepared).
struct PreparedInfo {
  uint64_t session_id = 0;
  std::string name;
  std::string statement;  // normalized body text
  size_t num_params = 0;
  uint64_t calls = 0;
  bool cacheable = false;
};

class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }

  // Parses and executes one statement, handling PREPARE / EXECUTE /
  // DEALLOCATE and the session-level settings here and delegating
  // everything else to the session's engine database.
  Result<engine::QueryResult> Execute(std::string_view sql);

  // ';'-separated script, discarding SELECT results. Like
  // Database::ExecuteScript it parses every statement before running any;
  // stops at the first error.
  Status ExecuteScript(std::string_view sql);

  // The session's engine database (shared catalog, private config/trace).
  // Exposed for the shell's EXPLAIN-style passthroughs and for tests.
  engine::Database& database() { return db_; }

  // The session-level memory tracker (child of the process root; parent of
  // every query tracker this session's database creates). SET
  // born.session_memory_limit caps it; born_stat_sessions reads it.
  obs::MemoryTracker& memory() { return mem_; }
  const obs::MemoryTracker& memory() const { return mem_; }

  // Counters for born_stat_sessions / .sessions.
  uint64_t statements_executed() const {
    return statements_.load(std::memory_order_relaxed);
  }
  uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  size_t prepared_count() const;
  bool plan_cache_enabled() const {
    return plan_cache_enabled_.load(std::memory_order_relaxed);
  }

  // Rows for born_stat_prepared, this session's slice.
  std::vector<PreparedInfo> PreparedSnapshot() const;

 private:
  friend class Server;

  // One PREPAREd statement. Immutable after creation (re-PREPARE installs
  // a new entry; in-flight EXECUTEs keep their shared_ptr) except the
  // atomic counters.
  struct Prepared {
    std::string name;        // as written, for messages and the view
    std::string normalized;  // normalized body tokens, for keys and stats
    std::unique_ptr<sql::Statement> stmt;
    std::vector<engine::ParameterSlot> slots;
    bool cacheable = false;  // engine::IsCacheable(*stmt)
    std::atomic<uint64_t> calls{0};
  };

  Session(Server* server, uint64_t id, engine::EngineConfig config);

  // Runs one parsed statement; `tokens` are the statement's own, for its
  // keys.
  Result<engine::QueryResult> Dispatch(sql::Statement stmt,
                                       const std::vector<sql::Token>& tokens);
  Result<engine::QueryResult> RunPrepare(const std::vector<sql::Token>& tokens,
                                         sql::Statement stmt);
  Result<engine::QueryResult> RunExecute(const sql::ExecuteStmt& stmt);
  Result<engine::QueryResult> RunDeallocate(const sql::DeallocateStmt& stmt);
  // Intercepts born.plan_cache / born.plan_cache_capacity /
  // born.session_memory_limit; other settings fall through to the engine.
  Result<engine::QueryResult> RunSet(const sql::Statement& stmt,
                                     const std::vector<sql::Token>& tokens);
  // Ad-hoc SELECT: run a copy with its literals auto-parameterized through
  // the cache; the statement itself runs uncached when the cache cannot.
  Result<engine::QueryResult> RunSelect(const sql::Statement& stmt,
                                        const std::vector<sql::Token>& tokens);
  // Shared cached path of an EXECUTE or ad-hoc SELECT: runs the cached plan
  // of the parameterized `stmt` with `args`, building and caching it on a
  // miss. Returns nullopt when the plan builder refuses `stmt`; the caller
  // then runs its statement uncached.
  std::optional<Result<engine::QueryResult>> RunThroughCache(
      const sql::Statement& stmt, const std::string& normalized,
      const std::vector<Value>& args, const std::string& stats_key);

  std::string CacheKey(const std::string& normalized,
                       const std::string& kept_literals) const;
  // Statement-stats key carrying the session id ("s3: SELECT ?"), so
  // born_stat_statements attributes serving traffic per session.
  std::string StatsKey(const std::string& normalized) const;

  Server* const server_;
  const uint64_t id_;
  // Declared before db_ so per-query trackers parented here are gone (the
  // database is destroyed first) before the session tracker dies.
  obs::MemoryTracker mem_;  // unguarded: internally synchronized
  engine::Database db_;     // unguarded: session-private by contract

  // Guards prepared_ (snapshots race with EXECUTE).
  mutable TrackedMutex mu_{"serve.session", lock_rank::kSession};
  std::map<std::string, std::shared_ptr<Prepared>, std::less<>> prepared_
      BORN_GUARDED_BY(mu_);

  std::atomic<bool> plan_cache_enabled_{true};
  std::atomic<uint64_t> statements_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace bornsql::serve

#endif  // BORNSQL_SERVE_SESSION_H_
