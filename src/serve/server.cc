#include "serve/server.h"

#include <cassert>
#include <initializer_list>
#include <iterator>
#include <utility>

#include "common/strings.h"
#include "types/schema.h"
#include "types/value.h"

namespace bornsql::serve {

namespace {

constexpr char kStatPrepared[] = "born_stat_prepared";
constexpr char kStatSessions[] = "born_stat_sessions";
constexpr char kStatPlanCache[] = "born_stat_plan_cache";

Schema MakeSchema(const char* view,
                  std::initializer_list<std::pair<const char*, ValueType>>
                      columns) {
  Schema schema;
  for (const auto& [name, type] : columns) {
    schema.Add(Column{view, name, type});
  }
  return schema;
}

const Schema& PreparedSchema() {
  static const Schema* schema = new Schema(MakeSchema(
      kStatPrepared, {{"session_id", ValueType::kInt},
                      {"name", ValueType::kText},
                      {"statement", ValueType::kText},
                      {"params", ValueType::kInt},
                      {"calls", ValueType::kInt},
                      {"cacheable", ValueType::kInt}}));
  return *schema;
}

const Schema& SessionsSchema() {
  static const Schema* schema = new Schema(MakeSchema(
      kStatSessions, {{"session_id", ValueType::kInt},
                      {"statements", ValueType::kInt},
                      {"prepared", ValueType::kInt},
                      {"cache_hits", ValueType::kInt},
                      {"cache_misses", ValueType::kInt},
                      {"current_bytes", ValueType::kInt},
                      {"peak_bytes", ValueType::kInt}}));
  return *schema;
}

const Schema& PlanCacheSchema() {
  static const Schema* schema = new Schema(MakeSchema(
      kStatPlanCache, {{"entries", ValueType::kInt},
                       {"capacity", ValueType::kInt},
                       {"hits", ValueType::kInt},
                       {"misses", ValueType::kInt},
                       {"evictions", ValueType::kInt},
                       {"approx_bytes", ValueType::kInt},
                       {"hit_rate", ValueType::kDouble}}));
  return *schema;
}

const Schema* ServingViewSchema(const std::string& lower) {
  if (lower == kStatPrepared) return &PreparedSchema();
  if (lower == kStatSessions) return &SessionsSchema();
  if (lower == kStatPlanCache) return &PlanCacheSchema();
  return nullptr;
}

Value Uint(uint64_t v) { return Value::Int(static_cast<int64_t>(v)); }

std::vector<Row> PreparedRows(const Server& server) {
  std::vector<Row> rows;
  for (const PreparedInfo& p : server.PreparedSnapshot()) {
    rows.push_back({Uint(p.session_id), Value::Text(p.name),
                    Value::Text(p.statement), Uint(p.num_params),
                    Uint(p.calls), Value::Int(p.cacheable ? 1 : 0)});
  }
  return rows;
}

std::vector<Row> SessionsRows(const Server& server) {
  std::vector<Row> rows;
  for (const Server::SessionInfo& s : server.SessionsSnapshot()) {
    rows.push_back({Uint(s.id), Uint(s.statements), Uint(s.prepared),
                    Uint(s.cache_hits), Uint(s.cache_misses),
                    Uint(s.current_bytes), Uint(s.peak_bytes)});
  }
  return rows;
}

std::vector<Row> PlanCacheRows(const Server& server) {
  const PlanCache& cache = server.plan_cache();
  const uint64_t hits = cache.hits();
  const uint64_t misses = cache.misses();
  const uint64_t lookups = hits + misses;
  return {{Uint(cache.size()), Uint(cache.capacity()), Uint(hits),
           Uint(misses), Uint(cache.evictions()), Uint(cache.total_bytes()),
           Value::Double(lookups == 0
                             ? 0.0
                             : static_cast<double>(hits) / lookups)}};
}

}  // namespace

bool Server::ServingViews::IsSystemView(const std::string& name) const {
  return ServingViewSchema(AsciiToLower(name)) != nullptr;
}

exec::OperatorPtr Server::ServingViews::MakeViewScan(
    const std::string& name, const std::string& qualifier) const {
  const std::string lower = AsciiToLower(name);
  const Schema* base = ServingViewSchema(lower);
  assert(base != nullptr);
  Schema schema = base->WithQualifier(qualifier);
  const Server* server = server_;
  exec::SystemViewScanOp::Generator generator =
      [server, lower]() -> Result<std::vector<Row>> {
    if (lower == kStatPrepared) return PreparedRows(*server);
    if (lower == kStatSessions) return SessionsRows(*server);
    return PlanCacheRows(*server);
  };
  return std::make_unique<exec::SystemViewScanOp>(lower, std::move(generator),
                                                  std::move(schema));
}

Server::Server(ServerConfig config)
    : config_(std::move(config)), plan_cache_(config_.plan_cache_capacity) {}

Server::~Server() {
  // Sessions must not outlive the server; assert the contract in debug
  // builds rather than dangling in release. Locked so the guarded read
  // satisfies the static analysis (no session can race the destructor
  // anyway — outliving sessions are exactly the bug being asserted).
  MutexLock lock(&mu_);
  assert(sessions_.empty() && "serve::Session outlived its Server");
}

std::unique_ptr<Session> Server::Connect() {
  MutexLock lock(&mu_);
  const uint64_t id = next_session_id_++;
  std::unique_ptr<Session> session(new Session(this, id, config_.engine));
  sessions_.emplace(id, session.get());
  return session;
}

Status Server::Bootstrap(std::string_view script) {
  return Connect()->ExecuteScript(script);
}

void Server::Unregister(uint64_t id) {
  MutexLock lock(&mu_);
  sessions_.erase(id);
}

size_t Server::session_count() const {
  MutexLock lock(&mu_);
  return sessions_.size();
}

std::vector<Server::SessionInfo> Server::SessionsSnapshot() const {
  MutexLock lock(&mu_);
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    out.push_back({id, session->statements_executed(),
                   session->prepared_count(), session->cache_hits(),
                   session->cache_misses(), session->memory().current(),
                   session->memory().peak()});
  }
  return out;
}

std::vector<PreparedInfo> Server::PreparedSnapshot() const {
  MutexLock lock(&mu_);
  std::vector<PreparedInfo> out;
  for (const auto& [id, session] : sessions_) {
    std::vector<PreparedInfo> rows = session->PreparedSnapshot();
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return out;
}

}  // namespace bornsql::serve
