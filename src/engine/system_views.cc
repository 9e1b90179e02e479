#include "engine/system_views.h"

#include <cassert>
#include <initializer_list>
#include <utility>

#include "common/strings.h"
#include "engine/database.h"
#include "engine/optimizer.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/statement_stats.h"

namespace bornsql::engine {

namespace {

constexpr char kStatStatements[] = "born_stat_statements";
constexpr char kStatOperators[] = "born_stat_operators";
constexpr char kStatTables[] = "born_stat_tables";
constexpr char kStatOptimizer[] = "born_stat_optimizer";
constexpr char kStatMemory[] = "born_stat_memory";
constexpr char kStatVerifier[] = "born_stat_verifier";
constexpr char kSlowLog[] = "born_slow_log";

Schema MakeSchema(const char* view,
                  std::initializer_list<std::pair<const char*, ValueType>>
                      columns) {
  Schema schema;
  for (const auto& [name, type] : columns) {
    schema.Add(Column{view, name, type});
  }
  return schema;
}

const Schema& StatementsSchema() {
  static const Schema* schema = new Schema(MakeSchema(
      kStatStatements, {{"query", ValueType::kText},
                        {"calls", ValueType::kInt},
                        {"rows", ValueType::kInt},
                        {"errors", ValueType::kInt},
                        {"total_ms", ValueType::kDouble},
                        {"min_ms", ValueType::kDouble},
                        {"max_ms", ValueType::kDouble},
                        {"mean_ms", ValueType::kDouble}}));
  return *schema;
}

const Schema& OperatorsSchema() {
  static const Schema* schema = new Schema(MakeSchema(
      kStatOperators, {{"operator", ValueType::kText},
                       {"instances", ValueType::kInt},
                       {"open_calls", ValueType::kInt},
                       {"next_calls", ValueType::kInt},
                       {"rows", ValueType::kInt},
                       {"wall_ms", ValueType::kDouble},
                       {"peak_entries", ValueType::kInt},
                       {"peak_mem", ValueType::kInt}}));
  return *schema;
}

const Schema& MemorySchema() {
  static const Schema* schema = new Schema(MakeSchema(
      kStatMemory, {{"tracker", ValueType::kText},
                    {"level", ValueType::kText},
                    {"current_bytes", ValueType::kInt},
                    {"peak_bytes", ValueType::kInt},
                    {"limit_bytes", ValueType::kInt},
                    {"denials", ValueType::kInt}}));
  return *schema;
}

const Schema& TablesSchema() {
  static const Schema* schema = new Schema(MakeSchema(
      kStatTables, {{"name", ValueType::kText},
                    {"columns", ValueType::kInt},
                    {"rows", ValueType::kInt},
                    {"scans", ValueType::kInt},
                    {"inserts", ValueType::kInt},
                    {"updates", ValueType::kInt},
                    {"deletes", ValueType::kInt}}));
  return *schema;
}

const Schema& OptimizerSchema() {
  static const Schema* schema = new Schema(MakeSchema(
      kStatOptimizer, {{"rule", ValueType::kText},
                       {"invocations", ValueType::kInt},
                       {"fired", ValueType::kInt},
                       {"rewrites", ValueType::kInt},
                       {"validated", ValueType::kInt},
                       {"violations", ValueType::kInt}}));
  return *schema;
}

const Schema& VerifierSchema() {
  static const Schema* schema = new Schema(MakeSchema(
      kStatVerifier, {{"enabled", ValueType::kInt},
                      {"queries_verified", ValueType::kInt},
                      {"boundaries_checked", ValueType::kInt},
                      {"chunks_checked", ValueType::kInt},
                      {"rows_checked", ValueType::kInt},
                      {"checks_run", ValueType::kInt},
                      {"violations", ValueType::kInt}}));
  return *schema;
}

const Schema& SlowLogSchema() {
  static const Schema* schema = new Schema(MakeSchema(
      kSlowLog, {{"id", ValueType::kInt},
                 {"query", ValueType::kText},
                 {"elapsed_ms", ValueType::kDouble},
                 {"threshold_ms", ValueType::kDouble},
                 {"rows", ValueType::kInt},
                 {"plan", ValueType::kText}}));
  return *schema;
}

Value Uint(uint64_t v) { return Value::Int(static_cast<int64_t>(v)); }

std::vector<Row> StatementsRows(const Database& db) {
  std::vector<Row> rows;
  for (const auto& [query, stats] : db.statement_stats().Snapshot()) {
    rows.push_back({Value::Text(query), Uint(stats.calls), Uint(stats.rows),
                    Uint(stats.errors), Value::Double(stats.total_ms),
                    Value::Double(stats.min_ms), Value::Double(stats.max_ms),
                    Value::Double(stats.mean_ms())});
  }
  return rows;
}

std::vector<Row> OperatorsRows(const Database& db) {
  std::vector<Row> rows;
  for (const auto& [op, agg] : db.metrics().OperatorsSnapshot()) {
    rows.push_back({Value::Text(op), Uint(agg.instances),
                    Uint(agg.stats.open_calls), Uint(agg.stats.next_calls),
                    Uint(agg.stats.rows_emitted),
                    Value::Double(agg.stats.wall_millis()),
                    Uint(agg.stats.peak_entries),
                    Uint(agg.stats.peak_mem_bytes)});
  }
  return rows;
}

std::vector<Row> TablesRows(const Database& db) {
  std::vector<Row> rows;
  for (const std::string& name : db.catalog().TableNames()) {
    auto table = db.catalog().GetTable(name);
    if (!table.ok()) continue;  // dropped between listing and lookup
    const storage::TableUsage& usage = (*table)->usage();
    rows.push_back({Value::Text(name), Uint((*table)->schema().size()),
                    Uint((*table)->row_count()), Uint(usage.scans),
                    Uint(usage.inserts), Uint(usage.updates),
                    Uint(usage.deletes)});
  }
  return rows;
}

std::vector<Row> OptimizerRows(const Database& db) {
  // Every known rule gets a row (zeros before its first invocation), in
  // pipeline order, so ablation scripts can rely on the shape.
  const auto snapshot = db.optimizer_stats().Snapshot();
  std::vector<Row> rows;
  for (const std::string& rule : OptimizerRuleNames()) {
    obs::OptimizerRuleStats stats;
    if (auto it = snapshot.find(rule); it != snapshot.end()) {
      stats = it->second;
    }
    rows.push_back({Value::Text(rule), Uint(stats.invocations),
                    Uint(stats.fired), Uint(stats.rewrites),
                    Uint(stats.validated), Uint(stats.violations)});
  }
  return rows;
}

std::vector<Row> MemoryRows(const Database& db) {
  // Snapshot taken at the scan's Open(), i.e. before this query's own
  // tracker has flushed anything — plain introspection reads current=0 at
  // the query level.
  std::vector<Row> rows;
  const obs::MemoryTracker* root = db.metrics().memory_root();
  for (const obs::MemoryTracker::SnapshotRow& r : root->SnapshotTree()) {
    rows.push_back({Value::Text(r.label), Value::Text(r.level),
                    Uint(r.current_bytes), Uint(r.peak_bytes),
                    Uint(r.limit_bytes), Uint(r.denials)});
  }
  return rows;
}

std::vector<Row> VerifierRows(const Database& db) {
  // One row: the database-lifetime execution-contract counters
  // (BSV020-025). The scan that reads this view is itself verified when
  // the knob is on, so counters observed through SQL lag the live totals
  // by the reading query.
  const lint::ChunkVerifierStats& totals = db.chunk_verifier_totals();
  std::vector<Row> rows;
  rows.push_back({Uint(db.config().verify_chunks ? 1 : 0),
                  Uint(db.chunk_verified_queries()),
                  Uint(totals.boundaries_checked),
                  Uint(totals.chunks_checked), Uint(totals.rows_checked),
                  Uint(totals.checks_run), Uint(totals.violations)});
  return rows;
}

std::vector<Row> SlowLogRows(const Database& db) {
  std::vector<Row> rows;
  for (const obs::SlowQueryEntry& e : db.slow_log().Snapshot()) {
    rows.push_back({Uint(e.id), Value::Text(e.statement),
                    Value::Double(e.elapsed_ms),
                    Value::Double(e.threshold_ms), Uint(e.rows),
                    Value::Text(e.plan)});
  }
  return rows;
}

}  // namespace

const std::vector<std::string>& SystemViews::ViewNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      kSlowLog, kStatMemory, kStatOperators, kStatOptimizer,
      kStatStatements, kStatTables, kStatVerifier};
  return *names;
}

const Schema* SystemViews::ViewSchema(const std::string& name) {
  const std::string lower = AsciiToLower(name);
  if (lower == kStatStatements) return &StatementsSchema();
  if (lower == kStatOperators) return &OperatorsSchema();
  if (lower == kStatTables) return &TablesSchema();
  if (lower == kStatOptimizer) return &OptimizerSchema();
  if (lower == kStatMemory) return &MemorySchema();
  if (lower == kStatVerifier) return &VerifierSchema();
  if (lower == kSlowLog) return &SlowLogSchema();
  return nullptr;
}

bool SystemViews::IsSystemView(const std::string& name) const {
  return ViewSchema(name) != nullptr;
}

exec::OperatorPtr SystemViews::MakeViewScan(const std::string& name,
                                            const std::string& qualifier)
    const {
  const std::string lower = AsciiToLower(name);
  const Schema* base = ViewSchema(lower);
  assert(base != nullptr);
  Schema schema = base->WithQualifier(qualifier);
  const Database* db = db_;
  exec::SystemViewScanOp::Generator generator =
      [db, lower]() -> Result<std::vector<Row>> {
    if (lower == kStatStatements) return StatementsRows(*db);
    if (lower == kStatOperators) return OperatorsRows(*db);
    if (lower == kStatTables) return TablesRows(*db);
    if (lower == kStatOptimizer) return OptimizerRows(*db);
    if (lower == kStatMemory) return MemoryRows(*db);
    if (lower == kStatVerifier) return VerifierRows(*db);
    return SlowLogRows(*db);
  };
  return std::make_unique<exec::SystemViewScanOp>(lower, std::move(generator),
                                                  std::move(schema));
}

}  // namespace bornsql::engine
