// Differential SQL fuzzing harness: the dynamic counterpart of the
// translation validator (lint/translation_validator.h).
//
// A deterministic, seeded grammar generates queries over a fixed BornSQL-
// shaped fixture (docs / tokens / vocab / weights -- the paper's document,
// token, vocabulary and weight relations in miniature), and a differential
// runner executes each query under every engine configuration on the
// correctness-relevant axes:
//
//   {hash, sort-merge, nested-loop joins}
//     x {all rules on, all rules off, each rule individually off,
//        inlined CTEs}
//
// All configurations must produce the same result multiset (or all fail).
// Any divergence is a miscompilation the translation validator's per-rule
// checks could not see (cross-rule interactions, lowering bugs, join
// strategy disagreements). On divergence the harness greedily shrinks the
// query to a minimal still-diverging form.
//
// On top of the engine matrix, a serving lane replays each query through a
// serve::Session twice under the baseline configuration: the first run
// populates the keyed plan cache (auto-parameterized), the second is served
// from it. Both must agree with the baseline, so every fuzz query also
// exercises cached-vs-uncached equivalence.
//
// A write lane then feeds each query through the write sinks: under the
// baseline and each vector1 configuration it runs CREATE TABLE fz AS <q>,
// INSERT INTO fz <q> and SELECT * FROM fz, then drops fz. The tables read
// back must agree as the SELECT lanes do.
//
// WHERE occasionally gains an uncorrelated IN or EXISTS subquery over a
// base table or the query's CTE, which the planner folds by running it.
//
// The grammar deliberately stays inside deterministic SQL: SUM/AVG only
// over INTEGER columns (int64 accumulation is exact and order-independent;
// double accumulation is not), no window functions, no LIMIT (row choice
// under reordering is unspecified), and division only by non-zero
// constants (a row-dependent error could be masked by a legal conjunct
// reordering in one configuration but not another).
//
// Reproduce any failure from its seed and index:
//   bornsql_fuzzer --seed=S --repro=I
#ifndef BORNSQL_TOOLS_FUZZ_FUZZER_H_
#define BORNSQL_TOOLS_FUZZ_FUZZER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/database.h"
#include "serve/server.h"
#include "serve/session.h"

namespace bornsql::fuzz {

// One FROM-clause entry. The first entry renders bare; later entries render
// as ", sql" (comma join; equi predicates live in WHERE) or as
// " LEFT JOIN sql ON on".
struct FromItem {
  std::string sql;    // "docs d" or "(SELECT ...) d"
  std::string alias;  // exposed qualifier
  bool left_join = false;
  std::string on;  // only when left_join
};

// A generated query, kept structured so the shrinker can drop parts.
struct QuerySpec {
  std::vector<std::string> cte_sqls;  // "name AS (SELECT ...)"
  bool distinct = false;
  std::vector<std::string> select_items;  // "expr AS cN"
  std::vector<FromItem> from;
  std::vector<std::string> where;  // conjuncts, ANDed
  std::vector<std::string> group_by;
  std::string having;  // empty => none
  std::vector<std::string> order_by;
};

std::string RenderQuery(const QuerySpec& q);

// Per-query seed: splitmix64-style mix of the base seed and the query
// index, so --repro=I regenerates query I without replaying 0..I-1.
uint64_t DeriveSeed(uint64_t base_seed, uint64_t index);

// Generates one random query over the fixture schema. Deterministic in the
// Rng state.
QuerySpec GenerateQuery(Rng& rng);

// Creates and populates the fixture tables (docs, tokens, vocab, weights;
// fixed content, a few NULLs sprinkled in).
Status LoadFixture(engine::Database* db);

// One engine configuration under test.
struct FuzzConfig {
  std::string name;  // e.g. "hash/all_on", "sortmerge/off_filter_reorder"
  engine::EngineConfig config;
};

// The full correctness matrix (30 configurations): per join strategy, the
// optimizer-rule lanes plus a vector1 scalar-compatibility lane that runs
// the same engine with chunk-of-one execution. The first entry
// (hash/all_on) is the comparison baseline. A non-zero `vector_size`
// overrides the chunk size of every lane except the vector1 lanes (which
// stay at 1), so a sweep can diff chunked execution at any size against
// the tuple-at-a-time equivalent. `verify_chunks` arms the execution-
// contract chunk verifier (lint/chunk_verifier.h, BSV020-025) in every
// lane: a violation fails the query in that configuration, which the
// runner reports as a status divergence.
std::vector<FuzzConfig> AllConfigs(size_t vector_size = 0,
                                   bool verify_chunks = false);

// Executes queries across every configuration and compares result
// multisets. Databases are created and the fixture loaded once, at
// construction; generated queries are read-only, and the write lane drops
// the one table it writes.
class DifferentialRunner {
 public:
  // `vector_size` and `verify_chunks` as in AllConfigs.
  explicit DifferentialRunner(size_t vector_size = 0,
                              bool verify_chunks = false);

  // Runs `spec` under every configuration, then the write lane. Returns
  // true when all agree (same sorted result multiset, or an error under
  // every configuration).
  // On divergence fills `*detail` with the disagreeing configurations and
  // a summary of both results.
  bool Check(const QuerySpec& spec, std::string* detail);

  size_t config_count() const { return dbs_.size(); }

 private:
  std::vector<FuzzConfig> configs_;
  std::vector<std::unique_ptr<engine::Database>> dbs_;
  // Serving lane: one session under the baseline configuration whose plan
  // cache serves the second run of every query.
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::Session> session_;
};

// Greedy query shrinking: repeatedly drops conjuncts, ORDER BY, DISTINCT,
// HAVING, select items, unreferenced CTEs and trailing FROM items, keeping
// a reduction only when `still_fails` stays true, until no drop survives.
QuerySpec Shrink(const QuerySpec& spec,
                 const std::function<bool(const QuerySpec&)>& still_fails);

struct RunOptions {
  uint64_t seed = 20260806;
  size_t queries = 1000;
  bool verbose = false;
  // Chunk size override for every non-vector1 lane (0 = engine default);
  // the CI sweep runs the smoke batch at several sizes (see tools/ci.sh).
  size_t vector_size = 0;
  // Arm the chunk invariant verifier (BSV020-025) in every lane, so each
  // operator boundary crossing of the differential matrix is checked.
  bool verify_chunks = false;
};

struct RunReport {
  size_t executed = 0;
  size_t baseline_errors = 0;  // queries every configuration rejected
  bool diverged = false;
  uint64_t divergent_index = 0;  // valid when diverged
  std::string divergent_query;   // shrunk, valid when diverged
  std::string detail;            // valid when diverged
};

// Generates and checks `opts.queries` queries, stopping at (and shrinking)
// the first divergence.
RunReport RunDifferential(const RunOptions& opts);

}  // namespace bornsql::fuzz

#endif  // BORNSQL_TOOLS_FUZZ_FUZZER_H_
