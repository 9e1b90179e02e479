// Keyed plan cache for the serving layer: bounded, sharded, LRU.
//
// Entries map a cache key to a parameterized *optimized logical plan*. The
// key (built by serve::Session) embeds everything a plan's validity
// depends on:
//
//   <config fingerprint> | <catalog version> | <normalized text> | <kept
//   literals>
//
// so DDL (version bump) and SET born.opt.* / join-strategy / CTE-mode
// changes (fingerprint change) invalidate by key mismatch rather than by
// scanning the cache, and ordinal-sensitive literals that stay inline
// (ORDER BY 2, LIMIT 10) cannot collide on the shared normalized text.
//
// A hit hands back a shared_ptr: the plan stays alive for the executing
// session even if the entry is concurrently evicted. Executions never
// mutate or copy the cached plan — the hot path lowers it directly, with
// the EXECUTE arguments bound during lowering, and each lowered tree keeps
// its own CTE state, so sessions share one entry.
//
// Sharded by key hash so N serving threads touching disjoint statements
// rarely contend on one mutex; counters are atomics shared across shards.
#ifndef BORNSQL_SERVE_PLAN_CACHE_H_
#define BORNSQL_SERVE_PLAN_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lock_ranks.h"
#include "common/thread_safety.h"
#include "common/tracked_mutex.h"
#include "obs/memory.h"
#include "plan/logical_plan.h"

namespace bornsql::serve {

// One cached plan. Immutable after insertion except for the per-entry hit
// counter (atomic; feeds born_stat_plan_cache).
struct CachedPlan {
  plan::LogicalPlan plan;  // parameterized, rule-optimized, never lowered
  std::string statement;   // normalized text, for introspection
  size_t num_params = 0;
  uint64_t catalog_version = 0;
  // Estimated heap footprint of this entry (ApproxCachedPlanBytes); set by
  // the builder before Insert. The cache charges exactly this amount to the
  // "plan_cache" MemoryTracker while the entry lives, so insert/replace/
  // evict/clear stay balanced even though plans are never re-measured.
  uint64_t approx_bytes = 0;
  mutable std::atomic<uint64_t> hits{0};
};

// Estimated heap bytes of a cached entry: the logical-plan tree (including
// per-CTE body plans), the normalized statement text, and fixed per-node
// overheads standing in for expression trees we do not walk.
uint64_t ApproxCachedPlanBytes(const CachedPlan& plan);

class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit PlanCache(size_t capacity = kDefaultCapacity);
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;
  ~PlanCache();  // releases every live entry's memory charge

  // The shared "plan_cache" MemoryTracker (child of the process root) every
  // cache's entry bytes are charged against. Leaked, like the root.
  static obs::MemoryTracker& CacheTracker();

  // Returns the entry for `key` (bumping its recency and hit counters), or
  // null on a miss.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key);

  // Inserts (or replaces) the entry for `key`, evicting least-recently-
  // used entries of the key's shard while over capacity.
  void Insert(const std::string& key, std::shared_ptr<const CachedPlan> plan);

  // Drops every entry (sessions call this after DDL so plans that borrow
  // dropped tables' pointers are released promptly; key versioning already
  // prevents their reuse).
  void Clear();

  // Capacity is distributed evenly across shards (rounded up), so the
  // effective bound is within kNumShards-1 of the requested value.
  void set_capacity(size_t capacity);
  size_t capacity() const { return capacity_.load(); }
  size_t size() const;

  uint64_t hits() const { return hits_.load(); }
  uint64_t misses() const { return misses_.load(); }
  uint64_t evictions() const { return evictions_.load(); }
  // Sum of approx_bytes over live entries (mirrors the CacheTracker charge).
  uint64_t total_bytes() const { return bytes_.load(); }

  // Point-in-time per-entry view rows (key order unspecified).
  struct EntryInfo {
    std::string statement;
    size_t num_params = 0;
    uint64_t catalog_version = 0;
    uint64_t approx_bytes = 0;
    uint64_t hits = 0;
  };
  std::vector<EntryInfo> Snapshot() const;

 private:
  static constexpr size_t kNumShards = 8;

  struct Shard {
    mutable TrackedMutex mu{"plan_cache.shard", lock_rank::kPlanCacheShard};
    // Front = most recently used. The map stores the list iterator so a
    // hit is an O(1) splice.
    std::list<std::string> lru BORN_GUARDED_BY(mu);
    std::unordered_map<std::string,
                       std::pair<std::shared_ptr<const CachedPlan>,
                                 std::list<std::string>::iterator>>
        entries BORN_GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& key);
  size_t PerShardCapacity() const;
  // Balance bytes_ and the CacheTracker charge as entries come and go.
  void ChargeEntry(const CachedPlan& plan);
  void ReleaseEntry(const CachedPlan& plan);

  std::array<Shard, kNumShards> shards_;
  std::atomic<size_t> capacity_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> bytes_{0};
};

}  // namespace bornsql::serve

#endif  // BORNSQL_SERVE_PLAN_CACHE_H_
