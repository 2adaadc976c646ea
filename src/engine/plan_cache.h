#ifndef SPNET_ENGINE_PLAN_CACHE_H_
#define SPNET_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "spgemm/exec_context.h"
#include "spgemm/plan.h"

namespace spnet {
namespace engine {

/// Identity of one planning problem: the structural fingerprints of both
/// operands (sparse::StructuralFingerprint — values excluded, structure
/// only), the algorithm name, and the fingerprint of the algorithm's
/// configuration (ReorganizerConfig::Fingerprint for the reorganizer, 0 for
/// the config-free baselines). Plans also depend on the DeviceSpec, which
/// is deliberately not part of the key: one PlanCache serves one device
/// (the BatchRunner owns a cache per device); never share an instance
/// across devices.
struct PlanKey {
  uint64_t fp_a = 0;
  uint64_t fp_b = 0;
  std::string algorithm;
  uint64_t config_fp = 0;

  friend bool operator==(const PlanKey& x, const PlanKey& y) {
    return x.fp_a == y.fp_a && x.fp_b == y.fp_b &&
           x.config_fp == y.config_fp && x.algorithm == y.algorithm;
  }
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const;
};

/// Thread-safe LRU cache of SpGemmPlan results. Repeated queries over the
/// same matrix structure skip the whole Block Reorganizer planning pipeline
/// (classification, B-Splitting, B-Gathering, B-Limiting) and go straight
/// to simulation — the amortizable cost that dominates spGEMM latency on
/// power-law graphs.
///
/// Sharding: the capacity can be split across `shards` independent LRU
/// shards, each with its own mutex, selected by the key's hash. Under
/// concurrent tenants every shard serializes only 1/N of the traffic, so
/// lock contention shrinks with the shard count while the external
/// interface — and the hit/miss/eviction accounting — stays exactly that
/// of one logical cache. The counters are process-global atomics
/// aggregated across shards, and the engine.plan_cache.{hit,miss,evict}
/// counters recorded on an ExecContext likewise sum over all shards, so
/// existing consumers (ExecutionReport deltas, BENCH_engine_batch.json,
/// engine_test) read identical semantics whatever the shard count.
/// Recency is per shard: eviction removes the least-recently-used entry of
/// the full shard, which approximates global LRU the way any sharded cache
/// does. The default of one shard preserves exact global LRU order.
///
/// Plans are shared immutably (shared_ptr<const SpGemmPlan>), so a hit is
/// one map lookup plus a refcount bump and entries stay valid even if
/// evicted while a query is still simulating them.
///
/// Observability: every Lookup/Insert optionally records
/// engine.plan_cache.{hit,miss,evict} counters on an ExecContext; the same
/// totals are always available from hits()/misses()/evictions() (used by
/// tests and the CLI summary line).
class PlanCache {
 public:
  /// `capacity` is the max number of cached plans across all shards; 0
  /// disables caching (every Lookup misses, Insert is a no-op). `shards`
  /// is clamped to [1, capacity] so every shard owns at least one entry;
  /// the per-shard capacity is capacity/shards with the remainder spread
  /// over the first shards.
  explicit PlanCache(size_t capacity, size_t shards = 1);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan and refreshes its recency, or nullptr on a
  /// miss.
  std::shared_ptr<const spgemm::SpGemmPlan> Lookup(
      const PlanKey& key, spgemm::ExecContext* ctx = nullptr);

  /// Inserts (or replaces) the plan for `key`, evicting the shard's
  /// least-recently-used entry when the shard is full. Returns the shared
  /// form of the inserted plan.
  std::shared_ptr<const spgemm::SpGemmPlan> Insert(
      const PlanKey& key, spgemm::SpGemmPlan plan,
      spgemm::ExecContext* ctx = nullptr);

  void Clear();

  size_t capacity() const { return capacity_; }
  size_t shards() const { return shards_.size(); }
  /// Entries currently cached, summed over all shards.
  size_t size() const;

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  using Entry = std::pair<PlanKey, std::shared_ptr<const spgemm::SpGemmPlan>>;

  /// One independent LRU cache; selected by key hash.
  struct Shard {
    explicit Shard(size_t cap) : capacity(cap) {}
    const size_t capacity;
    Mutex mu;
    /// Most recently used at the front; eviction pops the back.
    std::list<Entry> lru GUARDED_BY(mu);
    std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash>
        index GUARDED_BY(mu);
  };

  Shard& ShardFor(const PlanKey& key);

  const size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace engine
}  // namespace spnet

#endif  // SPNET_ENGINE_PLAN_CACHE_H_
