#ifndef PDMS_CACHE_PLAN_CACHE_H_
#define PDMS_CACHE_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "pdms/cache/change_analyzer.h"
#include "pdms/cache/dependency_index.h"
#include "pdms/cache/lru.h"
#include "pdms/core/pdms.h"

namespace pdms {
namespace cache {

/// Counters a PlanCache accumulates over its lifetime (they survive scope
/// changes — invalidation is itself one of the counters). The facade
/// mirrors most of these into the metrics registry as `cache.*`; these
/// exist so a cache can report on itself without a registry attached
/// (ppl_shell's `cache stats`).
struct PlanCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t inserts = 0;
  size_t evictions = 0;
  size_t invalidations = 0;          // entries dropped by scope changes
  size_t inserts_dropped_stale = 0;  // mid-churn guard rejections

  std::string ToString() const;
};

/// The cross-query plan cache (docs/plan_cache.md): CanonicalQueryKey →
/// enumerated UCQ rewriting + ReformulationStats, LRU-evicted under a byte
/// budget.
///
/// Invalidation is dependency-tracked (docs/churn_invalidation.md): each
/// plan carries the DepSet footprint its build recorded, registered in an
/// inverted DependencyIndex; EnterScope digests the network's catalog
/// change log through a ChangeAnalyzer and erases exactly the entries
/// whose footprint the changes touch. Plans embed no description ids —
/// rewritings are plain queries over stored relations — so id renumbering
/// alone never stales an entry: the index matches predicates only. A
/// scope without a network (or `set_wholesale_invalidation(true)`,
/// kept as the churn tests' negative control) falls back to clearing
/// everything whenever (revision, epoch, fingerprint) moves, which is
/// always sound. Insert re-checks the scope against the network's values
/// *at insert time*: if a flip or mapping edit landed while the plan was
/// being reformulated, the plan describes a network that no longer exists
/// and is dropped (`inserts_dropped_stale`).
///
/// Thread safety: all operations are serialized by one internal mutex,
/// held only for the map manipulation itself (plans are stored by
/// shared_ptr, so no plan is copied under the lock and a Find result stays
/// alive even if a concurrent insert evicts its entry). A single global
/// lock — rather than key sharding — keeps the recency list, the
/// dependency index, and the eviction counters exactly as observable as in
/// the single-threaded cache, which the eviction tests pin down; the
/// critical sections are a few pointer moves, so contention is not where
/// serving time goes (docs/parallel_execution.md).
class PlanCache : public PlanCacheHook {
 public:
  static constexpr size_t kDefaultBudgetBytes = 64u << 20;  // 64 MiB

  explicit PlanCache(size_t budget_bytes = kDefaultBudgetBytes)
      : entries_(budget_bytes) {}

  // PlanCacheHook:
  size_t EnterScope(const CacheScope& scope) override;
  std::shared_ptr<const Plan> Find(const std::string& canonical_key) override;
  InsertOutcome Insert(const std::string& canonical_key, Plan plan,
                       uint64_t current_revision,
                       uint64_t current_epoch) override;

  /// Drops every entry (counters are kept; invalidations not bumped — this
  /// is an operator action, not a coherence event).
  void Clear();

  /// Changes the byte budget, evicting down if needed.
  void set_budget_bytes(size_t budget_bytes);
  size_t budget_bytes() const;

  /// Disables dependency tracking: any scope movement clears everything.
  /// Exists so the churn DST can assert that wholesale clearing cannot
  /// meet the sustained-hit-rate bar that tracked invalidation does.
  void set_wholesale_invalidation(bool wholesale);

  /// A point-in-time snapshot of the lifetime counters.
  PlanCacheStats stats() const;
  size_t size() const;
  size_t total_bytes() const;
  uint64_t scope_revision() const;
  uint64_t scope_epoch() const;

  /// The byte charge used for a plan: a structural estimate of its
  /// rewriting plus the key. Exposed for tests.
  static size_t EstimatePlanBytes(const std::string& key, const Plan& plan);

 private:
  /// Clears entries + index + analyzer snapshots; returns the entry count
  /// dropped. Caller holds mu_.
  size_t ClearLocked();

  mutable std::mutex mu_;
  LruByteMap<std::shared_ptr<const Plan>> entries_;
  DependencyIndex deps_;
  ChangeAnalyzer analyzer_;
  PlanCacheStats stats_;
  bool wholesale_ = false;
  bool has_scope_ = false;
  uint64_t scope_revision_ = 0;
  uint64_t scope_epoch_ = 0;
  std::string scope_fingerprint_;
};

}  // namespace cache
}  // namespace pdms

#endif  // PDMS_CACHE_PLAN_CACHE_H_
