#include "pdms/cache/plan_cache.h"

#include <utility>
#include <vector>

#include "pdms/util/strings.h"

namespace pdms {
namespace cache {

std::string PlanCacheStats::ToString() const {
  std::string out;
  out += StrFormat("hits: %zu\n", hits);
  out += StrFormat("misses: %zu\n", misses);
  out += StrFormat("inserts: %zu\n", inserts);
  out += StrFormat("evictions: %zu\n", evictions);
  out += StrFormat("invalidations: %zu\n", invalidations);
  out += StrFormat("inserts dropped (stale): %zu\n", inserts_dropped_stale);
  return out;
}

size_t PlanCache::ClearLocked() {
  size_t dropped = entries_.size();
  entries_.Clear();
  deps_.Clear();
  analyzer_.Reset();
  return dropped;
}

size_t PlanCache::EnterScope(const CacheScope& scope) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  if (wholesale_ || scope.network == nullptr) {
    // No change log to consult (or tracking disabled): any scope movement
    // kills everything, the original all-or-nothing behavior.
    bool same = has_scope_ && scope_revision_ == scope.revision &&
                scope_epoch_ == scope.epoch &&
                scope_fingerprint_ == scope.options_fingerprint;
    if (!same) dropped = ClearLocked();
  } else {
    ChangeAnalysis analysis = analyzer_.Advance(scope);
    if (analysis.full_reset) {
      dropped = ClearLocked();
      // ClearLocked reset the analyzer; re-prime it on the new scope so
      // the next Advance sees a continuous history.
      analyzer_.Advance(scope);
    } else if (!analysis.affected_predicates.empty()) {
      for (const std::string& key : deps_.Match(analysis.affected_predicates)) {
        if (entries_.Erase(key)) ++dropped;
        deps_.Remove(key);
      }
    }
  }
  stats_.invalidations += dropped;
  has_scope_ = true;
  scope_revision_ = scope.revision;
  scope_epoch_ = scope.epoch;
  scope_fingerprint_ = scope.options_fingerprint;
  return dropped;
}

std::shared_ptr<const PlanCacheHook::Plan> PlanCache::Find(
    const std::string& canonical_key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const Plan>* plan = entries_.Touch(canonical_key);
  if (plan != nullptr) {
    ++stats_.hits;
    return *plan;
  }
  ++stats_.misses;
  return nullptr;
}

PlanCacheHook::InsertOutcome PlanCache::Insert(const std::string& canonical_key,
                                               Plan plan,
                                               uint64_t current_revision,
                                               uint64_t current_epoch) {
  InsertOutcome outcome;
  // The byte estimate walks the whole rewriting; do it outside the lock.
  size_t bytes = EstimatePlanBytes(canonical_key, plan);
  auto shared = std::make_shared<const Plan>(std::move(plan));
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_scope_ || current_revision != scope_revision_ ||
      current_epoch != scope_epoch_) {
    // The network churned between reformulation start and now; the plan
    // was built against a catalog/availability state that no longer
    // exists. Dropping it is always safe (the next query just misses).
    ++stats_.inserts_dropped_stale;
    outcome.dropped_stale = true;
    return outcome;
  }
  deps_.Add(canonical_key, shared->stats.deps);
  std::vector<std::string> evicted;
  outcome.evictions =
      entries_.Put(canonical_key, std::move(shared), bytes, &evicted);
  for (const std::string& key : evicted) deps_.Remove(key);
  stats_.evictions += outcome.evictions;
  ++stats_.inserts;
  outcome.stored = true;
  return outcome;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
}

void PlanCache::set_budget_bytes(size_t budget_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> evicted;
  stats_.evictions += entries_.SetBudget(budget_bytes, &evicted);
  for (const std::string& key : evicted) deps_.Remove(key);
}

size_t PlanCache::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.budget_bytes();
}

void PlanCache::set_wholesale_invalidation(bool wholesale) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wholesale_ == wholesale) return;
  wholesale_ = wholesale;
  // Switching modes mid-stream would leave the analyzer (or the index)
  // with a stale view of the entries; drop everything once.
  ClearLocked();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t PlanCache::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.total_bytes();
}

uint64_t PlanCache::scope_revision() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scope_revision_;
}

uint64_t PlanCache::scope_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scope_epoch_;
}

size_t PlanCache::EstimatePlanBytes(const std::string& key, const Plan& plan) {
  // A structural estimate: per-term and per-atom flat charges dominate the
  // real footprint (small strings + vector headers); exactness doesn't
  // matter, monotonicity in plan size does.
  size_t bytes = key.size() + sizeof(Plan) + 64;
  for (const ConjunctiveQuery& cq : plan.rewriting.disjuncts()) {
    bytes += 64;  // disjunct overhead
    bytes += 32 * (cq.head().arity() + cq.comparisons().size() * 2);
    for (const Atom& atom : cq.body()) {
      bytes += 48 + atom.predicate().size() + 32 * atom.arity();
    }
  }
  for (const std::string& p : plan.stats.deps.predicates) {
    bytes += 48 + p.size();
  }
  return bytes;
}

}  // namespace cache
}  // namespace pdms
