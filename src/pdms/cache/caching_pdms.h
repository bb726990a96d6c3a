#ifndef PDMS_CACHE_CACHING_PDMS_H_
#define PDMS_CACHE_CACHING_PDMS_H_

#include <string>
#include <string_view>

#include "pdms/cache/plan_cache.h"
#include "pdms/core/pdms.h"

namespace pdms {
namespace cache {

/// Budgets and switches for a CachingPdms.
struct CacheConfig {
  size_t plan_budget_bytes = PlanCache::kDefaultBudgetBytes;
  /// Revert the plan cache to wholesale clearing on any scope movement
  /// (pre-dependency-tracking behavior). The churn DST uses this as its
  /// negative control; see docs/churn_invalidation.md.
  bool wholesale_invalidation = false;
};

/// A Pdms bundled with a PlanCache, pre-wired: every
/// answering entry point gets cross-query plan reuse with revision- and
/// availability-aware invalidation, no further setup. The wrapper *is* a
/// Pdms for all query/mutation purposes (it forwards the facade API and
/// exposes the inner instance for anything else); it adds only cache
/// management.
///
/// Equivalent manual wiring, for callers that want to share the cache
/// across several facades (ppl_shell shares it with per-query SimPdms
/// instances):
///
///   PlanCache plans; Pdms pdms;
///   pdms.set_plan_cache(&plans);
class CachingPdms {
 public:
  explicit CachingPdms(CacheConfig config = {},
                       ReformulationOptions options = {});

  // --- Forwarded facade API ---
  Status LoadProgram(std::string_view text) { return pdms_.LoadProgram(text); }
  Status Insert(std::string_view stored_relation, Tuple tuple) {
    return pdms_.Insert(stored_relation, std::move(tuple));
  }
  PdmsNetwork* mutable_network() { return pdms_.mutable_network(); }
  const PdmsNetwork& network() const { return pdms_.network(); }
  Database* mutable_database() { return pdms_.mutable_database(); }
  const Database& database() const { return pdms_.database(); }
  void set_trace(obs::TraceContext* trace) { pdms_.set_trace(trace); }
  void set_metrics(obs::MetricsRegistry* m) { pdms_.set_metrics(m); }

  Result<ConjunctiveQuery> ParseQuery(std::string_view text) const {
    return pdms_.ParseQuery(text);
  }
  Result<ReformulationResult> Reformulate(const ConjunctiveQuery& query) {
    return pdms_.Reformulate(query);
  }
  Result<Relation> Answer(const ConjunctiveQuery& query) {
    return pdms_.Answer(query);
  }
  Result<Relation> Answer(std::string_view query_text) {
    return pdms_.Answer(query_text);
  }
  Result<AnswerResult> AnswerWithReport(const ConjunctiveQuery& query) {
    return pdms_.AnswerWithReport(query);
  }
  Result<AnswerResult> AnswerWithReport(std::string_view query_text) {
    return pdms_.AnswerWithReport(query_text);
  }

  /// The wrapped facade, for the rest of the Pdms surface (fault knobs,
  /// streaming, oracle, provenance...). The caches stay attached.
  Pdms* pdms() { return &pdms_; }
  const Pdms& pdms() const { return pdms_; }

  // --- Cache management ---
  PlanCache* plan_cache() { return &plan_cache_; }

  /// Drops all cached plans (counters survive).
  void ClearCaches();
  void set_plan_budget_bytes(size_t bytes);

  /// Human-readable plan-cache stats (ppl_shell's `cache stats`).
  std::string CacheStatsString() const;

 private:
  Pdms pdms_;
  PlanCache plan_cache_;
};

}  // namespace cache
}  // namespace pdms

#endif  // PDMS_CACHE_CACHING_PDMS_H_
