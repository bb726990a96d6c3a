#ifndef PDMS_CORE_QUERY_PIPELINE_H_
#define PDMS_CORE_QUERY_PIPELINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pdms/core/pdms.h"
#include "pdms/eval/evaluator.h"

namespace pdms {

/// Parses a query in rule syntax and checks it against the catalog: every
/// body atom must name a declared peer or stored relation (kNotFound
/// otherwise) with its declared arity (kInvalidArgument otherwise). The
/// one validator behind Pdms::ParseQuery and sim::SimPdms::Answer.
Result<ConjunctiveQuery> ParseNetworkQuery(const PdmsNetwork& network,
                                           std::string_view text);

/// Assembles a DegradationReport from a query's static exclusions
/// (reformulation stats) and dynamic scan failures — the evaluate step's
/// report builder, public so oracles can rebuild a report the same way.
void FillDegradationReport(const PdmsNetwork& network,
                           const ReformulationStats& stats,
                           const std::vector<std::string>& failed_relations,
                           size_t rewritings_skipped,
                           const AccessStats& access, bool any_answers,
                           DegradationReport* report);

/// The plan step's outcome. A plan-cache hit shares the cached entry — the
/// union is never copied; a miss owns the fresh reformulation. `stats` is
/// the query's own copy either way (on a hit, the cached statistics with
/// `excluded_stored` recomputed under the current scope).
struct QueryPlan {
  std::shared_ptr<const PlanCacheHook::Plan> cached;  // null on a miss
  UnionQuery fresh;                                   // the miss's union
  ReformulationStats stats;
  /// Where the engine caches the compiled physical plan; shared with the
  /// plan-cache entry on a hit or an insert, null otherwise.
  std::shared_ptr<qp::PhysicalPlanSlot> physical;

  bool hit() const { return cached != nullptr; }
  const UnionQuery& rewriting() const {
    return cached != nullptr ? cached->rewriting : fresh;
  }
  /// The plan as a standalone reformulation result (copies a cached union).
  ReformulationResult ToResult() &&;
};

/// One query through the answering pipeline: reformulate (via the plan
/// cache when one is attached), then evaluate the union over whatever data
/// the caller could reach and assemble the degradation report. Pdms,
/// its streaming entry and sim::SimPdms differ only in where the data
/// comes from — a (Database, StoredGate) pair handed to Evaluate — so the
/// cache protocol, the evaluator and the report exist once, here.
///
/// Construct one per query. Every hook is borrowed and nullable.
class QueryPipeline {
 public:
  struct Hooks {
    obs::TraceContext* trace = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    PlanCacheHook* plan_cache = nullptr;
  };

  /// `base` is the caller's options for this query (its cost estimator
  /// included); the pipeline adds the network's unavailable stored
  /// relations and the trace and metrics hooks.
  QueryPipeline(const PdmsNetwork& network, ReformulationOptions base,
                Hooks hooks);

  /// The effective reformulation options of this query.
  const ReformulationOptions& options() const { return options_; }

  /// Announces the query's CacheScope to the plan cache (counting
  /// invalidations) and looks the query up under a `cache_lookup` span,
  /// counting `cache.hits` / `cache.misses` and tagging `query_span`
  /// (nullable) with the outcome. Null on a miss or with no plan cache;
  /// with no cache it builds no scope and computes no key. Call at most
  /// once per pipeline.
  std::shared_ptr<const PlanCacheHook::Plan> Lookup(
      const ConjunctiveQuery& query, obs::ScopedSpan* query_span);

  /// The plan step: Lookup, and on a miss reformulate through
  /// `reformulator`, then insert the plan into the cache unless a budget
  /// truncated it (the insert is dropped if the network churned since the
  /// scope was announced).
  Result<QueryPlan> Plan(const ConjunctiveQuery& query,
                         Reformulator* reformulator,
                         obs::ScopedSpan* query_span);

  /// The evaluate step: runs the plan's union through `engine` over `db`
  /// under an `evaluate` span, every relation cleared by `gate` first
  /// (kUnavailable skips the disjuncts scanning it; other errors abort),
  /// and fills `out`'s answers, statistics, plan_cache_hit flag and
  /// degradation report. `access` is read after evaluation, so it may be
  /// the gate's own live counters.
  Status Evaluate(QueryPlan plan, qp::Engine* engine, const Database& db,
                  const StoredGate& gate, const AccessStats& access,
                  AnswerResult* out);

 private:
  const PdmsNetwork& network_;
  ReformulationOptions options_;
  Hooks hooks_;
  std::string key_;  // the query's CanonicalQueryKey once looked up
};

}  // namespace pdms

#endif  // PDMS_CORE_QUERY_PIPELINE_H_
