#include "pdms/core/query_pipeline.h"

#include <set>
#include <utility>

#include "pdms/lang/canonical.h"
#include "pdms/lang/parser.h"
#include "pdms/qp/engine.h"
#include "pdms/util/strings.h"

namespace pdms {

Result<ConjunctiveQuery> ParseNetworkQuery(const PdmsNetwork& network,
                                           std::string_view text) {
  PDMS_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseRuleText(text));
  // Queries must range over peer relations (or stored relations directly).
  for (const Atom& a : query.body()) {
    if (!network.IsPeerRelation(a.predicate()) &&
        !network.IsStoredRelation(a.predicate())) {
      return Status::NotFound("query references unknown relation " +
                              a.predicate());
    }
    PDMS_ASSIGN_OR_RETURN(size_t arity, network.RelationArity(a.predicate()));
    if (arity != a.arity()) {
      return Status::InvalidArgument(
          StrFormat("query uses %s with arity %zu (declared %zu)",
                    a.predicate().c_str(), a.arity(), arity));
    }
  }
  return query;
}

void FillDegradationReport(const PdmsNetwork& network,
                           const ReformulationStats& stats,
                           const std::vector<std::string>& failed_relations,
                           size_t rewritings_skipped,
                           const AccessStats& access, bool any_answers,
                           DegradationReport* report) {
  report->access = access;
  report->rewritings_skipped = rewritings_skipped;
  report->branches_pruned = stats.pruned_unavailable;

  // Excluded stored relations: catalog-unavailable ones the reformulator
  // pruned, plus those whose scans failed all retries at evaluation time.
  std::set<std::string> stored(stats.excluded_stored.begin(),
                               stats.excluded_stored.end());
  stored.insert(failed_relations.begin(), failed_relations.end());
  report->excluded_stored.assign(stored.begin(), stored.end());

  // Excluded peers: every peer serving an excluded relation, plus peers
  // marked down in the catalog.
  std::set<std::string> peers;
  for (const std::string& relation : stored) {
    auto peer = network.StoredRelationPeer(relation);
    if (peer.ok() && !peer->empty()) peers.insert(*peer);
  }
  for (const std::string& peer : network.UnavailablePeers()) {
    peers.insert(peer);
  }
  report->excluded_peers.assign(peers.begin(), peers.end());

  if (!report->degraded()) {
    report->completeness = Completeness::kComplete;
  } else if (any_answers) {
    report->completeness = Completeness::kPartial;
  } else {
    report->completeness = Completeness::kEmptyBecauseUnavailable;
  }
}

ReformulationResult QueryPlan::ToResult() && {
  ReformulationResult out;
  out.rewriting = cached != nullptr ? cached->rewriting : std::move(fresh);
  out.stats = std::move(stats);
  out.physical_slot = std::move(physical);
  return out;
}

QueryPipeline::QueryPipeline(const PdmsNetwork& network,
                             ReformulationOptions base, Hooks hooks)
    : network_(network), options_(std::move(base)), hooks_(hooks) {
  std::set<std::string> down = network_.UnavailableStoredRelations();
  options_.unavailable_stored.insert(down.begin(), down.end());
  options_.trace = hooks_.trace;
  options_.metrics = hooks_.metrics;
}

std::shared_ptr<const PlanCacheHook::Plan> QueryPipeline::Lookup(
    const ConjunctiveQuery& query, obs::ScopedSpan* query_span) {
  PlanCacheHook* cache = hooks_.plan_cache;
  obs::MetricsRegistry* metrics = hooks_.metrics;
  if (cache == nullptr) return nullptr;
  CacheScope scope;
  scope.network = &network_;
  scope.revision = network_.revision();
  scope.epoch = network_.availability_epoch();
  scope.unavailable_stored = options_.unavailable_stored;
  scope.allowed_stored = options_.allowed_stored;
  scope.options_fingerprint = OptionsFingerprint(options_);
  size_t invalidated = cache->EnterScope(scope);
  if (invalidated > 0 && metrics != nullptr) {
    metrics->Add("cache.invalidations", invalidated);
  }
  key_ = CanonicalQueryKey(query);
  std::shared_ptr<const PlanCacheHook::Plan> hit;
  {
    obs::ScopedSpan lookup(hooks_.trace, "cache_lookup");
    hit = cache->Find(key_);
    lookup.Set("result", hit != nullptr ? "hit" : "miss");
  }
  if (metrics != nullptr) {
    metrics->Add(hit != nullptr ? "cache.hits" : "cache.misses");
  }
  if (query_span != nullptr) {
    query_span->Set("cache", hit != nullptr ? "hit" : "miss");
  }
  return hit;
}

Result<QueryPlan> QueryPipeline::Plan(const ConjunctiveQuery& query,
                                      Reformulator* reformulator,
                                      obs::ScopedSpan* query_span) {
  QueryPlan plan;
  plan.cached = Lookup(query, query_span);
  if (plan.hit()) {
    plan.physical = plan.cached->physical;  // share the compiled plan
    plan.stats = plan.cached->stats;  // the original reformulation's stats
    // excluded_stored is a *global* report (every unavailable-but-admitted
    // relation, related to this query or not), so a flip of a relation
    // outside the plan's footprint legitimately leaves the entry cached
    // while moving the report. Recompute it exactly as a fresh build would.
    plan.stats.excluded_stored =
        ExcludedStored(options_, [this](const std::string& name) {
          return network_.IsStoredRelation(name);
        });
    return plan;
  }
  PDMS_ASSIGN_OR_RETURN(ReformulationResult ref,
                        reformulator->Reformulate(query, options_));
  plan.fresh = std::move(ref.rewriting);
  plan.stats = std::move(ref.stats);
  plan.physical = std::move(ref.physical_slot);
  // Truncated plans are incomplete by budget, not by semantics — caching
  // one would freeze the truncation; let a later (perhaps less loaded)
  // query rebuild instead.
  PlanCacheHook* cache = hooks_.plan_cache;
  if (cache == nullptr || plan.stats.tree_truncated ||
      plan.stats.enumeration_truncated) {
    return plan;
  }
  // The inserted entry and this query share one physical-plan slot, so the
  // plan the engine compiles at evaluation is already cached for the next
  // hit.
  plan.physical = std::make_shared<qp::PhysicalPlanSlot>();
  PlanCacheHook::InsertOutcome outcome =
      cache->Insert(key_, {plan.fresh, plan.stats, plan.physical},
                    network_.revision(), network_.availability_epoch());
  if (obs::MetricsRegistry* metrics = hooks_.metrics; metrics != nullptr) {
    if (outcome.stored) metrics->Add("cache.inserts");
    if (outcome.dropped_stale) metrics->Add("cache.inserts_dropped_stale");
    if (outcome.evictions > 0) {
      metrics->Add("cache.evictions", outcome.evictions);
    }
  }
  return plan;
}

Status QueryPipeline::Evaluate(QueryPlan plan, qp::Engine* engine,
                               const Database& db, const StoredGate& gate,
                               const AccessStats& access, AnswerResult* out) {
  out->plan_cache_hit = plan.hit();
  const UnionQuery& rewriting = plan.rewriting();
  DegradedEvalResult eval;
  if (!rewriting.empty()) {
    obs::ScopedSpan eval_span(hooks_.trace, "evaluate");
    eval_span.Set("disjuncts", static_cast<uint64_t>(rewriting.size()));
    PDMS_ASSIGN_OR_RETURN(
        eval, engine->EvaluateUnionDegraded(rewriting, db, gate, hooks_.trace,
                                            hooks_.metrics,
                                            plan.physical.get()));
    eval_span.Set("answers", static_cast<uint64_t>(eval.answers.size()));
    out->answers = std::move(eval.answers);
  }
  out->stats = std::move(plan.stats);
  FillDegradationReport(network_, out->stats, eval.unavailable_relations,
                        eval.disjuncts_skipped, access, !out->answers.empty(),
                        &out->degradation);
  return Status::Ok();
}

}  // namespace pdms
