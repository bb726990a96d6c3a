#include "pdms/core/pdms.h"

#include <algorithm>
#include <set>

#include "pdms/exec/thread_pool.h"
#include "pdms/fault/access.h"
#include "pdms/eval/evaluator.h"
#include "pdms/lang/canonical.h"
#include "pdms/lang/parser.h"
#include "pdms/qp/engine.h"
#include "pdms/util/strings.h"

namespace pdms {

Pdms::Pdms(ReformulationOptions options) : options_(options) {}

Pdms::~Pdms() = default;
Pdms::Pdms(Pdms&&) noexcept = default;
Pdms& Pdms::operator=(Pdms&&) noexcept = default;

qp::Engine* Pdms::engine() {
  if (engine_ == nullptr) engine_ = std::make_unique<qp::Engine>();
  return engine_.get();
}

exec::ThreadPool* Pdms::Executor() {
  if (options_.threads <= 1) return nullptr;
  size_t workers = options_.threads - 1;  // the caller helps while waiting
  if (pool_ == nullptr || pool_->workers() != workers) {
    pool_ = std::make_unique<exec::ThreadPool>(workers);
  }
  return pool_.get();
}

Status Pdms::LoadProgram(std::string_view text) {
  // Catalog additions bump the network revision, which GetReformulator
  // checks; no explicit invalidation is needed here.
  return ParsePplProgramInto(text, &network_, &data_);
}

PdmsNetwork* Pdms::mutable_network() { return &network_; }

FaultInjector* Pdms::mutable_fault_injector() {
  if (injector_ == nullptr) injector_ = std::make_unique<FaultInjector>(1);
  return injector_.get();
}

void Pdms::set_fault_seed(uint64_t seed) {
  injector_ = std::make_unique<FaultInjector>(seed);
}

Status Pdms::Insert(std::string_view stored_relation, Tuple tuple) {
  std::string name(stored_relation);
  if (!network_.IsStoredRelation(name)) {
    return Status::NotFound("not a stored relation: " + name);
  }
  PDMS_ASSIGN_OR_RETURN(size_t arity, network_.RelationArity(name));
  if (arity != tuple.size()) {
    return Status::InvalidArgument(
        StrFormat("tuple arity %zu does not match %s/%zu", tuple.size(),
                  name.c_str(), arity));
  }
  data_.Insert(name, std::move(tuple));
  // Keep the vectorized engine's statistics current: the appended row is
  // converted incrementally (no rebuild) and the `qp.*` stat counters
  // move with it.
  if (options_.vectorized_eval) {
    engine()->ObserveRelation(*data_.Find(name), metrics_);
  }
  return Status::Ok();
}

void Pdms::set_options(const ReformulationOptions& options) {
  options_ = options;
  // The cached reformulator (if any) receives the new options — and is
  // revalidated against the network revision — inside GetReformulator, so
  // an options change can never resurrect a stale normalization.
}

Result<ConjunctiveQuery> Pdms::ParseQuery(std::string_view text) const {
  PDMS_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseRuleText(text));
  // Queries must range over peer relations (or stored relations directly).
  for (const Atom& a : query.body()) {
    if (!network_.IsPeerRelation(a.predicate()) &&
        !network_.IsStoredRelation(a.predicate())) {
      return Status::NotFound("query references unknown relation " +
                              a.predicate());
    }
    PDMS_ASSIGN_OR_RETURN(size_t arity,
                          network_.RelationArity(a.predicate()));
    if (arity != a.arity()) {
      return Status::InvalidArgument(
          StrFormat("query uses %s with arity %zu (declared %zu)",
                    a.predicate().c_str(), a.arity(), arity));
    }
  }
  return query;
}

Reformulator* Pdms::GetReformulator() {
  if (reformulator_ == nullptr ||
      reformulator_revision_ != network_.revision()) {
    reformulator_ = std::make_unique<Reformulator>(network_, options_);
    reformulator_revision_ = network_.revision();
  } else {
    reformulator_->set_options(options_);
  }
  return reformulator_.get();
}

ReformulationOptions Pdms::EffectiveOptions() {
  ReformulationOptions effective = options_;
  std::set<std::string> down = network_.UnavailableStoredRelations();
  effective.unavailable_stored.insert(down.begin(), down.end());
  effective.trace = trace_;
  effective.metrics = metrics_;
  effective.goal_memo = goal_memo_;
  effective.executor = Executor();
  return effective;
}

ReformulationOptions Pdms::PrepareCaches() {
  ReformulationOptions effective = EffectiveOptions();
  if (goal_memo_ == nullptr && plan_cache_ == nullptr) return effective;
  CacheScope scope;
  scope.network = &network_;
  scope.revision = network_.revision();
  scope.epoch = network_.availability_epoch();
  scope.unavailable_stored = effective.unavailable_stored;
  scope.allowed_stored = effective.allowed_stored;
  scope.options_fingerprint = OptionsFingerprint(effective);
  if (goal_memo_ != nullptr) {
    size_t dropped = goal_memo_->EnterScope(scope);
    if (dropped > 0 && metrics_ != nullptr) {
      metrics_->Add("cache.goal_memo_invalidations", dropped);
    }
  }
  if (plan_cache_ != nullptr) {
    size_t invalidated = plan_cache_->EnterScope(scope);
    if (invalidated > 0 && metrics_ != nullptr) {
      metrics_->Add("cache.invalidations", invalidated);
    }
  }
  return effective;
}

Result<ReformulationResult> Pdms::ReformulateCached(
    const ConjunctiveQuery& query, obs::ScopedSpan* query_span,
    bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  ReformulationOptions effective = PrepareCaches();
  if (plan_cache_ == nullptr) {
    return GetReformulator()->Reformulate(query, effective);
  }
  std::string key = CanonicalQueryKey(query);
  std::shared_ptr<const PlanCacheHook::Plan> hit;
  {
    obs::ScopedSpan lookup(trace_, "cache_lookup");
    hit = plan_cache_->Find(key);
    lookup.Set("result", hit != nullptr ? "hit" : "miss");
  }
  if (hit != nullptr) {
    if (metrics_ != nullptr) metrics_->Add("cache.hits");
    if (query_span != nullptr) query_span->Set("cache", "hit");
    if (cache_hit != nullptr) *cache_hit = true;
    ReformulationResult ref;
    ref.rewriting = hit->rewriting;
    ref.physical_slot = hit->physical;  // share the compiled physical plan
    ref.stats = hit->stats;  // the stats of the original reformulation
    // excluded_stored is a *global* report (every unavailable-but-admitted
    // relation, related to this query or not), so a flip of a relation
    // outside the plan's footprint legitimately leaves the entry cached
    // while moving the report. Recompute it from the current scope exactly
    // as a fresh Build would.
    ref.stats.excluded_stored.clear();
    for (const std::string& name : effective.unavailable_stored) {
      if (network_.IsStoredRelation(name) &&
          (effective.allowed_stored.empty() ||
           effective.allowed_stored.count(name) > 0)) {
        ref.stats.excluded_stored.push_back(name);
      }
    }
    return ref;
  }
  if (metrics_ != nullptr) metrics_->Add("cache.misses");
  if (query_span != nullptr) query_span->Set("cache", "miss");
  PDMS_ASSIGN_OR_RETURN(ReformulationResult ref,
                        GetReformulator()->Reformulate(query, effective));
  // Truncated plans are incomplete by budget, not by semantics — caching
  // one would freeze the truncation; let a later (perhaps less loaded)
  // query rebuild instead.
  if (!ref.stats.tree_truncated && !ref.stats.enumeration_truncated) {
    // The inserted entry and this query's result share one physical-plan
    // slot, so the plan the engine compiles below is already cached for
    // the next hit.
    ref.physical_slot = std::make_shared<qp::PhysicalPlanSlot>();
    PlanCacheHook::InsertOutcome outcome = plan_cache_->Insert(
        key, {ref.rewriting, ref.stats, ref.physical_slot},
        network_.revision(), network_.availability_epoch());
    if (metrics_ != nullptr) {
      if (outcome.stored) metrics_->Add("cache.inserts");
      if (outcome.dropped_stale) metrics_->Add("cache.inserts_dropped_stale");
      if (outcome.evictions > 0) {
        metrics_->Add("cache.evictions", outcome.evictions);
      }
    }
  }
  return ref;
}

Result<ReformulationResult> Pdms::Reformulate(const ConjunctiveQuery& query) {
  if (trace_ != nullptr) trace_->Clear();
  return ReformulateCached(query, nullptr);
}

Result<ReformulationResult> Pdms::Reformulate(std::string_view query_text) {
  PDMS_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseQuery(query_text));
  return Reformulate(query);
}

Result<Relation> Pdms::Answer(const ConjunctiveQuery& query) {
  PDMS_ASSIGN_OR_RETURN(AnswerResult result, AnswerWithReport(query));
  return std::move(result.answers);
}

Result<Relation> Pdms::Answer(std::string_view query_text) {
  PDMS_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseQuery(query_text));
  return Answer(query);
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

Result<AnswerResult> Pdms::AnswerWithReport(const ConjunctiveQuery& query) {
  AnswerResult out;
  out.answers = Relation(query.head().predicate(), query.head().arity());

  if (trace_ != nullptr) trace_->Clear();
  obs::ScopedSpan query_span(trace_, "query");
  query_span.Set("query", query.head().predicate());
  query_span.Set("mode", "local");

  // Step 1: reformulate with currently-unavailable sources pruned from
  // the rule-goal tree (recorded in the stats), via the plan cache when
  // one is attached. A cache hit skips reformulation entirely but still
  // evaluates below through the gated path.
  PDMS_ASSIGN_OR_RETURN(ReformulationResult ref,
                        ReformulateCached(query, &query_span,
                                          &out.plan_cache_hit));
  out.stats = ref.stats;

  // Step 2: evaluate, mediating every stored-relation scan through the
  // fault layer (retries with backoff, deadline, per-query caching).
  AccessController access(injector_.get(), retry_, deadline_,
                          [this](const std::string& relation) {
                            auto peer = network_.StoredRelationPeer(relation);
                            return peer.ok() ? *peer : std::string();
                          },
                          trace_, metrics_);
  size_t rewritings_skipped = 0;
  std::vector<std::string> failed;
  if (!ref.rewriting.empty()) {
    obs::ScopedSpan eval_span(trace_, "evaluate");
    eval_span.Set("disjuncts", static_cast<uint64_t>(ref.rewriting.size()));
    StoredGate gate = [&](const std::string& relation) {
      return access.Access(relation);
    };
    // Default: the vectorized engine (cost-based planned, columnar,
    // canonically ordered answers); the legacy tuple-at-a-time evaluator
    // stays available as the reference twin.
    DegradedEvalResult eval;
    if (options_.vectorized_eval) {
      PDMS_ASSIGN_OR_RETURN(
          eval, engine()->EvaluateUnionDegraded(
                    ref.rewriting, data_, gate, trace_, metrics_, Executor(),
                    ref.physical_slot.get()));
    } else {
      PDMS_ASSIGN_OR_RETURN(
          eval, EvaluateUnionDegraded(ref.rewriting, data_, gate, trace_,
                                      metrics_, Executor()));
    }
    out.answers = std::move(eval.answers);
    rewritings_skipped = eval.disjuncts_skipped;
    failed = std::move(eval.unavailable_relations);
    eval_span.Set("answers", static_cast<uint64_t>(out.answers.size()));
  }

  // Step 3: the degradation report.
  FillDegradationReport(network_, out.stats, failed, rewritings_skipped,
                        access.stats(), !out.answers.empty(),
                        &out.degradation);
  query_span.Set("answers", static_cast<uint64_t>(out.answers.size()));
  return out;
}

Result<AnswerResult> Pdms::AnswerWithReport(std::string_view query_text) {
  PDMS_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseQuery(query_text));
  return AnswerWithReport(query);
}

Result<Relation> Pdms::AnswerStreaming(
    const ConjunctiveQuery& query,
    const std::function<bool(const Tuple&)>& on_answer) {
  Relation answers(query.head().predicate(), query.head().arity());
  if (trace_ != nullptr) trace_->Clear();
  obs::ScopedSpan query_span(trace_, "query");
  query_span.Set("query", query.head().predicate());
  query_span.Set("mode", "streaming");
  AccessController access(injector_.get(), retry_, deadline_,
                          [this](const std::string& relation) {
                            auto peer = network_.StoredRelationPeer(relation);
                            return peer.ok() ? *peer : std::string();
                          },
                          trace_, metrics_);
  Status eval_error = Status::Ok();
  // One rewriting at a time through the vectorized engine. Gating clears
  // each distinct body relation in body order and stops at the first veto,
  // so the AccessController probe sequence (and every fault-injector draw)
  // is a function of the rewriting stream alone.
  auto eval_one = [&](const ConjunctiveQuery& rewriting) {
    std::set<std::string> gated;
    for (const Atom& a : rewriting.body()) {
      if (!gated.insert(a.predicate()).second) continue;
      Status s = access.Access(a.predicate());
      if (s.ok()) continue;
      // A rewriting over an unavailable source degrades the stream (its
      // answers are simply missing); other errors abort.
      if (s.code() == StatusCode::kUnavailable) return true;
      eval_error = s;
      return false;
    }
    obs::ScopedSpan join_span(trace_, "join");
    join_span.Set("atoms", static_cast<uint64_t>(rewriting.body().size()));
    auto part = engine()->EvaluateDisjunct(rewriting, data_);
    if (!part.ok()) {
      eval_error = part.status();
      return false;
    }
    join_span.Set("answers", static_cast<uint64_t>(part->size()));
    join_span.End();
    for (const Tuple& t : *part) {
      if (answers.Insert(t) && !on_answer(t)) return false;
    }
    return true;
  };
  ReformulationOptions effective = PrepareCaches();
  if (plan_cache_ != nullptr) {
    std::string key = CanonicalQueryKey(query);
    std::shared_ptr<const PlanCacheHook::Plan> hit;
    {
      obs::ScopedSpan lookup(trace_, "cache_lookup");
      hit = plan_cache_->Find(key);
      lookup.Set("result", hit != nullptr ? "hit" : "miss");
    }
    if (hit != nullptr) {
      // Stream straight from the cached plan, disjunct by disjunct.
      if (metrics_ != nullptr) metrics_->Add("cache.hits");
      query_span.Set("cache", "hit");
      for (const ConjunctiveQuery& rewriting : hit->rewriting.disjuncts()) {
        if (!eval_one(rewriting)) break;
      }
      PDMS_RETURN_IF_ERROR(eval_error);
      query_span.Set("answers", static_cast<uint64_t>(answers.size()));
      return answers;
    }
    // A stopped stream leaves a partial plan, so the streaming miss path
    // never inserts; AnswerWithReport is the warming entry point.
    if (metrics_ != nullptr) metrics_->Add("cache.misses");
    query_span.Set("cache", "miss");
  }
  auto result = GetReformulator()->ReformulateStreaming(query, effective,
                                                        eval_one);
  PDMS_RETURN_IF_ERROR(eval_error);
  PDMS_RETURN_IF_ERROR(result.status());
  query_span.Set("answers", static_cast<uint64_t>(answers.size()));
  return answers;
}

Result<Relation> Pdms::CertainAnswersOracle(const ConjunctiveQuery& query,
                                            const ChaseOptions& chase) {
  return CertainAnswers(network_, data_, query, chase);
}

Result<std::vector<ConjunctiveQuery>> Pdms::ExplainAnswer(
    const ConjunctiveQuery& query, const Tuple& answer) {
  if (answer.size() != query.head().arity()) {
    return Status::InvalidArgument(
        StrFormat("answer arity %zu does not match query head arity %zu",
                  answer.size(), query.head().arity()));
  }
  PDMS_ASSIGN_OR_RETURN(ReformulationResult result, Reformulate(query));
  std::vector<ConjunctiveQuery> witnesses;
  for (const ConjunctiveQuery& rewriting : result.rewriting.disjuncts()) {
    // Specialize the rewriting's head to the answer tuple; a unification
    // failure (mismatching head constant) means this rewriting can never
    // produce the tuple.
    Substitution pin;
    bool compatible = true;
    for (size_t i = 0; i < answer.size(); ++i) {
      if (!pin.UnifyTerms(rewriting.head().args()[i],
                          Term::Constant(answer[i]))) {
        compatible = false;
        break;
      }
    }
    if (!compatible) continue;
    ConjunctiveQuery specialized = pin.Apply(rewriting);
    PDMS_ASSIGN_OR_RETURN(Relation out, EvaluateCQ(specialized, data_));
    if (out.Contains(answer)) witnesses.push_back(rewriting);
  }
  return witnesses;
}

}  // namespace pdms
