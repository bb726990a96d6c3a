#ifndef PDMS_CORE_PDMS_H_
#define PDMS_CORE_PDMS_H_

#include <functional>
#include <memory>
#include <string_view>

#include "pdms/core/certain_answers.h"
#include "pdms/core/network.h"
#include "pdms/core/ppl_parser.h"
#include "pdms/core/reformulator.h"
#include "pdms/data/database.h"
#include "pdms/fault/degradation.h"
#include "pdms/fault/fault_injector.h"
#include "pdms/fault/retry.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"
#include "pdms/qp/physical_plan.h"

namespace pdms {

namespace qp {
class Engine;
}  // namespace qp

class QueryPipeline;
struct QueryPlan;

/// A query's full outcome: the answer tuples, the reformulation
/// statistics, and the degradation report saying exactly which sources
/// could not contribute and what it cost to find out. Under degradation
/// the answers are still sound — every tuple is a certain answer — but
/// possibly a strict subset of the fully-available result, and the
/// report's completeness verdict says which.
struct AnswerResult {
  Relation answers{"q", 0};
  ReformulationStats stats;
  DegradationReport degradation;
  /// True when the reformulation was served from the attached plan cache
  /// (always false with no cache attached). Surfaced so the serving layer
  /// can report per-window cache hit rates without reading the registry.
  bool plan_cache_hit = false;
};

/// Interface to a cross-query plan cache (implemented in
/// src/pdms/cache/plan_cache.h; core sees only this hook). A plan — the
/// enumerated UCQ rewriting plus its ReformulationStats — is keyed by the
/// query's CanonicalQueryKey. The facade announces the current CacheScope
/// before every lookup; the implementation digests the network's catalog
/// change log and drops exactly the entries whose dependency footprint
/// the changes touch (docs/churn_invalidation.md), so a stale plan can
/// never be served while unrelated entries survive churn. Cached plans
/// are still *evaluated* through the degraded/gated path — caching reuses
/// the reformulation work, never the availability outcome.
class PlanCacheHook {
 public:
  struct Plan {
    UnionQuery rewriting;
    ReformulationStats stats;
    /// The physical plan compiled by the vectorized engine for this
    /// rewriting, shared by every facade that hits this entry (plans are
    /// engine-agnostic; see qp/physical_plan.h). Always non-null.
    std::shared_ptr<qp::PhysicalPlanSlot> physical =
        std::make_shared<qp::PhysicalPlanSlot>();
  };
  struct InsertOutcome {
    bool stored = false;
    /// The entry was dropped because the network changed between
    /// reformulation start and insert time (the mid-churn guard).
    bool dropped_stale = false;
    size_t evictions = 0;
  };
  virtual ~PlanCacheHook() = default;
  /// Declares the scope of subsequent Find calls; returns the number of
  /// entries the scope change invalidated.
  virtual size_t EnterScope(const CacheScope& scope) = 0;
  /// The cached plan for the canonical key in the current scope, or null.
  /// Shared ownership: the plan stays usable even if a concurrent insert
  /// evicts the entry (serving threads share one cache — a raw pointer
  /// "valid until the next call" would be unsound there).
  virtual std::shared_ptr<const Plan> Find(const std::string& canonical_key) = 0;
  /// Inserts a plan reformulated under the scope declared by EnterScope.
  /// `current_revision`/`current_epoch` are the network's values at insert
  /// time; any mismatch with the scope means the network churned while the
  /// plan was being built, and the entry is dropped.
  virtual InsertOutcome Insert(const std::string& canonical_key, Plan plan,
                               uint64_t current_revision,
                               uint64_t current_epoch) = 0;
};

/// The top-level facade: a peer data management system instance holding a
/// network specification and the stored data, answering queries end to end
/// (reformulate, then evaluate over the stored relations).
///
/// Typical use:
///
///   Pdms pdms;
///   PDMS_RETURN_IF_ERROR(pdms.LoadProgram(R"(
///     peer P { relation R(a, b); }
///     stored s(a, b) <= P:R(a, b).
///     fact s(1, 2).
///   )"));
///   auto answers = pdms.Answer("q(x) :- P:R(x, y).");
class Pdms {
 public:
  explicit Pdms(ReformulationOptions options = {});
  ~Pdms();
  Pdms(Pdms&&) noexcept;
  Pdms& operator=(Pdms&&) noexcept;

  /// Parses and merges a textual PPL program (declarations and facts) into
  /// this instance.
  Status LoadProgram(std::string_view text);

  /// Mutable access to the specification. Catalog mutations bump the
  /// network's revision; the cached normalization is revalidated against
  /// it on the next query, so stale reformulations are impossible even if
  /// the returned pointer is stored and used much later.
  PdmsNetwork* mutable_network();
  const PdmsNetwork& network() const { return network_; }

  Database* mutable_database() { return &data_; }
  const Database& database() const { return data_; }

  /// Inserts a tuple into a stored relation (validated against the
  /// catalog).
  Status Insert(std::string_view stored_relation, Tuple tuple);

  void set_options(const ReformulationOptions& options);
  const ReformulationOptions& options() const { return options_; }

  // --- Fault tolerance ---

  /// Retry policy applied when a stored-relation scan fails (see
  /// docs/fault_tolerance.md).
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Per-query deadline on simulated access time (latency + backoff).
  void set_deadline(Deadline deadline) { deadline_ = deadline; }
  const Deadline& deadline() const { return deadline_; }

  /// The fault injector consulted on every stored-relation scan (created
  /// lazily, seeded by `set_fault_seed`; null until first requested, in
  /// which case scans are assumed to always succeed).
  FaultInjector* mutable_fault_injector();
  const FaultInjector* fault_injector() const { return injector_.get(); }
  /// (Re)creates the injector with a fresh seed; profiles are discarded.
  void set_fault_seed(uint64_t seed);

  // --- Observability ---

  /// Attaches a span collector / metrics registry (borrowed, nullable —
  /// null is the zero-overhead sink; see docs/observability.md). Every
  /// public query entry clears the trace first, so one long-lived context
  /// always holds exactly the last query's span tree; the registry
  /// accumulates across queries until its own Clear.
  void set_trace(obs::TraceContext* trace) { trace_ = trace; }
  obs::TraceContext* trace() const { return trace_; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // --- Cross-query caching (docs/plan_cache.md) ---

  /// Attaches a plan cache (borrowed, nullable — null disables). It is
  /// consulted by every answering entry point under the current
  /// (revision, availability epoch) scope; with a metrics registry
  /// attached the facade accumulates the `cache.*` counters and with a
  /// trace attached each query gets a `cache_lookup` span plus a `cache`
  /// attribute on its query span. `cache::CachingPdms` bundles a Pdms with
  /// the cache pre-wired.
  void set_plan_cache(PlanCacheHook* cache) { plan_cache_ = cache; }
  PlanCacheHook* plan_cache() const { return plan_cache_; }

  /// Parses a query in rule syntax, e.g. `q(x) :- H:Doctor(x, h).`.
  Result<ConjunctiveQuery> ParseQuery(std::string_view text) const;

  /// Reformulates a query into a union of CQs over stored relations.
  Result<ReformulationResult> Reformulate(const ConjunctiveQuery& query);
  Result<ReformulationResult> Reformulate(std::string_view query_text);

  /// Reformulates and evaluates: the answers obtained from the stored data
  /// (all of them certain answers; all certain answers in the PTIME
  /// fragments of Section 3 when every source is available).
  Result<Relation> Answer(const ConjunctiveQuery& query);
  Result<Relation> Answer(std::string_view query_text);

  /// Answer with the degradation report: sources that are unavailable in
  /// the catalog are pruned during reformulation, scans are mediated by
  /// the fault injector (with retries and the deadline), and the result
  /// carries a completeness verdict plus the excluded peers/relations and
  /// retry/timeout counters. `Answer` is equivalent to calling this and
  /// keeping only the tuples.
  Result<AnswerResult> AnswerWithReport(const ConjunctiveQuery& query);
  Result<AnswerResult> AnswerWithReport(std::string_view query_text);

  /// Streaming variant: each rewriting is evaluated as soon as the
  /// reformulator emits it, and every *new* answer tuple is delivered to
  /// `on_answer` immediately (return false to stop). This is the usage
  /// mode the paper optimizes for — "an important optimization is to
  /// generate the first reformulations quickly so query execution can
  /// begin" (Section 4.3). Returns all distinct answers found.
  Result<Relation> AnswerStreaming(
      const ConjunctiveQuery& query,
      const std::function<bool(const Tuple&)>& on_answer);

  /// Chase-based reference certain answers (exponentially slower; intended
  /// for validation and small instances).
  Result<Relation> CertainAnswersOracle(const ConjunctiveQuery& query,
                                        const ChaseOptions& chase = {});

  /// Provenance: the rewritings (conjunctive queries over stored
  /// relations) that actually produce `answer` for `query` on the current
  /// data — Section 2's "answers can be annotated appropriately for the
  /// user". Each returned query pinpoints which stored relations, and
  /// hence which peers' data, justify the answer. Empty when the tuple is
  /// not an answer.
  Result<std::vector<ConjunctiveQuery>> ExplainAnswer(
      const ConjunctiveQuery& query, const Tuple& answer);

  /// Section 3 complexity analysis of the current specification.
  Classification Classify() const { return network_.Classify(); }

  /// The vectorized query engine every answering path evaluates through —
  /// lazily created, owned. Exposed for the shell's `plan` command and the
  /// engine tests.
  qp::Engine* engine();

 private:
  Reformulator* GetReformulator();
  /// This query's pipeline: the facade's options, trace, metrics and
  /// caches.
  QueryPipeline Pipeline();
  /// The plan step alone, for the entries that evaluate nothing or
  /// evaluate rewriting by rewriting (Reformulate, ExplainAnswer).
  Result<QueryPlan> PlanQuery(const ConjunctiveQuery& query);
  /// The scan gate of one query: fault injector, retry policy, deadline.
  AccessController NewAccessController();

  PdmsNetwork network_;
  Database data_;
  ReformulationOptions options_;
  RetryPolicy retry_;
  Deadline deadline_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<qp::Engine> engine_;  // see engine()
  std::unique_ptr<Reformulator> reformulator_;  // rebuilt on revision change
  uint64_t reformulator_revision_ = 0;  // network revision it was built at
  obs::TraceContext* trace_ = nullptr;      // not owned; may be null
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
  PlanCacheHook* plan_cache_ = nullptr;      // not owned; may be null
};

}  // namespace pdms

#endif  // PDMS_CORE_PDMS_H_
