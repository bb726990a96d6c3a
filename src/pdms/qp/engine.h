#ifndef PDMS_QP_ENGINE_H_
#define PDMS_QP_ENGINE_H_

#include <memory>
#include <string>

#include "pdms/data/database.h"
#include "pdms/eval/evaluator.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"
#include "pdms/qp/column_store.h"
#include "pdms/qp/physical_plan.h"
#include "pdms/qp/planner.h"
#include "pdms/qp/vectorized.h"
#include "pdms/util/status.h"

namespace pdms {
namespace qp {

/// The vectorized query engine: owns a ColumnarCatalog (columnar twins,
/// statistics, cached join tables) and evaluates union queries through
/// cost-based physical plans. One engine belongs to one facade, like the
/// Database it shadows; it is not internally synchronized.
///
/// Contract (docs/query_planning.md): EvaluateUnionDegraded returns the
/// same answers, degradation report, and `eval.*` metrics as the legacy
/// eval::EvaluateUnionDegraded — gating runs in disjunct order, verbatim
/// — except that the answer relation is canonically sorted
/// (Relation::SortCanonical), which makes answers byte-identical across
/// engines and plan-cache states.
class Engine {
 public:
  /// Vectorized degraded union evaluation. With `slot` attached the
  /// compiled physical plan is cached there (next to the rewriting in the
  /// PlanCache) and reused while the catalog's statistics fingerprint
  /// matches. Spans: `qp.plan` (planning / reuse), `qp.exec` (gating +
  /// execution, the per-disjunct `eval_cq` / `join` spans nested under it
  /// with estimated and actual cardinality attributes).
  Result<DegradedEvalResult> EvaluateUnionDegraded(
      const UnionQuery& uq, const Database& db, const StoredGate& gate,
      obs::TraceContext* trace = nullptr,
      obs::MetricsRegistry* metrics = nullptr,
      PhysicalPlanSlot* slot = nullptr);

  /// Single-disjunct evaluation for the streaming answer path: Ensures the
  /// body's relations, plans the disjunct afresh and executes it,
  /// returning its distinct head tuples in probe order. Ungated (the caller
  /// gates) and untraced (the caller spans). Join tables missing from the
  /// catalog are built per call and not stored there: a stream's
  /// rewritings rarely repeat a scan signature, and caching them measured
  /// over the memory bound (docs/query_planning.md, streaming). An empty
  /// body is planned with no steps, so the head is projected from the
  /// one-row unit intermediate, exactly as the union path's trie root
  /// projects its leaves.
  Result<std::vector<Tuple>> EvaluateDisjunct(const ConjunctiveQuery& cq,
                                              const Database& db);

  /// Plans and executes every disjunct (ungated), returning the rendered
  /// physical plans with estimated vs actual per-step cardinalities — the
  /// shell's `plan` command.
  Result<std::string> Explain(const UnionQuery& uq, const Database& db);

  /// Eagerly refreshes the columnar twin and statistics of `rel` (the
  /// fact-insert hook: appends convert incrementally).
  void ObserveRelation(const Relation& rel,
                       obs::MetricsRegistry* metrics = nullptr);

  ColumnarCatalog* catalog() { return &catalog_; }

 private:
  /// Reuses the plan in `slot` when its fingerprint still matches this
  /// catalog; otherwise compiles a fresh plan (and publishes it to the
  /// slot, if any). Relations are Ensure'd first so statistics are
  /// current.
  Result<std::shared_ptr<const UnionPlan>> PlanOrReuse(
      const UnionQuery& uq, const Database& db, obs::TraceContext* trace,
      obs::MetricsRegistry* metrics, PhysicalPlanSlot* slot);

  ColumnarCatalog catalog_;
};

}  // namespace qp
}  // namespace pdms

#endif  // PDMS_QP_ENGINE_H_
