#ifndef PDMS_QP_PLANNER_H_
#define PDMS_QP_PLANNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pdms/data/database.h"
#include "pdms/lang/conjunctive_query.h"
#include "pdms/qp/column_store.h"
#include "pdms/qp/physical_plan.h"
#include "pdms/util/status.h"

namespace pdms {
namespace qp {

/// A compiled term: an inline constant Value or a slot index. Constants
/// stay as Values (not Codes) so a plan is dictionary-independent and can
/// be shared across engines; execution encodes them against its own
/// dictionary when it binds the plan to data.
struct PlanTerm {
  bool is_const = false;
  Value value;      // when is_const
  size_t slot = 0;  // when !is_const
};

/// A compiled comparison predicate.
struct PlanComparison {
  CmpOp op = CmpOp::kEq;
  PlanTerm lhs, rhs;
};

/// One columnar scan with its pushed-down filters: constant equality on a
/// column, equality between two columns (a variable repeated inside the
/// atom), and the columns that bind new slots (first occurrence of each
/// variable).
struct PlannedScan {
  size_t atom_index = 0;  // into cq.body()
  std::string relation;
  size_t arity = 0;
  std::vector<std::pair<size_t, Value>> const_eq;  // column == constant
  std::vector<std::pair<size_t, size_t>> dup_eq;   // column == earlier column
  std::vector<std::pair<size_t, size_t>> binds;    // column -> new slot
  double est_rows = 0;  // after filters
  /// Estimated network round trip to fetch this relation, in virtual ms
  /// (docs/network_cost_model.md); 0 when no cost annotator was supplied
  /// or the relation is local. Explain-only — join order, build-side
  /// choice, and answers never read it.
  double est_net_ms = 0;
  /// Identifies (filters, key columns) for join-table caching; filled by
  /// the planner for join steps.
  std::string signature;
};

/// One step of a disjunct's physical plan: the first step is a bare scan;
/// each later step hash-joins the running intermediate with one more scan.
struct PlannedStep {
  PlannedScan scan;
  /// Join keys: slot already bound in the intermediate <-> column of the
  /// scan. Empty on the first step, and on a cross product.
  std::vector<size_t> key_slots;
  std::vector<size_t> key_cols;
  /// True: hash table is built over the (filtered) scan — cacheable in the
  /// catalog — and the intermediate probes. False: built over the
  /// intermediate, the scan probes (chosen when the intermediate is
  /// estimated smaller).
  bool build_on_atom = true;
  /// Comparisons (indices into DisjunctPlan::comparisons) whose variables
  /// are all bound once this step completes; applied as a filter here.
  std::vector<size_t> comparisons;
  /// Per slot: whether this step's output intermediate must carry the
  /// slot's column (it is read by this step's comparisons, a later join
  /// key, a later comparison, or the head projection). Gathers skip dead
  /// slots, so deep chain joins stay linear in the number of *live*
  /// columns rather than all columns ever bound. Empty = keep everything.
  std::vector<char> live_after;
  double est_out = 0;  // estimated intermediate rows after this step
};

/// The physical plan of one disjunct.
struct DisjunctPlan {
  size_t num_slots = 0;
  std::vector<std::string> slot_names;  // per slot, first-appearance order
  std::vector<PlanComparison> comparisons;
  /// Comparisons with no variables at all, checked once before execution.
  std::vector<size_t> const_comparisons;
  std::vector<PlannedStep> steps;
  std::vector<PlanTerm> head;
  /// Distinct relations scanned, in body order (fingerprint + prep).
  std::vector<std::string> relations;
};

/// The compiled physical plan of a whole union query; this is what sits in
/// a PhysicalPlanSlot next to the cached rewriting.
struct UnionPlan : public PhysicalPlanHandle {
  /// ColumnarCatalog::StatsFingerprint over every relation the plan scans,
  /// taken at planning time. Execution replans when its catalog disagrees.
  uint64_t stats_fingerprint = 0;
  /// Distinct relations across all disjuncts, sorted (fingerprint input).
  std::vector<std::string> relations;
  std::vector<DisjunctPlan> disjuncts;
};

/// Optional per-relation network-cost annotator: maps a stored relation
/// name to its estimated fetch round trip in virtual ms (typically
/// CostEstimator::ScanCostMs). Stamps PlannedScan::est_net_ms for explain
/// output; never consulted for join ordering, so a null annotator and a
/// live one plan identically.
using NetCostFn = std::function<double(const std::string&)>;

/// Plans one disjunct: pushes constant/duplicate filters into the scans,
/// orders the joins greedily by estimated output cardinality (statistics
/// from `catalog`; relations missing from `db` estimate to zero rows), and
/// picks each join's build side. The query must be safe (CheckSafe).
Result<DisjunctPlan> PlanDisjunct(const ConjunctiveQuery& cq,
                                  const Database& db,
                                  const ColumnarCatalog& catalog,
                                  const NetCostFn& net_cost = nullptr);

/// Plans every disjunct and stamps the stats fingerprint.
Result<UnionPlan> PlanUnion(const UnionQuery& uq, const Database& db,
                            const ColumnarCatalog& catalog,
                            const NetCostFn& net_cost = nullptr);

/// Renders one disjunct's plan as an indented text block:
///
///   disjunct 0: q(x, z) :- r(x, y), s(y, z)
///     scan s est=12 actual=12
///     hash-join r keys[y] build=scan est=40.0 actual=37
///     project -> 2 cols, est=40.0 actual=31
///
/// `actual_rows` (nullable) carries observed per-step output cardinalities
/// followed by the final distinct answer count, as produced by execution;
/// without it the "actual=" fields are omitted.
std::string RenderDisjunctPlan(const DisjunctPlan& plan,
                               const ConjunctiveQuery& cq, size_t index,
                               const std::vector<size_t>* actual_rows);

}  // namespace qp
}  // namespace pdms

#endif  // PDMS_QP_PLANNER_H_
