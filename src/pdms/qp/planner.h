#ifndef PDMS_QP_PLANNER_H_
#define PDMS_QP_PLANNER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
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
  /// Comparisons whose variables are all bound once this step completes,
  /// in query order; applied as a filter here.
  std::vector<PlanComparison> comparisons;
  /// Per slot: whether this step's output intermediate must carry the
  /// slot's column (it is read by this step's comparisons, a later join
  /// key, a later comparison, or the head projection). Gathers skip dead
  /// slots, so deep chain joins stay linear in the number of *live*
  /// columns rather than all columns ever bound. Empty = keep everything.
  std::vector<char> live_after;
  double est_out = 0;  // estimated intermediate rows after this step
};

/// The physical plan of one disjunct.
///
/// Slots are canonical: they are numbered in first-binding order along the
/// planned steps, so step k's binds take the next free ids. Two plans whose
/// steps agree on a prefix therefore agree on every slot that prefix binds,
/// which is what lets UnionPlan share the prefix.
struct DisjunctPlan {
  size_t num_slots = 0;
  std::vector<std::string> slot_names;  // per slot
  /// Comparisons with no variables at all, checked once before execution.
  std::vector<PlanComparison> const_comparisons;
  std::vector<PlannedStep> steps;
  std::vector<PlanTerm> head;
  /// Distinct relations scanned, in body order.
  std::vector<std::string> relations;
};

/// One node of a UnionPlan's shared-prefix trie: a planned step, joined
/// onto the intermediate of its parent. The path from the root to a node
/// is a join prefix common to every disjunct below it, so it runs once per
/// execution however many disjuncts share it.
struct PlanNode {
  /// The step (unused at the root, which stands for the unit
  /// intermediate). Its live_after mask covers the slots bound up to this
  /// node and is the union of the masks of the disjuncts through it.
  PlannedStep step;
  uint32_t parent = 0;
  uint32_t relation = 0;    // index into UnionPlan::relations
  int32_t join_table = -1;  // index into UnionPlan::join_tables; -1: unkeyed
  std::vector<uint32_t> children;  // in insertion order
  std::vector<uint32_t> leaves;    // disjuncts whose path ends here
};

/// What a UnionPlan keeps of one disjunct besides its trie path.
struct DisjunctLeaf {
  uint32_t node = 0;  // where the path ends; 0 (the root) for a ground body
  std::vector<PlanTerm> head;
  /// Whether every comparison without variables holds; when false the
  /// disjunct contributes nothing and is not executed.
  bool const_ok = true;
  /// Distinct relations scanned, in body order, as indices into
  /// UnionPlan::relations (the gate probes them in this order).
  std::vector<uint32_t> relations;
  double est = 0;  // estimated rows after the last step (node != 0)
};

/// The compiled physical plan of a whole union query; this is what sits in
/// a PhysicalPlanSlot next to the cached rewriting. Each disjunct is
/// planned alone, then its steps are inserted into one prefix trie, so
/// every step is stored once per trie node rather than once per disjunct
/// (docs/query_planning.md, shared-prefix execution).
struct UnionPlan : public PhysicalPlanHandle {
  /// ColumnarCatalog::StatsFingerprint over every relation the plan scans,
  /// taken at planning time. Execution replans when its catalog disagrees.
  uint64_t stats_fingerprint = 0;
  /// Distinct relations across all disjuncts, sorted (fingerprint input).
  std::vector<std::string> relations;
  /// The trie; nodes[0] is the root and every parent precedes its
  /// children.
  std::vector<PlanNode> nodes;
  std::vector<DisjunctLeaf> disjuncts;
  /// One node per distinct (relation, scan signature) among the keyed
  /// steps, in first-use order: the join tables execution may need.
  std::vector<uint32_t> join_tables;
  /// The longest root-to-leaf path, in steps: how many intermediates one
  /// depth-first execution holds at once.
  size_t depth = 0;
};

/// Builds a UnionPlan's shared-prefix trie from disjunct plans added in
/// disjunct order. A child is found through one hash over (parent, step
/// key) — integer ids: relation, columns, canonical slots, constants'
/// value hashes — confirmed field by field, so insertion is O(steps).
class UnionPlanBuilder {
 public:
  UnionPlanBuilder();

  /// Inserts `dp`'s steps as a path, sharing every step already present
  /// under the same parent, and records the disjunct's leaf.
  void Add(DisjunctPlan dp);

  /// The plan, its relation list sorted (the fingerprint is not stamped).
  UnionPlan Finish() &&;

 private:
  uint32_t RelationId(const std::string& name);
  int32_t JoinTableId(uint32_t relation, const std::string& signature,
                      uint32_t node);

  UnionPlan plan_;
  std::vector<std::string> names_;  // by provisional relation id
  std::unordered_map<std::string, uint32_t> relation_ids_;
  // Per provisional relation id: scan signature -> join_tables index.
  std::vector<std::unordered_map<std::string, int32_t>> join_tables_;
  std::unordered_multimap<uint64_t, uint32_t> children_;  // step key -> node
};

/// Marks the trie nodes on the path of every disjunct flagged in
/// `disjuncts` (the root always). Execution visits only marked nodes.
std::vector<char> MarkPaths(const UnionPlan& plan,
                            const std::vector<char>& disjuncts);

/// Per UnionPlan::join_tables entry, what the nodes marked in `paths` need
/// of it: 0 nothing, 1 the cached table if there is one (a step that
/// builds over its intermediate and probes the scan), 2 a table built
/// over the scan side.
std::vector<char> JoinTableNeeds(const UnionPlan& plan,
                                 const std::vector<char>& paths);

/// Plans one disjunct: pushes constant/duplicate filters into the scans,
/// orders the joins greedily by estimated output cardinality (statistics
/// from `catalog`; relations missing from `db` estimate to zero rows), and
/// picks each join's build side. The query must be safe (CheckSafe).
Result<DisjunctPlan> PlanDisjunct(const ConjunctiveQuery& cq,
                                  const Database& db,
                                  const ColumnarCatalog& catalog);

/// Plans every disjunct, inserts its steps into the shared-prefix trie
/// (nodes are keyed on relation, scan filters and key columns, canonical
/// key slots, binds, build side and comparisons), and stamps the stats
/// fingerprint.
Result<UnionPlan> PlanUnion(const UnionQuery& uq, const Database& db,
                            const ColumnarCatalog& catalog);

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
