#ifndef PDMS_CORE_RULE_GOAL_TREE_H_
#define PDMS_CORE_RULE_GOAL_TREE_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "pdms/constraints/constraint_set.h"
#include "pdms/core/normalize.h"
#include "pdms/lang/conjunctive_query.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"
#include "pdms/util/status.h"

namespace pdms {

class CostEstimator;

/// Tunables for tree construction and solution enumeration. The paper's
/// Section 4.3 optimizations each map to a flag so the ablation benchmarks
/// can toggle them individually.
struct ReformulationOptions {
  /// Prune expansions whose constraint label c(n) is unsatisfiable.
  bool prune_unsatisfiable = true;
  /// Precompute which predicates can possibly reach stored relations and
  /// refuse to expand goals that cannot ("detection of dead ends").
  bool prune_dead_ends = true;
  /// Order each goal's expansions so that cheap paths to stored relations
  /// come first (the paper's priority scheme); makes the first rewritings
  /// arrive early in the depth-first enumeration.
  bool order_expansions = true;
  /// Minimize emitted rewritings and drop ones contained in others.
  bool remove_redundant = false;

  /// Restriction on data sources (Section 2: "when a peer submits a query,
  /// it may not always be interested in obtaining all possible data from
  /// anywhere in the PDMS ... restrictions on data sources can be
  /// specified"). When non-empty, only the listed stored relations may
  /// appear in rewritings; goals over other stored relations are treated
  /// as unanswerable.
  std::set<std::string> allowed_stored;

  /// Stored relations that are currently unreachable (down peers, failed
  /// sources). Like `allowed_stored` they are treated as unanswerable —
  /// branches that can only reach them are pruned — but exclusions are
  /// additionally reported in ReformulationStats::excluded_stored and
  /// counted in `pruned_unavailable`, so callers can tell a degraded
  /// rewriting from a complete one. Populated per query by the Pdms facade
  /// from the network's availability state.
  std::set<std::string> unavailable_stored;

  /// Budget: stop expanding once the tree holds this many nodes
  /// (goal + rule); the result is then sound but possibly incomplete.
  size_t max_tree_nodes = 5u * 1000 * 1000;
  /// Stop after this many rewritings (0 = unlimited).
  size_t max_rewritings = 0;
  /// Wall-clock budget for the whole reformulation in milliseconds
  /// (0 = unlimited).
  double time_budget_ms = 0;

  /// Observability (docs/observability.md). Borrowed, nullable — null is
  /// the zero-overhead sink — and never part of the reformulation
  /// semantics. When `trace` is set the builder emits one span per goal
  /// expansion (with prune-reason attributes mapping to the Section 4.3
  /// optimizations) and the enumerator marks each emitted rewriting; when
  /// `metrics` is set the per-query stats are folded into the registry.
  obs::TraceContext* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  /// Unused: no code reads it. Reformulation and evaluation are serial
  /// whatever it says; concurrency comes from serving requests on separate
  /// facades (docs/parallel_execution.md). It stays only because the
  /// benchmark's workload sources (perfbench/src) assign it, and goes with
  /// the next change to the benchmark.
  size_t threads = 1;

  /// Cost-aware routing (docs/network_cost_model.md). With a
  /// `cost_estimator` attached, `order_expansions` breaks depth ties by
  /// estimated network round-trip cost, so among equally-shallow paths the
  /// one reaching cheap (near, fast, healthy) stored relations is explored
  /// first. Distributed runtimes (SimPdms) additionally use the flag for
  /// cheapest-provider selection and relay-batched fan-out. Routing only —
  /// never changes the answer set — but it IS part of OptionsFingerprint
  /// (appended as "|c1" when set) because it reorders children, and cached
  /// plans record disjunct order.
  bool cost_aware = false;
  /// Borrowed, nullable — null leaves ordering purely depth-based even
  /// when `cost_aware` is set.
  const CostEstimator* cost_estimator = nullptr;
};

/// The dependency footprint of one reformulation: every predicate whose
/// expansion candidates were consulted while building the tree — including
/// candidates that were pruned, since consulting them shaped the result.
/// The plan cache stores the footprint with each entry so a catalog change
/// invalidates only the entries it can actually affect
/// (docs/churn_invalidation.md).
struct DepSet {
  /// Peer relations, stored relations, and normalization-introduced view
  /// predicates the build consulted.
  std::set<std::string> predicates;
};

/// Everything a cache needs to know about "now": identity of the catalog,
/// its counters, and the per-query source restrictions. The facade (and
/// SimPdms) builds one before each query and announces it to the plan
/// cache, which consults the network's change log to invalidate exactly the
/// affected entries instead of clearing wholesale.
struct CacheScope {
  /// Borrowed for the duration of the EnterScope call; null disables
  /// dependency tracking (the cache then falls back to wholesale clearing
  /// on any revision/epoch change, which is always sound).
  const PdmsNetwork* network = nullptr;
  uint64_t revision = 0;
  uint64_t epoch = 0;
  /// Stored relations unusable for this query (network availability plus
  /// any caller-specified exclusions) and the caller's source allow-list;
  /// the analyzer needs both to recompute reachability.
  std::set<std::string> unavailable_stored;
  std::set<std::string> allowed_stored;
  /// Structural options fingerprint (OptionsFingerprint); a change is a
  /// full reset — different prune flags build different trees.
  std::string options_fingerprint;
};

/// Counters reported by the reformulator; the Figure 3/4 benchmarks print
/// these directly.
struct ReformulationStats {
  size_t goal_nodes = 0;
  size_t rule_nodes = 0;  // expansion nodes (definitional + inclusion)
  size_t inclusion_nodes = 0;
  size_t definitional_nodes = 0;
  size_t pruned_unsat = 0;
  size_t pruned_dead = 0;
  size_t pruned_guard = 0;  // expansions skipped by the description reuse guard
  /// Goals pruned because they name a stored relation listed in
  /// ReformulationOptions::unavailable_stored.
  size_t pruned_unavailable = 0;
  /// The unavailable stored relations that would otherwise have been
  /// usable sources for this query's network (sorted).
  std::vector<std::string> excluded_stored;
  size_t combos_failed = 0;  // solution combinations dropped at assembly
  size_t rewritings = 0;
  /// Syntactically-isomorphic rewritings (equal CanonicalQueryKey) the
  /// enumerator dropped so the evaluator never runs a duplicate disjunct.
  size_t duplicate_disjuncts = 0;
  /// The build's dependency footprint (filled by the TreeBuilder).
  DepSet deps;
  bool tree_truncated = false;  // node budget hit
  bool enumeration_truncated = false;  // rewriting/time budget hit
  double build_ms = 0;
  double enumerate_ms = 0;
  /// Elapsed time (from reformulation start) at which the k-th rewriting
  /// was emitted.
  std::vector<double> time_to_rewriting_ms;

  size_t total_nodes() const { return goal_nodes + rule_nodes; }
  std::string ToString() const;
};

struct GoalNode;

/// A fingerprint of the option fields that shape the rule-goal tree (prune
/// flags, expansion ordering, the source allow-list). Part of the cache
/// scope: two builds may share cached state only when their fingerprints
/// agree, because these options change which expansions the builder keeps.
/// Availability (`unavailable_stored`) is deliberately NOT part of the
/// fingerprint — availability flips are catalog change events handled by
/// dependency-tracked invalidation, so entries untouched by a flip keep
/// hitting (docs/churn_invalidation.md).
std::string OptionsFingerprint(const ReformulationOptions& options);

/// ReformulationStats::excluded_stored under `options`: the relations of
/// `unavailable_stored` that `is_stored` accepts and `allowed_stored`
/// admits, sorted. Computed by every tree build, and again on plan-cache
/// hits, whose cached report may predate the current availability.
std::vector<std::string> ExcludedStored(
    const ReformulationOptions& options,
    const std::function<bool(const std::string&)>& is_stored);

/// A rule node: one way of expanding its parent goal node. Definitional
/// expansions (GAV-style) replace the goal with the body of a datalog rule;
/// inclusion expansions (LAV-style) replace the goal — and possibly some of
/// its sibling goals, recorded in `unc` — with a single view atom obtained
/// from an MCD.
struct ExpansionNode {
  enum class Kind { kDefinitional, kInclusion };

  Kind kind = Kind::kDefinitional;
  size_t description_id = 0;

  /// The most-general unifier of the goal label with the (fresh-renamed)
  /// rule head, or the MCD unifier. Applied when this expansion is chosen
  /// during solution construction.
  Substitution unifier;

  /// Comparison predicates this expansion *requires* (a definitional
  /// rule's body comparisons, θ-applied). They filter answers and must
  /// survive into the final rewriting.
  ConstraintSet required_constraints;

  /// Comparison predicates this expansion *grants* (an inclusion view's
  /// body comparisons): guaranteed true of any tuple the view supplies,
  /// used for satisfiability pruning and to discharge required
  /// constraints whose variables vanish.
  ConstraintSet granted_constraints;

  /// The constraint label c(n) of this rule node: parent label plus the
  /// constraints above, used to prune children.
  ConstraintSet label;

  /// Children goal nodes: the rule body's subgoals (definitional) or the
  /// single view atom (inclusion).
  std::vector<std::unique_ptr<GoalNode>> children;

  /// Inclusion only: indices (within the parent scope's children) of the
  /// sibling goals this MCD covers — the paper's `unc` label. Always
  /// contains the expanded goal's own index.
  std::vector<size_t> unc;

  bool viable = true;  // survives the structural dead-end pass
};

/// A goal node, labeled with an atom over a peer relation, a stored
/// relation (leaf), or a normalization-introduced view predicate.
struct GoalNode {
  Atom label;
  ConstraintSet constraints;  // c(n) projected onto this goal's variables
  bool is_stored = false;
  bool viable = false;
  size_t index_in_scope = 0;  // position among the parent's children
  std::vector<std::unique_ptr<ExpansionNode>> expansions;
};

/// The rule-goal tree for one query: the root expansion node is the query
/// rule itself (its children are the query's subgoals).
struct RuleGoalTree {
  ConjunctiveQuery query;
  std::unique_ptr<ExpansionNode> root;
  ReformulationStats stats;  // build-phase counters

  /// Multi-line indented dump (for debugging and the ppl_shell example).
  std::string ToString() const;
};

/// Builds the rule-goal tree for `query` (Step 2 of Section 4.2).
/// Termination in cyclic PDMSs comes from the per-path description-reuse
/// guard; the node budget in `options` bounds worst-case blowup.
class TreeBuilder {
 public:
  /// `reach` must be Reachability::Compute(rules, options.unavailable_stored,
  /// options.allowed_stored); borrowed for the builder's lifetime (the
  /// Reformulator keeps one per network state).
  TreeBuilder(const ExpansionRules& rules, const Reachability& reach,
              ReformulationOptions options);

  Result<RuleGoalTree> Build(const ConjunctiveQuery& query);

 private:
  struct ScopeContext {
    ExpansionNode* scope;
    Atom interface;  // head atom of this scope (distinguished variables)
  };

  void BuildScope(const ScopeContext& ctx);
  void ExpandGoal(const ScopeContext& ctx, GoalNode* goal);
  /// One definitional rule candidate: guard/budget/unification/prune
  /// checks, child goals, recursive BuildScope. Appends the surviving
  /// expansion to the goal's expansions. Returns false when the node
  /// budget halted the expansion (the caller then abandons the goal).
  bool TryDefinitionalCandidate(GoalNode* goal,
                                const ExpansionRules::DefRule& dr);
  /// One inclusion view candidate (all of its MCDs). Same contract.
  bool TryInclusionCandidate(const ScopeContext& ctx, GoalNode* goal,
                             const ExpansionRules::View& vw,
                             const std::vector<Atom>& siblings,
                             const Atom& iface);
  // True if `predicate` is a stored relation the caller allows rewritings
  // to use (honors ReformulationOptions::allowed_stored).
  bool IsUsableStored(const std::string& predicate) const;
  void MarkViability(ExpansionNode* scope);

  const ExpansionRules& rules_;
  const Reachability& reach_;
  ReformulationOptions options_;
  VariableFactory fresh_{"_t"};
  // Per-build state of the depth-first walk.
  size_t node_count_ = 0;
  bool truncated_ = false;
  std::set<size_t> path_;  // description-reuse guard along the current path
  ReformulationStats* stats_ = nullptr;  // also the footprint recorder
};

}  // namespace pdms

#endif  // PDMS_CORE_RULE_GOAL_TREE_H_
