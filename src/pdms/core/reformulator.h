#ifndef PDMS_CORE_REFORMULATOR_H_
#define PDMS_CORE_REFORMULATOR_H_

#include <functional>
#include <optional>
#include <set>
#include <string>

#include "pdms/core/enumerate.h"
#include "pdms/core/network.h"
#include "pdms/core/normalize.h"
#include "pdms/core/rule_goal_tree.h"

namespace pdms {

/// The outcome of reformulating one query: a union of conjunctive queries
/// over stored relations, plus the build/enumeration statistics.
struct ReformulationResult {
  UnionQuery rewriting;
  ReformulationStats stats;
};

/// The query reformulation engine (Section 4). Construction normalizes the
/// network once (Step 1); each Reformulate call builds a rule-goal tree
/// (Step 2) and enumerates its solutions (Step 3).
///
/// Guarantees (Section 4's soundness/completeness statement): evaluating
/// the returned rewriting over the stored relations produces only certain
/// answers; when the network lies in a PTIME fragment of Section 3
/// (see PdmsNetwork::Classify) the rewriting produces *all* certain
/// answers, budget permitting.
class Reformulator {
 public:
  explicit Reformulator(const PdmsNetwork& network,
                        ReformulationOptions options = {});

  /// Full reformulation: returns every rewriting (subject to budgets).
  Result<ReformulationResult> Reformulate(const ConjunctiveQuery& query);

  /// Per-call options override (the instance options are untouched): used
  /// by the facade to fold the network's current availability state into
  /// one query without rebuilding the normalization.
  Result<ReformulationResult> Reformulate(const ConjunctiveQuery& query,
                                          const ReformulationOptions& options);

  /// Streaming variant: rewritings are delivered to `sink` as they are
  /// found (return false from the sink to stop early). Statistics,
  /// including per-rewriting timestamps measured from call entry, are
  /// returned in the result's stats; `rewriting` holds whatever the sink
  /// accepted.
  Result<ReformulationResult> ReformulateStreaming(
      const ConjunctiveQuery& query, const RewritingSink& sink);
  Result<ReformulationResult> ReformulateStreaming(
      const ConjunctiveQuery& query, const ReformulationOptions& options,
      const RewritingSink& sink);

  /// Step 2 only — used by benchmarks that measure tree size.
  Result<RuleGoalTree> BuildTree(const ConjunctiveQuery& query);

  const ExpansionRules& expansion_rules() const { return rules_; }
  const ReformulationOptions& options() const { return options_; }
  void set_options(const ReformulationOptions& options) {
    options_ = options;
  }

 private:
  /// The reachability of the normalization under `options`' source
  /// restrictions: the kept value while (unavailable_stored,
  /// allowed_stored) matches the last key, else recomputed (counted in
  /// `reform.reachability_computed`). `*computed` says which.
  const Reachability& ReachabilityFor(const ReformulationOptions& options,
                                      bool* computed);

  ExpansionRules rules_;
  ReformulationOptions options_;
  // The last reachability and the key it was computed under. Not
  // synchronized: each facade owns its Reformulator.
  std::optional<Reachability> reach_;
  std::set<std::string> reach_unavailable_;
  std::set<std::string> reach_allowed_;
};

}  // namespace pdms

#endif  // PDMS_CORE_REFORMULATOR_H_
