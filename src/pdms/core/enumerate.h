#ifndef PDMS_CORE_ENUMERATE_H_
#define PDMS_CORE_ENUMERATE_H_

#include <functional>

#include "pdms/core/rule_goal_tree.h"
#include "pdms/util/timer.h"

namespace pdms {

/// Called once per emitted conjunctive rewriting (over stored relations
/// only). Return false to stop enumeration early — this is how
/// first-k-rewritings measurements and rewriting caps are implemented.
using RewritingSink = std::function<bool(const ConjunctiveQuery&)>;

/// Step 3 of the reformulation algorithm: constructs the solutions from the
/// rule-goal tree. Walks the tree choosing one expansion per goal node such
/// that, at every rule node, the chosen expansions' `unc` sets cover all
/// children; merges the chosen expansions' unifiers (dropping conflicting
/// combinations); and assembles each successful combination into a
/// conjunctive query over stored relations, which is handed to `sink`.
///
/// The walk streams depth-first: nothing is materialized, and the first
/// rewritings arrive as soon as the leftmost viable path completes.
///
/// `timer` supplies elapsed-time stamps (shared with the build phase so
/// reported times measure from query submission, as in Figure 4); stats
/// receives per-rewriting timestamps and truncation flags.
Status EnumerateRewritings(const RuleGoalTree& tree,
                           const ReformulationOptions& options,
                           const WallTimer& timer,
                           ReformulationStats* stats,
                           const RewritingSink& sink);

}  // namespace pdms

#endif  // PDMS_CORE_ENUMERATE_H_
