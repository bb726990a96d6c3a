#ifndef PDMS_CACHE_CHANGE_ANALYZER_H_
#define PDMS_CACHE_CHANGE_ANALYZER_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>

#include "pdms/core/network.h"
#include "pdms/core/normalize.h"
#include "pdms/core/rule_goal_tree.h"

namespace pdms {
namespace cache {

/// What one batch of catalog changes means for a dependency-indexed cache:
/// either "start over" (scope discontinuity — options fingerprint changed,
/// the change log was truncated past our cursor, or the analyzer is
/// unprimed) or a predicate set plus a description-id threshold to hand to
/// DependencyIndex::Match.
struct ChangeAnalysis {
  bool full_reset = false;
  /// Predicates whose expansion candidates or reachability (presence *or*
  /// depth — depth drives expansion ordering) changed. Includes the
  /// changes' direct predicates.
  std::set<std::string> affected_predicates;
  /// Description ids at or after this index were renumbered; id-sensitive
  /// entries (the goal memo embeds ids in guard sets) must drop. SIZE_MAX
  /// = no renumbering.
  size_t id_shift_from = SIZE_MAX;
  /// Raw change-log entries digested (0 = scope was quiescent).
  size_t changes = 0;
};

/// Digests a PdmsNetwork's catalog change log into the minimal
/// invalidation a cache must perform (docs/churn_invalidation.md). The
/// analyzer keeps a cursor into the log plus snapshots of the normalized
/// rules and their Reachability (the same value the tree builder
/// consults: effective and as-if-all-available depths, either shifting
/// changes what a build produces). Advance() recomputes it and diffs the
/// two, so a change deep in the topology — say a crashed peer making a
/// distant relation unreachable — propagates to every predicate whose
/// answerability or depth rank it moved, which the changes' direct
/// predicates alone would miss.
///
/// Not thread-safe; the owning cache's mutex serializes it.
class ChangeAnalyzer {
 public:
  /// Digests everything that happened since the last Advance under the
  /// new scope and snapshots it. Null `scope.network` always full-resets
  /// (no log to consult); so does a truncated log or a fingerprint change.
  ChangeAnalysis Advance(const CacheScope& scope);

  /// Forgets all snapshots; the next Advance reports a full reset. Called
  /// when the owning cache clears wholesale for its own reasons.
  void Reset();

 private:
  /// Rebuilds rules (when the revision moved) and their reachability
  /// from `scope`, remembering the scope identity.
  void Snapshot(const CacheScope& scope);

  bool primed_ = false;
  uint64_t seq_ = 0;       // change-log cursor (last digested seq)
  uint64_t revision_ = 0;  // revision rules_ was normalized at
  std::string fingerprint_;
  std::set<std::string> unavailable_;
  std::set<std::string> allowed_;
  ExpansionRules rules_;
  Reachability reach_;
};

}  // namespace cache
}  // namespace pdms

#endif  // PDMS_CACHE_CHANGE_ANALYZER_H_
