#include "pdms/cache/change_analyzer.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

namespace pdms {
namespace cache {

void ChangeAnalyzer::Snapshot(const CacheScope& scope) {
  if (!primed_ || revision_ != scope.revision) {
    rules_ = Normalize(*scope.network);
  }
  reach_ = Reachability::Compute(rules_, scope.unavailable_stored,
                                 scope.allowed_stored);
  primed_ = true;
  seq_ = scope.network->change_seq();
  revision_ = scope.revision;
  fingerprint_ = scope.options_fingerprint;
  unavailable_ = scope.unavailable_stored;
  allowed_ = scope.allowed_stored;
}

ChangeAnalysis ChangeAnalyzer::Advance(const CacheScope& scope) {
  ChangeAnalysis analysis;
  if (scope.network == nullptr) {
    // No log to consult: the caller should be in wholesale mode, but stay
    // sound if it isn't.
    Reset();
    analysis.full_reset = true;
    return analysis;
  }
  if (!primed_ || fingerprint_ != scope.options_fingerprint) {
    analysis.full_reset = true;
    Snapshot(scope);
    return analysis;
  }
  std::optional<std::vector<CatalogChange>> delta =
      scope.network->ChangesSince(seq_);
  if (!delta.has_value()) {
    // Log truncated past our cursor (or the network object was swapped
    // for an older one): no way to reconstruct the delta.
    analysis.full_reset = true;
    Snapshot(scope);
    return analysis;
  }
  bool availability_moved = scope.unavailable_stored != unavailable_ ||
                            scope.allowed_stored != allowed_;
  if (delta->empty() && !availability_moved) {
    return analysis;  // quiescent scope: nothing to do
  }
  analysis.changes = delta->size();
  for (const CatalogChange& change : *delta) {
    analysis.affected_predicates.insert(change.predicates.begin(),
                                        change.predicates.end());
    analysis.id_shift_from =
        std::min(analysis.id_shift_from, change.id_shift_from);
  }
  // Caller-level restrictions (ReformulationOptions::unavailable_stored
  // beyond what the network reports, or an allowed_stored edit that left
  // the fingerprint... it doesn't — allow-list changes move the
  // fingerprint) also flip relations without a log entry; the symmetric
  // difference covers them.
  for (const std::string& s : scope.unavailable_stored) {
    if (unavailable_.count(s) == 0) analysis.affected_predicates.insert(s);
  }
  for (const std::string& s : unavailable_) {
    if (scope.unavailable_stored.count(s) == 0) {
      analysis.affected_predicates.insert(s);
    }
  }

  Reachability before = std::move(reach_);
  Snapshot(scope);
  Reachability::Diff(before, reach_, &analysis.affected_predicates);
  return analysis;
}

void ChangeAnalyzer::Reset() {
  primed_ = false;
  seq_ = 0;
  revision_ = 0;
  fingerprint_.clear();
  unavailable_.clear();
  allowed_.clear();
  rules_ = ExpansionRules{};
  reach_ = Reachability{};
}

}  // namespace cache
}  // namespace pdms
