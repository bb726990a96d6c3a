#ifndef PDMS_CORE_NORMALIZE_H_
#define PDMS_CORE_NORMALIZE_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdms/core/network.h"
#include "pdms/lang/conjunctive_query.h"
#include "pdms/util/status.h"

namespace pdms {

/// Step 1 of the reformulation algorithm (Section 4.2): the PDMS
/// specification is compiled into two uniform collections —
///
///  * inclusion *views* `V ⊆ Q2`, used LAV-style: a subgoal over a relation
///    of body(Q2) can be covered by an MCD producing the atom V;
///  * *definitional rules* `p :- body`, used GAV-style by unfolding.
///
/// Every equality description contributes both directions as inclusions;
/// every inclusion `Q1 ⊆ Q2` is split into `V ⊆ Q2` plus the paired rule
/// `V :- Q1` with a fresh predicate V (skipped when Q1 is already a bare
/// atom); storage descriptions become views whose head is the stored
/// relation itself. Equality storage descriptions are used in their sound
/// `⊆` direction only — the closed-world direction cannot add rewritings,
/// only certain answers beyond PTIME reach (Theorem 3.2.2).
struct ExpansionRules {
  struct View {
    ConjunctiveQuery view;  // head = V or stored atom; body = Q2
    /// Index of the originating description; a root-to-leaf path of the
    /// rule-goal tree never uses the same description twice (termination
    /// guard for cyclic PDMSs).
    size_t description_id = 0;
  };
  struct DefRule {
    Rule rule;
    size_t description_id = 0;
    /// True for the paired `V :- Q1` half of a split inclusion: it is the
    /// only way to expand V and always follows its own inclusion half on
    /// the path, so it is exempt from the reuse guard.
    bool guard_exempt = false;
  };

  std::vector<View> views;
  std::vector<DefRule> rules;

  /// predicate -> indices of views whose body mentions the predicate.
  std::unordered_map<std::string, std::vector<size_t>> views_by_body_pred;
  /// predicate -> indices of rules whose head is the predicate.
  std::unordered_map<std::string, std::vector<size_t>> rules_by_head;

  /// Stored relation names (goal nodes over these are leaves).
  std::set<std::string> stored;

  /// Total number of original descriptions (guard-set domain).
  size_t num_descriptions = 0;

  std::string ToString() const;
};

/// Compiles the network. Fresh V predicates are drawn as `_V<k>` and cannot
/// collide with parsed relation names.
ExpansionRules Normalize(const PdmsNetwork& network);

/// Section 4.3's "detection of dead ends" over one normalization and one
/// pair of source restrictions: per predicate, the minimal number of
/// expansion levels to reach a usable stored relation. A stored relation
/// usable under (`unavailable`, `allowed`) has depth 0; a rule head is one
/// level above its deepest body predicate; a view's body predicates are
/// one level above its head. This ignores bindings and the reuse guard, so
/// it over-approximates, which is exactly what sound pruning needs.
///
/// Two depths are kept per predicate: the effective one and a structural
/// one computed as if every source were available. A predicate with only
/// the latter is dead *because of* unavailability, so the tree builder
/// reports its pruning as degradation rather than as a structural dead
/// end. The value depends only on the normalization and the two sets, so
/// the Reformulator keeps one per (unavailable, allowed) key and the cache
/// analyzers diff two of them.
class Reachability {
 public:
  Reachability() = default;
  static Reachability Compute(const ExpansionRules& rules,
                              const std::set<std::string>& unavailable,
                              const std::set<std::string>& allowed);

  /// Effective depth; SIZE_MAX when the predicate is unanswerable.
  size_t Depth(const std::string& predicate) const;
  bool Answerable(const std::string& predicate) const {
    return Depth(predicate) != SIZE_MAX;
  }
  /// True if `predicate` is unanswerable but would be answerable were
  /// every source available.
  bool DeadOnlyByAvailability(const std::string& predicate) const;

  /// Adds to `out` every predicate whose effective or structural depth
  /// differs between `before` and `after` (appearing, disappearing or
  /// moving: depth drives expansion order, so a move changes the emitted
  /// rewriting order even when answerability does not).
  static void Diff(const Reachability& before, const Reachability& after,
                   std::set<std::string>* out);

 private:
  struct Depths {
    size_t effective = SIZE_MAX;
    size_t structural = SIZE_MAX;
    bool operator!=(const Depths& o) const {
      return effective != o.effective || structural != o.structural;
    }
  };
  // Structurally reachable predicates only; the effective set is a subset
  // (fewer seeds), so one entry answers both questions.
  std::unordered_map<std::string, Depths> depths_;
};

}  // namespace pdms

#endif  // PDMS_CORE_NORMALIZE_H_
