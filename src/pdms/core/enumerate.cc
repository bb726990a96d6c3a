#include "pdms/core/enumerate.h"

#include <unordered_set>

#include "pdms/lang/canonical.h"
#include "pdms/util/check.h"

namespace pdms {

namespace {

// The solution under construction: the stored atoms gathered so far, the
// merged unifier of all chosen expansions, and the comparison predicates
// collected along the way (required ones filter answers; granted ones are
// facts the chosen views guarantee). Atoms and comparisons point into the
// tree, which outlives the enumeration. There is one partial per
// enumeration: each level pushes what it adds and pops it on backtrack,
// the unifier's new bindings via `trail`.
struct Partial {
  std::vector<const Atom*> atoms;
  Substitution sigma;
  std::vector<std::string> trail;  // sigma's variables, in binding order
  std::vector<const Comparison*> required;
  std::vector<const Comparison*> granted;
};

class Enumerator {
 public:
  Enumerator(const RuleGoalTree& tree, const ReformulationOptions& options,
             const WallTimer& timer, ReformulationStats* stats,
             const RewritingSink& sink)
      : tree_(tree),
        options_(options),
        timer_(timer),
        stats_(stats),
        sink_(sink) {}

  void Run() {
    if (tree_.root == nullptr || !tree_.root->viable) return;
    StreamExpansion(*tree_.root, nullptr);
  }

 private:
  // What follows once a scope is covered: resume covering the enclosing
  // `scope` from `mask`, then its own continuation in turn; past the root
  // (null) the partial is complete and is emitted. Each frame lives on the
  // stack of the StreamCover call that chose the expansion.
  struct Continuation {
    const ExpansionNode* scope;
    uint64_t mask;
    const Continuation* next;
  };

  bool Budget() {
    if (stopped_) return false;
    if (options_.time_budget_ms > 0 &&
        timer_.ElapsedMillis() > options_.time_budget_ms) {
      stats_->enumeration_truncated = true;
      stopped_ = true;
      return false;
    }
    return true;
  }

  // Extends the partial with the contribution of expansion `e` (its
  // unifier, constraints, and one solution of each covered child), then
  // runs `k` on each result. Returns false to propagate a global stop.
  bool StreamExpansion(const ExpansionNode& e, const Continuation* k) {
    if (!Budget()) return false;
    const size_t trail = partial_.trail.size();
    const size_t required = partial_.required.size();
    const size_t granted = partial_.granted.size();
    bool keep_going = true;
    if (partial_.sigma.Merge(e.unifier, &partial_.trail)) {
      for (const Comparison& c : e.required_constraints.comparisons()) {
        partial_.required.push_back(&c);
      }
      for (const Comparison& c : e.granted_constraints.comparisons()) {
        partial_.granted.push_back(&c);
      }
      keep_going = StreamCover(e, 0, k);
    }  // else incompatible: skip
    while (partial_.trail.size() > trail) {
      partial_.sigma.Unbind(partial_.trail.back());
      partial_.trail.pop_back();
    }
    partial_.required.resize(required);
    partial_.granted.resize(granted);
    return keep_going;
  }

  bool StreamCover(const ExpansionNode& e, uint64_t mask,
                   const Continuation* k) {
    if (!Budget()) return false;
    PDMS_CHECK(e.children.size() <= 64);
    uint64_t universe =
        e.children.empty()
            ? 0
            : (e.children.size() == 64
                   ? ~uint64_t{0}
                   : (uint64_t{1} << e.children.size()) - 1);
    if ((mask & universe) == universe) {
      return k == nullptr ? EmitPartial()
                          : StreamCover(*k->scope, k->mask, k->next);
    }
    size_t i = 0;
    while ((mask >> i) & 1) ++i;
    const GoalNode& child = *e.children[i];
    if (child.is_stored) {
      partial_.atoms.push_back(&child.label);
      bool keep_going = StreamCover(e, mask | (uint64_t{1} << i), k);
      partial_.atoms.pop_back();
      return keep_going;
    }
    if (!child.viable) return true;  // dead end: this scope yields nothing
    for (const auto& exp : child.expansions) {
      if (!exp->viable) continue;
      uint64_t newmask = mask;
      if (exp->kind == ExpansionNode::Kind::kDefinitional) {
        newmask |= uint64_t{1} << i;
      } else {
        for (size_t u : exp->unc) newmask |= uint64_t{1} << u;
      }
      const Continuation next{&e, newmask, k};
      if (!StreamExpansion(*exp, &next)) return false;
    }
    return true;
  }

  // Turns a complete partial into a conjunctive rewriting; returns false to
  // stop the whole enumeration (budget hit or sink refused).
  bool EmitPartial() {
    if (!Budget()) return false;
    const Substitution& sigma = partial_.sigma;
    Atom head = sigma.Apply(tree_.query.head());
    std::vector<Atom> atoms;
    atoms.reserve(partial_.atoms.size());
    std::unordered_set<std::string> available;
    for (const Atom* a : partial_.atoms) {
      Atom mapped = sigma.Apply(*a);
      std::vector<std::string> vars;
      CollectVariables(mapped, &vars);
      available.insert(vars.begin(), vars.end());
      atoms.push_back(std::move(mapped));
    }
    // Safety: every head variable must survive into the stored atoms.
    for (const Term& t : head.args()) {
      if (t.is_variable() && available.count(t.var_name()) == 0) {
        ++stats_->combos_failed;
        return true;
      }
    }
    // Granted constraints (facts the chosen views guarantee).
    ConstraintSet granted;
    for (const Comparison* c : partial_.granted) granted.Add(sigma.Apply(*c));
    // Required constraints: keep the expressible ones; the rest must be
    // implied by the granted facts, else the combination is unsound to
    // emit and is dropped.
    std::vector<Comparison> kept;
    for (const Comparison* c : partial_.required) {
      Comparison mapped = sigma.Apply(*c);
      bool expressible = true;
      for (const Term* t : {&mapped.lhs, &mapped.rhs}) {
        if (t->is_variable() && available.count(t->var_name()) == 0) {
          expressible = false;
        }
      }
      if (expressible) {
        kept.push_back(std::move(mapped));
        continue;
      }
      if (!granted.Implies(mapped)) {
        ++stats_->combos_failed;
        return true;
      }
    }
    // The combination must be satisfiable together with the view facts.
    {
      ConstraintSet all = granted;
      for (const Comparison& c : kept) all.Add(c);
      if (!all.IsSatisfiable()) {
        ++stats_->combos_failed;
        return true;
      }
    }
    ConjunctiveQuery rewriting(std::move(head), std::move(atoms),
                               std::move(kept));
    if (!seen_.insert(CanonicalQueryKey(rewriting)).second) {
      // Syntactically-isomorphic to an already-emitted rewriting: dropping
      // it here means neither fresh nor cached plans ever evaluate the
      // same disjunct twice.
      ++stats_->duplicate_disjuncts;
      return true;
    }

    ++stats_->rewritings;
    stats_->time_to_rewriting_ms.push_back(timer_.ElapsedMillis());
    if (!sink_(rewriting)) {
      stopped_ = true;
      return false;
    }
    if (options_.max_rewritings != 0 &&
        stats_->rewritings >= options_.max_rewritings) {
      stats_->enumeration_truncated = true;
      stopped_ = true;
      return false;
    }
    return true;
  }

  const RuleGoalTree& tree_;
  const ReformulationOptions& options_;
  const WallTimer& timer_;
  ReformulationStats* stats_;
  const RewritingSink& sink_;
  bool stopped_ = false;
  Partial partial_;
  std::unordered_set<std::string> seen_;  // CanonicalQueryKey of each emitted
};

}  // namespace

Status EnumerateRewritings(const RuleGoalTree& tree,
                           const ReformulationOptions& options,
                           const WallTimer& timer,
                           ReformulationStats* stats,
                           const RewritingSink& sink) {
  if (tree.query.body().size() > 64) {
    return Status::Unsupported("more than 64 subgoals in one scope");
  }
  Enumerator enumerator(tree, options, timer, stats, sink);
  enumerator.Run();
  return Status::Ok();
}

}  // namespace pdms
