#ifndef PDMS_LANG_SUBSTITUTION_H_
#define PDMS_LANG_SUBSTITUTION_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "pdms/lang/conjunctive_query.h"

namespace pdms {

/// A substitution maps variable names to terms. Because the language has no
/// function symbols, a binding target is either a variable or a constant,
/// and unification needs no occurs check.
///
/// Bindings may chain (x -> y, y -> 3); Resolve() follows chains to the
/// final representative. Used for most-general unifiers during rule-goal
/// tree expansion and for combining partial reformulations.
class Substitution {
 public:
  Substitution() = default;

  bool empty() const { return map_.empty(); }
  size_t size() const { return map_.size(); }

  /// Follows variable chains; returns the representative term.
  Term Resolve(const Term& term) const;

  /// Unifies two terms under the current bindings; extends the substitution
  /// on success. Returns false (leaving a partially-extended substitution —
  /// callers discard it) when the terms are distinct constants.
  bool UnifyTerms(const Term& a, const Term& b);

  /// Unifies two atoms (same predicate and arity required).
  bool UnifyAtoms(const Atom& a, const Atom& b);

  /// Merges another substitution into this one by unifying each of its
  /// bindings; returns false on conflict. With `trail`, each variable it
  /// binds (also those bound before a conflict) is appended there, so a
  /// backtracking caller can undo the merge with Unbind instead of
  /// copying the substitution first.
  bool Merge(const Substitution& other,
             std::vector<std::string>* trail = nullptr);
  /// Drops the binding of `var` — the undo of one trail entry.
  void Unbind(const std::string& var) { map_.erase(var); }

  /// Applies the substitution (with chain resolution).
  Term Apply(const Term& term) const { return Resolve(term); }
  Atom Apply(const Atom& atom) const;
  Comparison Apply(const Comparison& cmp) const;
  ConjunctiveQuery Apply(const ConjunctiveQuery& cq) const;

  /// Raw bindings (variable name -> unresolved target term).
  const std::unordered_map<std::string, Term>& bindings() const {
    return map_;
  }

  /// The substitution with every variable name — binding sources and
  /// variable targets alike — replaced per `rename`; names absent from the
  /// map are kept. `rename` must be injective over the mentioned names so
  /// binding chains are preserved exactly (the cross-query goal memo
  /// rehydrates stored unifiers onto fresh variables this way).
  Substitution RenameVariables(
      const std::unordered_map<std::string, std::string>& rename) const;

  /// `{x -> 3, y -> z}`, sorted by variable name.
  std::string ToString() const;

 private:
  // UnifyTerms, recording a new binding's variable in `*trail` if non-null.
  bool Unify(const Term& a, const Term& b, std::vector<std::string>* trail);

  std::unordered_map<std::string, Term> map_;
};

/// Renames every variable of `cq` to a fresh one from `factory`; if
/// `mapping` is non-null, the old-name -> new-term mapping is stored there.
ConjunctiveQuery RenameApart(const ConjunctiveQuery& cq,
                             VariableFactory* factory,
                             Substitution* mapping = nullptr);

/// Renames every variable of `atom` to a fresh one.
Atom RenameApart(const Atom& atom, VariableFactory* factory);

}  // namespace pdms

#endif  // PDMS_LANG_SUBSTITUTION_H_
