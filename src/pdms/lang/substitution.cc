#include "pdms/lang/substitution.h"

#include <algorithm>
#include <map>
#include <utility>

#include "pdms/util/check.h"

namespace pdms {

Term Substitution::Resolve(const Term& term) const {
  Term current = term;
  // Chains are acyclic by construction (Bind resolves targets first), but a
  // depth guard keeps a latent bug from looping forever.
  for (int depth = 0; depth < 1 << 20; ++depth) {
    if (!current.is_variable()) return current;
    auto it = map_.find(current.var_name());
    if (it == map_.end()) return current;
    current = it->second;
  }
  PDMS_CHECK_MSG(false, "substitution chain too deep (cycle?)");
  return current;
}

bool Substitution::UnifyTerms(const Term& a, const Term& b) {
  return Unify(a, b, nullptr);
}

bool Substitution::Unify(const Term& a, const Term& b,
                         std::vector<std::string>* trail) {
  Term x = Resolve(a);
  Term y = Resolve(b);
  if (x == y) return true;
  if (!x.is_variable() && !y.is_variable()) return false;  // two constants
  if (!x.is_variable()) std::swap(x, y);
  if (trail != nullptr) trail->push_back(x.var_name());
  map_.emplace(x.var_name(), std::move(y));
  return true;
}

bool Substitution::UnifyAtoms(const Atom& a, const Atom& b) {
  if (a.predicate() != b.predicate() || a.arity() != b.arity()) return false;
  for (size_t i = 0; i < a.arity(); ++i) {
    if (!UnifyTerms(a.args()[i], b.args()[i])) return false;
  }
  return true;
}

bool Substitution::Merge(const Substitution& other,
                         std::vector<std::string>* trail) {
  for (const auto& [var, target] : other.map_) {
    if (!Unify(Term::Var(var), target, trail)) return false;
  }
  return true;
}

Atom Substitution::Apply(const Atom& atom) const {
  std::vector<Term> args;
  args.reserve(atom.arity());
  for (const Term& t : atom.args()) args.push_back(Resolve(t));
  return Atom(atom.predicate(), std::move(args));
}

Comparison Substitution::Apply(const Comparison& cmp) const {
  return Comparison{Resolve(cmp.lhs), cmp.op, Resolve(cmp.rhs)};
}

ConjunctiveQuery Substitution::Apply(const ConjunctiveQuery& cq) const {
  std::vector<Atom> body;
  body.reserve(cq.body().size());
  for (const Atom& a : cq.body()) body.push_back(Apply(a));
  std::vector<Comparison> cmps;
  cmps.reserve(cq.comparisons().size());
  for (const Comparison& c : cq.comparisons()) cmps.push_back(Apply(c));
  return ConjunctiveQuery(Apply(cq.head()), std::move(body), std::move(cmps));
}

std::string Substitution::ToString() const {
  std::map<std::string, Term> sorted(map_.begin(), map_.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [var, target] : sorted) {
    if (!first) out += ", ";
    first = false;
    out += var;
    out += " -> ";
    out += target.ToString();
  }
  out += "}";
  return out;
}

namespace {

// Simultaneous (non-chaining) renaming helpers. Substitution::Apply
// resolves chains, which is wrong for renamings whose target namespace may
// overlap the source (a -> b while b -> c would collapse a and b into c);
// these helpers substitute each variable exactly once.
Term RenameTerm(const Term& t,
                const std::unordered_map<std::string, Term>& map) {
  if (!t.is_variable()) return t;
  auto it = map.find(t.var_name());
  return it == map.end() ? t : it->second;
}

Atom RenameAtom(const Atom& a,
                const std::unordered_map<std::string, Term>& map) {
  std::vector<Term> args;
  args.reserve(a.arity());
  for (const Term& t : a.args()) args.push_back(RenameTerm(t, map));
  return Atom(a.predicate(), std::move(args));
}

}  // namespace

ConjunctiveQuery RenameApart(const ConjunctiveQuery& cq,
                             VariableFactory* factory,
                             Substitution* mapping) {
  std::unordered_map<std::string, Term> rename;
  for (const std::string& var : cq.AllVariables()) {
    rename.emplace(var, factory->Fresh());
  }
  if (mapping != nullptr) {
    Substitution out;
    for (const auto& [var, target] : rename) {
      bool ok = out.UnifyTerms(Term::Var(var), target);
      PDMS_CHECK(ok);
    }
    *mapping = out;
  }
  std::vector<Atom> body;
  body.reserve(cq.body().size());
  for (const Atom& a : cq.body()) body.push_back(RenameAtom(a, rename));
  std::vector<Comparison> cmps;
  cmps.reserve(cq.comparisons().size());
  for (const Comparison& c : cq.comparisons()) {
    cmps.push_back(Comparison{RenameTerm(c.lhs, rename), c.op,
                              RenameTerm(c.rhs, rename)});
  }
  return ConjunctiveQuery(RenameAtom(cq.head(), rename), std::move(body),
                          std::move(cmps));
}

Atom RenameApart(const Atom& atom, VariableFactory* factory) {
  std::unordered_map<std::string, Term> rename;
  std::vector<std::string> vars;
  CollectVariables(atom, &vars);
  for (const std::string& var : vars) {
    rename.emplace(var, factory->Fresh());
  }
  return RenameAtom(atom, rename);
}

Substitution Substitution::RenameVariables(
    const std::unordered_map<std::string, std::string>& rename) const {
  auto renamed_name = [&rename](const std::string& name) {
    auto it = rename.find(name);
    return it == rename.end() ? name : it->second;
  };
  Substitution out;
  for (const auto& [var, target] : map_) {
    Term mapped = target.is_variable()
                      ? Term::Var(renamed_name(target.var_name()))
                      : target;
    out.map_.emplace(renamed_name(var), std::move(mapped));
  }
  return out;
}

}  // namespace pdms
