#include "pdms/lang/canonical.h"

#include <algorithm>
#include <unordered_map>

#include "pdms/lang/substitution.h"
#include "pdms/util/check.h"

namespace pdms {

namespace {

// Simultaneous (non-chaining) variable renaming. A Substitution must NOT
// be used here: it resolves chains, so a renaming into an overlapping
// namespace (e.g. v3 -> v1 while v1 -> v2) would collapse distinct
// variables (v3 and v1 would both end up as v2).
Term RenameTerm(const Term& t,
                const std::unordered_map<std::string, std::string>& map) {
  if (!t.is_variable()) return t;
  auto it = map.find(t.var_name());
  return it == map.end() ? t : Term::Var(it->second);
}

Atom RenameAtom(const Atom& a,
                const std::unordered_map<std::string, std::string>& map) {
  std::vector<Term> args;
  args.reserve(a.arity());
  for (const Term& t : a.args()) args.push_back(RenameTerm(t, map));
  return Atom(a.predicate(), std::move(args));
}

}  // namespace

ConjunctiveQuery CanonicalRename(const ConjunctiveQuery& cq) {
  std::unordered_map<std::string, std::string> rename;
  size_t next = 0;
  for (const std::string& var : cq.AllVariables()) {
    rename.emplace(var, "v" + std::to_string(next++));
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

namespace {

ConjunctiveQuery SortBody(const ConjunctiveQuery& cq) {
  std::vector<Atom> body = cq.body();
  std::sort(body.begin(), body.end(), [](const Atom& a, const Atom& b) {
    return a.ToString() < b.ToString();
  });
  std::vector<Comparison> cmps = cq.comparisons();
  std::sort(cmps.begin(), cmps.end(),
            [](const Comparison& a, const Comparison& b) {
              return a.ToString() < b.ToString();
            });
  return ConjunctiveQuery(cq.head(), std::move(body), std::move(cmps));
}

}  // namespace

std::string CanonicalQueryKey(const ConjunctiveQuery& cq) {
  ConjunctiveQuery current = cq;
  std::string key;
  // Renaming changes sort order and vice versa; iterate to a fixpoint with
  // a small bound (convergence is fast in practice; the bound only affects
  // dedup quality, not correctness).
  for (int round = 0; round < 4; ++round) {
    current = SortBody(CanonicalRename(current));
    std::string next = current.ToString();
    if (next == key) break;
    key = std::move(next);
  }
  return key;
}

}  // namespace pdms
