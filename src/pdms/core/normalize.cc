#include "pdms/core/normalize.h"

#include <string_view>

#include "pdms/util/strings.h"

namespace pdms {

namespace {

// True if `cq` is a bare atom: single body atom, no comparisons, and the
// head argument list is exactly the atom's argument list (no projection,
// permutation is fine because the head args are just re-listed terms —
// what matters is that the atom itself can serve as the view head).
bool IsBareAtom(const ConjunctiveQuery& cq) {
  if (cq.body().size() != 1 || !cq.comparisons().empty()) return false;
  return cq.head().args() == cq.body()[0].args();
}

// Adds the inclusion `lhs ⊆ rhs` in normalized form: a view whose head can
// stand for covered rhs subgoals, plus (unless lhs is a bare atom) the
// paired definitional rule producing the fresh view predicate from lhs.
void AddInclusion(const ConjunctiveQuery& lhs, const ConjunctiveQuery& rhs,
                  size_t description_id, size_t* fresh_counter,
                  ExpansionRules* out) {
  if (IsBareAtom(lhs)) {
    ExpansionRules::View v;
    v.view = ConjunctiveQuery(lhs.body()[0], rhs.body(), rhs.comparisons());
    v.description_id = description_id;
    out->views.push_back(std::move(v));
    return;
  }
  Atom v_head(StrFormat("_V%zu", (*fresh_counter)++), lhs.head().args());
  ExpansionRules::View v;
  v.view = ConjunctiveQuery(v_head, rhs.body(), rhs.comparisons());
  v.description_id = description_id;
  out->views.push_back(std::move(v));

  ExpansionRules::DefRule r;
  r.rule = Rule(v_head, lhs.body(), lhs.comparisons());
  r.description_id = description_id;
  r.guard_exempt = true;
  out->rules.push_back(std::move(r));
}

}  // namespace

ExpansionRules Normalize(const PdmsNetwork& network) {
  ExpansionRules out;
  size_t fresh_counter = 0;
  size_t description_id = 0;

  for (const std::string& name : network.StoredRelationNames()) {
    out.stored.insert(name);
  }

  // Storage descriptions: the stored atom is itself the view head, so an
  // MCD immediately produces a leaf.
  for (const StorageDescription& d : network.storage_descriptions()) {
    ExpansionRules::View v;
    v.view = d.view;
    v.description_id = description_id++;
    out.views.push_back(std::move(v));
  }

  for (const PeerMapping& m : network.peer_mappings()) {
    size_t id = description_id++;
    switch (m.kind) {
      case PeerMappingKind::kInclusion:
        AddInclusion(m.lhs, m.rhs, id, &fresh_counter, &out);
        break;
      case PeerMappingKind::kEquality:
        // Both directions share one description id, so a path uses the
        // equality at most once — this is what makes cyclic replication
        // mappings terminate (Section 3, "Cyclic PDMSs").
        AddInclusion(m.lhs, m.rhs, id, &fresh_counter, &out);
        AddInclusion(m.rhs, m.lhs, id, &fresh_counter, &out);
        break;
      case PeerMappingKind::kDefinitional: {
        ExpansionRules::DefRule r;
        r.rule = m.rule;
        r.description_id = id;
        out.rules.push_back(std::move(r));
        break;
      }
    }
  }
  out.num_descriptions = description_id;

  for (size_t i = 0; i < out.views.size(); ++i) {
    std::set<std::string> preds;
    for (const Atom& a : out.views[i].view.body()) {
      preds.insert(a.predicate());
    }
    for (const std::string& p : preds) {
      out.views_by_body_pred[p].push_back(i);
    }
  }
  for (size_t i = 0; i < out.rules.size(); ++i) {
    out.rules_by_head[out.rules[i].rule.head().predicate()].push_back(i);
  }
  return out;
}

Reachability Reachability::Compute(const ExpansionRules& rules,
                                   const std::set<std::string>& unavailable,
                                   const std::set<std::string>& allowed) {
  // Intern every predicate once, stored relations first, then run the
  // fixpoint as a breadth-first walk over ids: a predicate is reached at
  // depth d from one reached at d-1, so the first visit is the least depth
  // (the walk pops depths in nondecreasing order, and a rule fires when
  // its deepest body predicate pops).
  std::unordered_map<std::string_view, uint32_t> ids;
  std::vector<std::string_view> names;
  auto id = [&](const std::string& predicate) {
    auto [it, inserted] = ids.emplace(predicate, names.size());
    if (inserted) names.push_back(predicate);
    return it->second;
  };
  for (const std::string& s : rules.stored) id(s);
  for (const ExpansionRules::DefRule& r : rules.rules) {
    id(r.rule.head().predicate());
    for (const Atom& b : r.rule.body()) id(b.predicate());
  }
  for (const ExpansionRules::View& v : rules.views) {
    id(v.view.head().predicate());
    for (const Atom& b : v.view.body()) id(b.predicate());
  }
  // Per rule: its head and how many distinct body predicates it awaits.
  // Per predicate: the rules awaiting it, and the body predicates of the
  // views it heads.
  std::vector<uint32_t> rule_head(rules.rules.size());
  std::vector<uint32_t> rule_waits(rules.rules.size(), 0);
  std::vector<std::vector<uint32_t>> awaiting(names.size());
  std::vector<std::vector<uint32_t>> view_bodies(names.size());
  for (size_t r = 0; r < rules.rules.size(); ++r) {
    const Rule& rule = rules.rules[r].rule;
    rule_head[r] = id(rule.head().predicate());
    for (const Atom& b : rule.body()) {
      std::vector<uint32_t>& rules_of = awaiting[id(b.predicate())];
      if (rules_of.empty() || rules_of.back() != r) {
        rules_of.push_back(static_cast<uint32_t>(r));
        ++rule_waits[r];
      }
    }
  }
  for (const ExpansionRules::View& v : rules.views) {
    std::vector<uint32_t>& body = view_bodies[id(v.view.head().predicate())];
    for (const Atom& b : v.view.body()) body.push_back(id(b.predicate()));
  }

  auto walk = [&](bool ignore_unavailable) {
    std::vector<size_t> depth(names.size(), SIZE_MAX);
    std::vector<uint32_t> waits = rule_waits;
    std::vector<uint32_t> queue;
    auto reach = [&](uint32_t p, size_t d) {
      if (depth[p] != SIZE_MAX) return;
      depth[p] = d;
      queue.push_back(p);
    };
    for (const std::string& s : rules.stored) {
      bool admitted = allowed.empty() || allowed.count(s) > 0;
      if (admitted && (ignore_unavailable || unavailable.count(s) == 0)) {
        reach(ids.at(s), 0);
      }
    }
    for (size_t r = 0; r < waits.size(); ++r) {
      if (waits[r] == 0) reach(rule_head[r], 1);  // an empty body
    }
    for (size_t next = 0; next < queue.size(); ++next) {
      uint32_t p = queue[next];
      size_t d = depth[p];
      for (uint32_t b : view_bodies[p]) reach(b, d + 1);
      for (uint32_t r : awaiting[p]) {
        if (--waits[r] == 0) reach(rule_head[r], d + 1);
      }
    }
    return depth;
  };
  std::vector<size_t> structural = walk(/*ignore_unavailable=*/true);
  std::vector<size_t> effective =
      unavailable.empty() ? structural : walk(/*ignore_unavailable=*/false);

  Reachability out;
  for (size_t p = 0; p < names.size(); ++p) {
    if (structural[p] == SIZE_MAX) continue;
    out.depths_.emplace(std::string(names[p]),
                        Depths{effective[p], structural[p]});
  }
  return out;
}

size_t Reachability::Depth(const std::string& predicate) const {
  auto it = depths_.find(predicate);
  return it == depths_.end() ? SIZE_MAX : it->second.effective;
}

bool Reachability::DeadOnlyByAvailability(const std::string& predicate) const {
  auto it = depths_.find(predicate);
  return it != depths_.end() && it->second.effective == SIZE_MAX;
}

void Reachability::Diff(const Reachability& before, const Reachability& after,
                        std::set<std::string>* out) {
  for (const auto& [predicate, depths] : before.depths_) {
    auto it = after.depths_.find(predicate);
    if (it == after.depths_.end() || it->second != depths) {
      out->insert(predicate);
    }
  }
  for (const auto& [predicate, depths] : after.depths_) {
    if (before.depths_.count(predicate) == 0) out->insert(predicate);
  }
}

std::string ExpansionRules::ToString() const {
  std::string out;
  for (const View& v : views) {
    out += StrFormat("view[d%zu]  %s  <=  ", v.description_id,
                     v.view.head().ToString().c_str());
    std::vector<std::string> parts;
    for (const Atom& a : v.view.body()) parts.push_back(a.ToString());
    for (const Comparison& c : v.view.comparisons()) {
      parts.push_back(c.ToString());
    }
    out += StrJoin(parts, ", ");
    out += "\n";
  }
  for (const DefRule& r : rules) {
    out += StrFormat("rule[d%zu%s]  %s\n", r.description_id,
                     r.guard_exempt ? ", exempt" : "",
                     r.rule.ToString().c_str());
  }
  return out;
}

}  // namespace pdms
