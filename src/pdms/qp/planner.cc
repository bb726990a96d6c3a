#include "pdms/qp/planner.h"

#include <algorithm>
#include <limits>
#include <set>
#include <unordered_map>
#include <utility>

#include "pdms/util/check.h"
#include "pdms/util/strings.h"

namespace pdms {
namespace qp {
namespace {

// Per-atom compilation scratch: filters derivable from the atom alone.
// Variables carry provisional ids in body order; slots are assigned later,
// as the planned steps bind them.
struct AtomInfo {
  size_t atom_index = 0;
  std::string relation;
  size_t arity = 0;
  std::vector<std::pair<size_t, Value>> const_eq;
  std::vector<std::pair<size_t, size_t>> dup_eq;
  // Variable -> first column of that variable within this atom.
  std::vector<std::pair<size_t, size_t>> var_first_col;
  // Column -> variable for every variable position (repeats included).
  std::vector<std::pair<size_t, size_t>> var_cols;
  double est_rows = 0;
};

double EstimateScanRows(const AtomInfo& a, const Database& db,
                        const ColumnarCatalog& catalog) {
  const Relation* rel = db.Find(a.relation);
  if (rel == nullptr || rel->arity() != a.arity) return 0;
  const TableStats* stats = catalog.stats(a.relation);
  if (stats == nullptr) return static_cast<double>(rel->size());
  double est = static_cast<double>(stats->rows);
  for (const auto& [col, value] : a.const_eq) {
    (void)value;
    size_t d = col < stats->distinct.size() ? stats->distinct[col] : 0;
    est /= static_cast<double>(std::max<size_t>(d, 1));
  }
  for (const auto& [col, first] : a.dup_eq) {
    (void)first;
    size_t d = col < stats->distinct.size() ? stats->distinct[col] : 0;
    est /= static_cast<double>(std::max<size_t>(d, 1));
  }
  return est;
}

// 1 / (selectivity denominator) of an equality join on `cols`.
double JoinSelectivity(const std::string& relation,
                       const std::vector<size_t>& cols,
                       const ColumnarCatalog& catalog) {
  const TableStats* stats = catalog.stats(relation);
  double sel = 1.0;
  for (size_t col : cols) {
    size_t d = (stats != nullptr && col < stats->distinct.size())
                   ? stats->distinct[col]
                   : 1;
    sel /= static_cast<double>(std::max<size_t>(d, 1));
  }
  return sel;
}

std::string ScanSignature(const PlannedScan& scan,
                          const std::vector<size_t>& key_cols) {
  std::string sig = "k:";
  for (size_t c : key_cols) sig += StrFormat("%zu,", c);
  sig += "|c:";
  for (const auto& [col, value] : scan.const_eq) {
    sig += StrFormat("%zu=", col);
    sig += value.ToString();
    sig += ",";
  }
  sig += "|d:";
  for (const auto& [col, first] : scan.dup_eq) {
    sig += StrFormat("%zu=%zu,", col, first);
  }
  return sig;
}

}  // namespace

Result<DisjunctPlan> PlanDisjunct(const ConjunctiveQuery& cq,
                                  const Database& db,
                                  const ColumnarCatalog& catalog) {
  PDMS_RETURN_IF_ERROR(cq.CheckSafe());
  DisjunctPlan plan;

  std::unordered_map<std::string, size_t> var_of;
  std::vector<std::string> var_names;
  auto var_for = [&](const std::string& name) {
    auto [it, inserted] = var_of.emplace(name, var_of.size());
    if (inserted) var_names.push_back(name);
    return it->second;
  };

  std::vector<AtomInfo> atoms;
  atoms.reserve(cq.body().size());
  std::set<std::string> seen_relations;
  for (size_t ai = 0; ai < cq.body().size(); ++ai) {
    const Atom& atom = cq.body()[ai];
    AtomInfo info;
    info.atom_index = ai;
    info.relation = atom.predicate();
    info.arity = atom.arity();
    std::unordered_map<size_t, size_t> first_col;  // variable -> column
    for (size_t col = 0; col < atom.args().size(); ++col) {
      const Term& t = atom.args()[col];
      if (t.is_constant()) {
        info.const_eq.emplace_back(col, t.value());
        continue;
      }
      size_t var = var_for(t.var_name());
      info.var_cols.emplace_back(col, var);
      auto [it, inserted] = first_col.emplace(var, col);
      if (inserted) {
        info.var_first_col.emplace_back(var, col);
      } else {
        info.dup_eq.emplace_back(col, it->second);
      }
    }
    info.est_rows = EstimateScanRows(info, db, catalog);
    atoms.push_back(std::move(info));
    if (seen_relations.insert(atom.predicate()).second) {
      plan.relations.push_back(atom.predicate());
    }
  }

  // Comparisons are compiled over variable ids (safety guarantees every
  // variable occurs in the body) and re-expressed over slots when a step
  // picks them up.
  std::vector<PlanComparison> cmps;
  cmps.reserve(cq.comparisons().size());
  std::vector<std::vector<size_t>> cmp_vars(cq.comparisons().size());
  auto compile_term = [&](const Term& t, size_t ci) {
    PlanTerm out;
    if (t.is_constant()) {
      out.is_const = true;
      out.value = t.value();
    } else {
      out.slot = var_for(t.var_name());
      cmp_vars[ci].push_back(out.slot);
    }
    return out;
  };
  std::vector<bool> cmp_done(cq.comparisons().size(), false);
  for (size_t ci = 0; ci < cq.comparisons().size(); ++ci) {
    const Comparison& c = cq.comparisons()[ci];
    PlanComparison pc;
    pc.op = c.op;
    pc.lhs = compile_term(c.lhs, ci);
    pc.rhs = compile_term(c.rhs, ci);
    if (cmp_vars[ci].empty()) {
      plan.const_comparisons.push_back(pc);
      cmp_done[ci] = true;
    }
    cmps.push_back(std::move(pc));
  }

  // Greedy join ordering: start from the cheapest filtered scan, then
  // repeatedly join the atom minimizing the estimated output cardinality
  // (est_in * est_scan * equality selectivity over the shared variables),
  // preferring connected atoms over cross products. Ties keep the lowest
  // body position, so plans are deterministic. Each step's newly bound
  // variables take the next slots (canonical numbering).
  constexpr size_t kUnbound = std::numeric_limits<size_t>::max();
  std::vector<size_t> slot_of_var(var_names.size(), kUnbound);
  auto to_slot = [&](PlanTerm t) {
    if (!t.is_const) t.slot = slot_of_var[t.slot];
    return t;
  };
  std::vector<bool> used(atoms.size(), false);
  double est_in = 0;
  for (size_t step_no = 0; step_no < atoms.size(); ++step_no) {
    size_t best = atoms.size();
    double best_cost = std::numeric_limits<double>::infinity();
    bool best_connected = false;
    std::vector<size_t> best_key_cols, best_key_slots;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      const AtomInfo& a = atoms[i];
      std::vector<size_t> key_cols, key_slots;
      for (const auto& [col, var] : a.var_cols) {
        if (slot_of_var[var] != kUnbound) {
          key_cols.push_back(col);
          key_slots.push_back(slot_of_var[var]);
        }
      }
      bool connected = !key_cols.empty();
      double cost;
      if (step_no == 0) {
        cost = a.est_rows;
        connected = true;  // no intermediate yet; everything qualifies
      } else {
        cost = est_in * a.est_rows *
               JoinSelectivity(a.relation, key_cols, catalog);
      }
      bool better;
      if (connected != best_connected) {
        better = connected;  // connected beats cross product outright
      } else {
        better = cost < best_cost;
      }
      if (best == atoms.size() || better) {
        best = i;
        best_cost = cost;
        best_connected = connected;
        best_key_cols = std::move(key_cols);
        best_key_slots = std::move(key_slots);
      }
    }
    PDMS_DCHECK(best < atoms.size());
    used[best] = true;
    const AtomInfo& a = atoms[best];

    PlannedStep step;
    step.scan.atom_index = a.atom_index;
    step.scan.relation = a.relation;
    step.scan.arity = a.arity;
    step.scan.const_eq = a.const_eq;
    step.scan.dup_eq = a.dup_eq;
    step.scan.est_rows = a.est_rows;
    for (const auto& [var, col] : a.var_first_col) {
      if (slot_of_var[var] == kUnbound) {
        slot_of_var[var] = plan.num_slots++;
        step.scan.binds.emplace_back(col, slot_of_var[var]);
      }
    }
    step.key_cols = std::move(best_key_cols);
    step.key_slots = std::move(best_key_slots);
    step.scan.signature = ScanSignature(step.scan, step.key_cols);
    if (step_no == 0) {
      step.est_out = a.est_rows;
      step.build_on_atom = true;
    } else {
      step.est_out = best_cost;
      // Build the hash table over whichever side is estimated smaller;
      // the scan side's table is cacheable across queries.
      step.build_on_atom = a.est_rows <= est_in;
    }
    est_in = step.est_out;

    for (size_t ci = 0; ci < cmps.size(); ++ci) {
      if (cmp_done[ci]) continue;
      bool ready = true;
      for (size_t var : cmp_vars[ci]) {
        if (slot_of_var[var] == kUnbound) {
          ready = false;
          break;
        }
      }
      if (ready) {
        step.comparisons.push_back(
            {cmps[ci].op, to_slot(cmps[ci].lhs), to_slot(cmps[ci].rhs)});
        cmp_done[ci] = true;
      }
    }
    plan.steps.push_back(std::move(step));
  }

  plan.slot_names.resize(plan.num_slots);
  for (size_t var = 0; var < var_names.size(); ++var) {
    plan.slot_names[slot_of_var[var]] = var_names[var];
  }
  plan.head.reserve(cq.head().arity());
  for (const Term& t : cq.head().args()) {
    PlanTerm h;
    if (t.is_constant()) {
      h.is_const = true;
      h.value = t.value();
    } else {
      auto it = var_of.find(t.var_name());
      PDMS_CHECK_MSG(it != var_of.end(), "unsafe head variable");
      h.slot = slot_of_var[it->second];
    }
    plan.head.push_back(std::move(h));
  }

  // Dead-slot pruning, computed backwards: a step's output must carry a
  // slot only while something downstream still reads it. A step's own
  // comparisons read its freshly gathered intermediate, so their slots are
  // live in that step's mask; its join keys read the *previous*
  // intermediate, so they join the running set after the mask is taken.
  std::vector<char> live(plan.num_slots, 0);
  for (const PlanTerm& h : plan.head) {
    if (!h.is_const) live[h.slot] = 1;
  }
  for (size_t si = plan.steps.size(); si-- > 0;) {
    PlannedStep& step = plan.steps[si];
    for (const PlanComparison& c : step.comparisons) {
      if (!c.lhs.is_const) live[c.lhs.slot] = 1;
      if (!c.rhs.is_const) live[c.rhs.slot] = 1;
    }
    step.live_after = live;
    for (size_t slot : step.key_slots) live[slot] = 1;
  }
  return plan;
}

namespace {

bool SameTerm(const PlanTerm& a, const PlanTerm& b) {
  if (a.is_const != b.is_const) return false;
  return a.is_const ? a.value == b.value : a.slot == b.slot;
}

uint64_t TermHash(const PlanTerm& t) {
  return t.is_const ? HashCombine(1, t.value.Hash()) : HashCombine(2, t.slot);
}

// Whether two steps planned onto the same parent do the same work: the
// same filtered scan, keys, binds, build side and comparisons. Estimates
// and the scan signature are functions of these and the prefix.
bool SameStep(const PlannedStep& a, const PlannedStep& b) {
  if (a.scan.relation != b.scan.relation || a.scan.arity != b.scan.arity ||
      a.build_on_atom != b.build_on_atom || a.key_slots != b.key_slots ||
      a.key_cols != b.key_cols || a.scan.binds != b.scan.binds ||
      a.scan.dup_eq != b.scan.dup_eq || a.scan.const_eq != b.scan.const_eq ||
      a.comparisons.size() != b.comparisons.size()) {
    return false;
  }
  for (size_t i = 0; i < a.comparisons.size(); ++i) {
    const PlanComparison& x = a.comparisons[i];
    const PlanComparison& y = b.comparisons[i];
    if (x.op != y.op || !SameTerm(x.lhs, y.lhs) || !SameTerm(x.rhs, y.rhs)) {
      return false;
    }
  }
  return true;
}

// The trie key of `step` under `parent`, hashed from integer ids (the
// relation id, columns, canonical slots, constants' value hashes).
uint64_t StepKey(uint32_t parent, uint32_t relation, const PlannedStep& s) {
  uint64_t h = HashCombine(parent, relation);
  h = HashCombine(h, s.scan.arity * 2 + (s.build_on_atom ? 1 : 0));
  h = HashCombine(h, s.scan.const_eq.size());
  for (const auto& [col, value] : s.scan.const_eq) {
    h = HashCombine(HashCombine(h, col), value.Hash());
  }
  h = HashCombine(h, s.scan.dup_eq.size());
  for (const auto& [col, first] : s.scan.dup_eq) {
    h = HashCombine(HashCombine(h, col), first);
  }
  h = HashCombine(h, s.scan.binds.size());
  for (const auto& [col, slot] : s.scan.binds) {
    h = HashCombine(HashCombine(h, col), slot);
  }
  h = HashCombine(h, s.key_slots.size());
  for (size_t k = 0; k < s.key_slots.size(); ++k) {
    h = HashCombine(HashCombine(h, s.key_slots[k]), s.key_cols[k]);
  }
  for (const PlanComparison& c : s.comparisons) {
    h = HashCombine(h, static_cast<uint64_t>(c.op));
    h = HashCombine(HashCombine(h, TermHash(c.lhs)), TermHash(c.rhs));
  }
  return h;
}

}  // namespace

UnionPlanBuilder::UnionPlanBuilder() {
  plan_.nodes.emplace_back();  // the root: the unit intermediate
}

void UnionPlanBuilder::Add(DisjunctPlan dp) {
  const uint32_t index = static_cast<uint32_t>(plan_.disjuncts.size());
  DisjunctLeaf leaf;
  for (const PlanComparison& c : dp.const_comparisons) {
    if (!EvalCmp(c.op, c.lhs.value, c.rhs.value)) leaf.const_ok = false;
  }
  leaf.head = std::move(dp.head);
  leaf.relations.reserve(dp.relations.size());
  for (const std::string& r : dp.relations) {
    leaf.relations.push_back(RelationId(r));
  }
  uint32_t node = 0;
  size_t width = 0;  // slots bound so far along the path
  for (PlannedStep& step : dp.steps) {
    // Slots past the prefix stand for different variables in different
    // disjuncts, so the mask keeps only the bound ones.
    width += step.scan.binds.size();
    step.live_after.resize(width);
    leaf.est = step.est_out;
    const uint32_t relation = RelationId(step.scan.relation);
    const uint64_t key = StepKey(node, relation, step);
    uint32_t child = 0;
    for (auto [it, end] = children_.equal_range(key); it != end; ++it) {
      const PlanNode& n = plan_.nodes[it->second];
      if (n.parent == node && SameStep(n.step, step)) {
        child = it->second;
        break;
      }
    }
    if (child == 0) {
      child = static_cast<uint32_t>(plan_.nodes.size());
      PlanNode n;
      n.parent = node;
      n.relation = relation;
      if (!step.key_cols.empty()) {
        n.join_table = JoinTableId(relation, step.scan.signature, child);
      }
      n.step = std::move(step);
      plan_.nodes.push_back(std::move(n));
      plan_.nodes[node].children.push_back(child);
      children_.emplace(key, child);
    } else {
      std::vector<char>& live = plan_.nodes[child].step.live_after;
      for (size_t s = 0; s < width; ++s) live[s] |= step.live_after[s];
    }
    node = child;
  }
  leaf.node = node;
  plan_.depth = std::max(plan_.depth, dp.steps.size());
  plan_.nodes[node].leaves.push_back(index);
  plan_.disjuncts.push_back(std::move(leaf));
}

UnionPlan UnionPlanBuilder::Finish() && {
  // Sort the relation list (the fingerprint input) and renumber the
  // relation ids to match.
  std::vector<uint32_t> order(names_.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return names_[a] < names_[b]; });
  std::vector<uint32_t> remap(order.size());
  plan_.relations.clear();
  for (uint32_t rank = 0; rank < order.size(); ++rank) {
    remap[order[rank]] = rank;
    plan_.relations.push_back(names_[order[rank]]);
  }
  for (PlanNode& n : plan_.nodes) n.relation = remap[n.relation];
  for (DisjunctLeaf& leaf : plan_.disjuncts) {
    for (uint32_t& r : leaf.relations) r = remap[r];
  }
  return std::move(plan_);
}

uint32_t UnionPlanBuilder::RelationId(const std::string& name) {
  auto [it, inserted] =
      relation_ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) {
    names_.push_back(name);
    join_tables_.emplace_back();
  }
  return it->second;
}

int32_t UnionPlanBuilder::JoinTableId(uint32_t relation,
                                      const std::string& signature,
                                      uint32_t node) {
  auto [it, inserted] = join_tables_[relation].emplace(
      signature, static_cast<int32_t>(plan_.join_tables.size()));
  if (inserted) plan_.join_tables.push_back(node);
  return it->second;
}

Result<UnionPlan> PlanUnion(const UnionQuery& uq, const Database& db,
                            const ColumnarCatalog& catalog) {
  UnionPlanBuilder builder;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    PDMS_ASSIGN_OR_RETURN(DisjunctPlan dp, PlanDisjunct(cq, db, catalog));
    builder.Add(std::move(dp));
  }
  UnionPlan plan = std::move(builder).Finish();
  plan.stats_fingerprint = catalog.StatsFingerprint(plan.relations);
  return plan;
}

std::vector<char> MarkPaths(const UnionPlan& plan,
                            const std::vector<char>& disjuncts) {
  std::vector<char> marked(plan.nodes.size(), 0);
  marked[0] = 1;
  for (size_t d = 0; d < plan.disjuncts.size(); ++d) {
    if (!disjuncts[d]) continue;
    for (uint32_t n = plan.disjuncts[d].node; !marked[n];
         n = plan.nodes[n].parent) {
      marked[n] = 1;
    }
  }
  return marked;
}

std::vector<char> JoinTableNeeds(const UnionPlan& plan,
                                 const std::vector<char>& paths) {
  std::vector<char> needs(plan.join_tables.size(), 0);
  for (size_t n = 1; n < plan.nodes.size(); ++n) {
    const PlanNode& node = plan.nodes[n];
    if (!paths[n] || node.join_table < 0) continue;
    char& use = needs[node.join_table];
    use = std::max<char>(use, node.step.build_on_atom ? 2 : 1);
  }
  return needs;
}

std::string RenderDisjunctPlan(const DisjunctPlan& plan,
                               const ConjunctiveQuery& cq, size_t index,
                               const std::vector<size_t>* actual_rows) {
  std::string out = StrFormat("disjunct %zu: ", index);
  out += cq.ToString();
  out += "\n";
  auto actual = [&](size_t i) -> std::string {
    if (actual_rows == nullptr || i >= actual_rows->size()) return "";
    return StrFormat(" actual=%zu", (*actual_rows)[i]);
  };
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlannedStep& s = plan.steps[i];
    std::string filters;
    if (!s.scan.const_eq.empty() || !s.scan.dup_eq.empty()) {
      filters = StrFormat(" filters=%zu",
                          s.scan.const_eq.size() + s.scan.dup_eq.size());
    }
    if (i == 0) {
      out += StrFormat("  scan %s%s est=%.1f%s\n", s.scan.relation.c_str(),
                       filters.c_str(), s.est_out, actual(i).c_str());
    } else {
      std::string keys;
      for (size_t k = 0; k < s.key_slots.size(); ++k) {
        if (k > 0) keys += ",";
        keys += plan.slot_names[s.key_slots[k]];
      }
      if (keys.empty()) keys = "<cross>";
      out += StrFormat("  hash-join %s keys[%s] build=%s%s est=%.1f%s\n",
                       s.scan.relation.c_str(), keys.c_str(),
                       s.build_on_atom ? "scan" : "intermediate",
                       filters.c_str(), s.est_out, actual(i).c_str());
    }
  }
  out += StrFormat("  project -> %zu cols%s\n", plan.head.size(),
                   actual(plan.steps.size()).c_str());
  return out;
}

}  // namespace qp
}  // namespace pdms
