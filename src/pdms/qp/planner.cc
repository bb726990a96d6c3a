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
struct AtomInfo {
  size_t atom_index = 0;
  std::string relation;
  size_t arity = 0;
  std::vector<std::pair<size_t, Value>> const_eq;
  std::vector<std::pair<size_t, size_t>> dup_eq;
  // Slot -> first column of that slot within this atom.
  std::vector<std::pair<size_t, size_t>> slot_first_col;
  // Column -> slot for every variable position (repeats included).
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
                                  const ColumnarCatalog& catalog,
                                  const NetCostFn& net_cost) {
  PDMS_RETURN_IF_ERROR(cq.CheckSafe());
  DisjunctPlan plan;

  // Slot assignment mirrors the legacy SlotProgram: first appearance across
  // the body atoms, then the comparisons, so slot names line up between the
  // engines when debugging side by side.
  std::unordered_map<std::string, size_t> slot_of;
  auto slot_for = [&](const std::string& var) {
    auto [it, inserted] = slot_of.emplace(var, slot_of.size());
    if (inserted) plan.slot_names.push_back(var);
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
    std::unordered_map<size_t, size_t> first_col;  // slot -> column
    for (size_t col = 0; col < atom.args().size(); ++col) {
      const Term& t = atom.args()[col];
      if (t.is_constant()) {
        info.const_eq.emplace_back(col, t.value());
        continue;
      }
      size_t slot = slot_for(t.var_name());
      info.var_cols.emplace_back(col, slot);
      auto [it, inserted] = first_col.emplace(slot, col);
      if (inserted) {
        info.slot_first_col.emplace_back(slot, col);
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

  plan.comparisons.reserve(cq.comparisons().size());
  std::vector<std::vector<size_t>> cmp_slots(cq.comparisons().size());
  auto compile_term = [&](const Term& t, size_t ci) {
    PlanTerm out;
    if (t.is_constant()) {
      out.is_const = true;
      out.value = t.value();
    } else {
      out.slot = slot_for(t.var_name());
      cmp_slots[ci].push_back(out.slot);
    }
    return out;
  };
  for (size_t ci = 0; ci < cq.comparisons().size(); ++ci) {
    const Comparison& c = cq.comparisons()[ci];
    PlanComparison pc;
    pc.op = c.op;
    pc.lhs = compile_term(c.lhs, ci);
    pc.rhs = compile_term(c.rhs, ci);
    plan.comparisons.push_back(std::move(pc));
    if (cmp_slots[ci].empty()) plan.const_comparisons.push_back(ci);
  }
  plan.num_slots = plan.slot_names.size();

  // Greedy join ordering: start from the cheapest filtered scan, then
  // repeatedly join the atom minimizing the estimated output cardinality
  // (est_in * est_scan * equality selectivity over the shared variables),
  // preferring connected atoms over cross products. Ties keep the lowest
  // body position, so plans are deterministic.
  std::vector<bool> used(atoms.size(), false);
  std::vector<bool> bound(plan.num_slots, false);
  std::vector<bool> cmp_done(plan.comparisons.size(), false);
  for (size_t ci : plan.const_comparisons) cmp_done[ci] = true;
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
      for (const auto& [col, slot] : a.var_cols) {
        if (bound[slot]) {
          key_cols.push_back(col);
          key_slots.push_back(slot);
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
    for (const auto& [slot, col] : a.slot_first_col) {
      if (!bound[slot]) {
        step.scan.binds.emplace_back(col, slot);
        bound[slot] = true;
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

    for (size_t ci = 0; ci < plan.comparisons.size(); ++ci) {
      if (cmp_done[ci]) continue;
      bool ready = true;
      for (size_t slot : cmp_slots[ci]) {
        if (!bound[slot]) {
          ready = false;
          break;
        }
      }
      if (ready) {
        step.comparisons.push_back(ci);
        cmp_done[ci] = true;
      }
    }
    plan.steps.push_back(std::move(step));
  }

  plan.head.reserve(cq.head().arity());
  for (const Term& t : cq.head().args()) {
    PlanTerm h;
    if (t.is_constant()) {
      h.is_const = true;
      h.value = t.value();
    } else {
      auto it = slot_of.find(t.var_name());
      PDMS_CHECK_MSG(it != slot_of.end(), "unsafe head variable");
      h.slot = it->second;
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
    for (size_t ci : step.comparisons) {
      const PlanComparison& c = plan.comparisons[ci];
      if (!c.lhs.is_const) live[c.lhs.slot] = 1;
      if (!c.rhs.is_const) live[c.rhs.slot] = 1;
    }
    step.live_after = live;
    for (size_t slot : step.key_slots) live[slot] = 1;
  }
  if (net_cost != nullptr) {
    for (PlannedStep& step : plan.steps) {
      step.scan.est_net_ms = net_cost(step.scan.relation);
    }
  }
  return plan;
}

Result<UnionPlan> PlanUnion(const UnionQuery& uq, const Database& db,
                            const ColumnarCatalog& catalog,
                            const NetCostFn& net_cost) {
  UnionPlan plan;
  std::set<std::string> relations;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    PDMS_ASSIGN_OR_RETURN(DisjunctPlan dp,
                          PlanDisjunct(cq, db, catalog, net_cost));
    for (const std::string& r : dp.relations) relations.insert(r);
    plan.disjuncts.push_back(std::move(dp));
  }
  plan.relations.assign(relations.begin(), relations.end());
  plan.stats_fingerprint = catalog.StatsFingerprint(plan.relations);
  return plan;
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
    // Printed only when annotated, so plans without a cost model render
    // exactly as before.
    if (s.scan.est_net_ms > 0) {
      filters += StrFormat(" net=%.1fms", s.scan.est_net_ms);
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
