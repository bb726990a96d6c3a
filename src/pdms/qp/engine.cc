#include "pdms/qp/engine.h"

#include <algorithm>
#include <set>
#include <utility>

#include "pdms/util/check.h"
#include "pdms/util/strings.h"

namespace pdms {
namespace qp {

Result<std::shared_ptr<const UnionPlan>> Engine::PlanOrReuse(
    const UnionQuery& uq, const Database& db, obs::TraceContext* trace,
    obs::MetricsRegistry* metrics, PhysicalPlanSlot* slot) {
  obs::ScopedSpan plan_span(trace, "qp.plan");
  plan_span.Set("disjuncts", static_cast<uint64_t>(uq.size()));

  // Refresh the columnar twins (and with them the statistics) of every
  // relation the union scans, so both the fingerprint check and a fresh
  // plan see current cardinalities. A cached plan lists them already.
  auto ensure = [&](const std::string& relation) {
    const Relation* rel = db.Find(relation);
    if (rel != nullptr) catalog_.Ensure(*rel, metrics);
  };
  std::shared_ptr<const PhysicalPlanHandle> cached;
  if (slot != nullptr) cached = slot->Get();
  const auto* plan = dynamic_cast<const UnionPlan*>(cached.get());
  if (plan != nullptr && plan->disjuncts.size() == uq.size()) {
    for (const std::string& relation : plan->relations) ensure(relation);
    if (plan->stats_fingerprint ==
        catalog_.StatsFingerprint(plan->relations)) {
      plan_span.Set("cached", true);
      plan_span.Set("nodes", static_cast<uint64_t>(plan->nodes.size() - 1));
      if (metrics != nullptr) metrics->Add("qp.plan_reused", 1);
      return std::shared_ptr<const UnionPlan>(std::move(cached), plan);
    }
  } else {
    std::set<std::string> seen;
    for (const ConjunctiveQuery& cq : uq.disjuncts()) {
      for (const Atom& a : cq.body()) {
        if (seen.insert(a.predicate()).second) ensure(a.predicate());
      }
    }
  }

  PDMS_ASSIGN_OR_RETURN(UnionPlan fresh,
                        PlanUnion(uq, db, catalog_, net_cost_));
  auto owned = std::make_shared<const UnionPlan>(std::move(fresh));
  if (slot != nullptr) slot->Set(owned);
  plan_span.Set("cached", false);
  plan_span.Set("nodes", static_cast<uint64_t>(owned->nodes.size() - 1));
  if (metrics != nullptr) metrics->Add("qp.plans", 1);
  return owned;
}

Result<DegradedEvalResult> Engine::EvaluateUnionDegraded(
    const UnionQuery& uq, const Database& db, const StoredGate& gate,
    obs::TraceContext* trace, obs::MetricsRegistry* metrics,
    PhysicalPlanSlot* slot) {
  DegradedEvalResult out;
  if (uq.empty()) return out;
  out.answers = Relation(uq.disjuncts()[0].head().predicate(),
                         uq.disjuncts()[0].head().arity());

  PDMS_ASSIGN_OR_RETURN(std::shared_ptr<const UnionPlan> plan,
                        PlanOrReuse(uq, db, trace, metrics, slot));

  obs::ScopedSpan exec_span(trace, "qp.exec");

  // Gating runs in disjunct order. The gate is consulted once per
  // distinct plan relation, at its first use in (disjunct, body order) —
  // the probe sequence of the legacy evaluator over a caching gate such
  // as AccessController — and every later disjunct reads the verdict kept
  // here, so AccessStats and the DegradationReport are
  // byte-identical to it. Surviving disjuncts are collected and executed
  // afterwards; their eval_cq/join spans are opened (and closed) here, in
  // disjunct order, and get their answer counts once the trie has run.
  struct PendingExec {
    size_t disjunct;
    obs::SpanId cq_span;
    obs::SpanId join_span;
  };
  std::vector<PendingExec> pending;
  enum Verdict : char { kUnprobed, kOpen, kVetoed };
  // Per plan relation id (UnionPlan::relations is sorted).
  std::vector<char> verdicts(plan->relations.size(), kUnprobed);
  // Per disjunct: survived gating and its constant comparisons hold.
  std::vector<char> run(uq.size(), 0);
  size_t index = 0;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    if (cq.head().arity() != out.answers.arity()) {
      return Status::InvalidArgument(
          StrFormat("union disjuncts disagree on arity (%zu vs %zu)",
                    out.answers.arity(), cq.head().arity()));
    }
    const DisjunctLeaf& leaf = plan->disjuncts[index];
    obs::ScopedSpan cq_span(trace, "eval_cq");
    cq_span.Set("disjunct", static_cast<uint64_t>(index));
    cq_span.Set("atoms", static_cast<uint64_t>(cq.body().size()));
    bool skipped = false;
    if (gate) {
      // The leaf lists the distinct relations in body order. A vetoed
      // relation does not stop the scan of the rest: each first probe is
      // recorded in the access stats, in the legacy order.
      for (uint32_t r : leaf.relations) {
        char& verdict = verdicts[r];
        if (verdict == kUnprobed) {
          Status s = gate(plan->relations[r]);
          if (!s.ok() && s.code() != StatusCode::kUnavailable) return s;
          verdict = s.ok() ? kOpen : kVetoed;
        }
        if (verdict == kVetoed) skipped = true;
      }
    }
    if (skipped) {
      ++out.disjuncts_skipped;
      cq_span.Set("skipped", true);
      ++index;
      continue;
    }
    if (leaf.node != 0) cq_span.Set("est", leaf.est);
    obs::ScopedSpan join_span(trace, "join");
    pending.push_back({index, cq_span.id(), join_span.id()});
    run[index] = leaf.const_ok ? 1 : 0;
    ++index;
  }

  // Prepare phase (the only catalog mutation after planning): build the
  // cacheable scan-side hash tables that the trie nodes on the surviving
  // paths need, walking the plan's distinct (relation, signature) list
  // once. Execution below then only reads the catalog.
  const std::vector<char> paths = MarkPaths(*plan, run);
  const std::vector<char> needed = JoinTableNeeds(*plan, paths);
  for (size_t t = 0; t < plan->join_tables.size(); ++t) {
    if (needed[t] != 2) continue;
    const PlannedStep& step = plan->nodes[plan->join_tables[t]].step;
    const std::string& relation = step.scan.relation;
    if (catalog_.FindJoinTable(relation, step.scan.signature) != nullptr) {
      continue;
    }
    const ColumnarRelation* data = catalog_.Find(relation);
    if (data == nullptr) continue;  // relation absent: scan yields nothing
    catalog_.StoreJoinTable(
        relation, step.scan.signature,
        BuildJoinTable(step.scan, step.key_cols, *data, catalog_));
    if (metrics != nullptr) metrics->Add("qp.join_tables_built", 1);
  }
  // Resolved after every store: the per-relation cap may have dropped a
  // table stored earlier in the loop.
  std::vector<const JoinTable*> tables(plan->join_tables.size(), nullptr);
  for (size_t t = 0; t < plan->join_tables.size(); ++t) {
    if (!needed[t]) continue;
    const PlannedStep& step = plan->nodes[plan->join_tables[t]].step;
    tables[t] = catalog_.FindJoinTable(step.scan.relation, step.scan.signature);
  }

  // Execute the trie over the surviving paths. Each disjunct's shard holds
  // what it would have produced alone, and shards merge below in disjunct
  // order.
  std::vector<std::vector<Tuple>> shards(uq.size());
  const size_t steps =
      ExecuteUnion(*plan, run, paths, tables, db, catalog_, &shards);

  for (const PendingExec& p : pending) {
    std::vector<Tuple>& shard = shards[p.disjunct];
    if (trace != nullptr) {
      uint64_t n = static_cast<uint64_t>(shard.size());
      trace->SetAttribute(p.join_span, "answers", n);
      trace->SetAttribute(p.cq_span, "answers", n);
    }
    for (Tuple& t : shard) out.answers.Insert(std::move(t));
  }

  // Canonical answer order: byte-identical output across engines and cache
  // states (docs/query_planning.md, determinism rules).
  out.answers.SortCanonical();
  exec_span.Set("answers", static_cast<uint64_t>(out.answers.size()));
  exec_span.Set("steps", static_cast<uint64_t>(steps));
  exec_span.End();

  for (size_t r = 0; r < verdicts.size(); ++r) {
    if (verdicts[r] == kVetoed) {
      out.unavailable_relations.push_back(plan->relations[r]);
    }
  }
  if (metrics != nullptr) {
    metrics->Add("eval.disjuncts", uq.size());
    metrics->Add("eval.disjuncts_skipped", out.disjuncts_skipped);
    metrics->Add("eval.answers", out.answers.size());
    metrics->Add("qp.exec_disjuncts", pending.size());
    metrics->Add("qp.exec_steps", steps);
  }
  return out;
}

Result<std::vector<Tuple>> Engine::EvaluateDisjunct(const ConjunctiveQuery& cq,
                                                    const Database& db) {
  for (const Atom& a : cq.body()) {
    const Relation* rel = db.Find(a.predicate());
    if (rel != nullptr) catalog_.Ensure(*rel);
  }
  PDMS_ASSIGN_OR_RETURN(DisjunctPlan dp,
                        PlanDisjunct(cq, db, catalog_, net_cost_));
  return ExecuteDisjunct(dp, db, catalog_, nullptr);
}

Result<std::string> Engine::Explain(const UnionQuery& uq, const Database& db) {
  std::string out;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    for (const Atom& a : cq.body()) {
      const Relation* rel = db.Find(a.predicate());
      if (rel != nullptr) catalog_.Ensure(*rel);
    }
  }
  size_t index = 0;
  size_t total = 0;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    PDMS_ASSIGN_OR_RETURN(DisjunctPlan dp,
                          PlanDisjunct(cq, db, catalog_, net_cost_));
    StepActuals actuals;
    PDMS_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                          ExecuteDisjunct(dp, db, catalog_, &actuals));
    total += tuples.size();
    out += RenderDisjunctPlan(dp, cq, index, &actuals);
    ++index;
  }
  out += StrFormat("%zu disjunct(s), %zu answer row(s) before union dedup\n",
                   uq.size(), total);
  return out;
}

void Engine::ObserveRelation(const Relation& rel,
                             obs::MetricsRegistry* metrics) {
  catalog_.Ensure(rel, metrics);
}

}  // namespace qp
}  // namespace pdms
