#include "pdms/qp/engine.h"

#include <optional>
#include <set>
#include <utility>

#include "pdms/exec/parallel_for.h"
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
  // plan see current cardinalities.
  std::set<std::string> seen;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    for (const Atom& a : cq.body()) {
      if (!seen.insert(a.predicate()).second) continue;
      const Relation* rel = db.Find(a.predicate());
      if (rel != nullptr) catalog_.Ensure(*rel, metrics);
    }
  }

  if (slot != nullptr) {
    std::shared_ptr<const PhysicalPlanHandle> cached = slot->Get();
    const auto* plan = dynamic_cast<const UnionPlan*>(cached.get());
    if (plan != nullptr && plan->disjuncts.size() == uq.size() &&
        plan->stats_fingerprint ==
            catalog_.StatsFingerprint(plan->relations)) {
      plan_span.Set("cached", true);
      if (metrics != nullptr) metrics->Add("qp.plan_reused", 1);
      return std::shared_ptr<const UnionPlan>(std::move(cached), plan);
    }
  }

  PDMS_ASSIGN_OR_RETURN(UnionPlan fresh,
                        PlanUnion(uq, db, catalog_, net_cost_));
  auto owned = std::make_shared<const UnionPlan>(std::move(fresh));
  if (slot != nullptr) slot->Set(owned);
  plan_span.Set("cached", false);
  if (metrics != nullptr) metrics->Add("qp.plans", 1);
  return owned;
}

Result<DegradedEvalResult> Engine::EvaluateUnionDegraded(
    const UnionQuery& uq, const Database& db, const StoredGate& gate,
    obs::TraceContext* trace, obs::MetricsRegistry* metrics,
    exec::ThreadPool* pool, PhysicalPlanSlot* slot) {
  DegradedEvalResult out;
  if (uq.empty()) return out;
  out.answers = Relation(uq.disjuncts()[0].head().predicate(),
                         uq.disjuncts()[0].head().arity());

  PDMS_ASSIGN_OR_RETURN(std::shared_ptr<const UnionPlan> plan,
                        PlanOrReuse(uq, db, trace, metrics, slot));

  obs::ScopedSpan exec_span(trace, "qp.exec");
  std::set<std::string> unavailable;

  // Gating stays serial and in disjunct order — the loop below matches the
  // legacy evaluator probe for probe, so AccessStats and the
  // DegradationReport are byte-identical to it. Surviving disjuncts are
  // collected and executed afterwards; their eval_cq/join spans are opened
  // (and closed) here, in disjunct order, so the span tree is identical
  // whether execution later runs serially or fans out.
  struct PendingExec {
    size_t disjunct;
    obs::SpanId cq_span;
    obs::SpanId join_span;
  };
  std::vector<PendingExec> pending;
  size_t index = 0;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    if (cq.head().arity() != out.answers.arity()) {
      return Status::InvalidArgument(
          StrFormat("union disjuncts disagree on arity (%zu vs %zu)",
                    out.answers.arity(), cq.head().arity()));
    }
    obs::ScopedSpan cq_span(trace, "eval_cq");
    cq_span.Set("disjunct", static_cast<uint64_t>(index));
    cq_span.Set("atoms", static_cast<uint64_t>(cq.body().size()));
    bool skipped = false;
    if (gate) {
      std::set<std::string> seen;
      for (const Atom& a : cq.body()) {
        if (!seen.insert(a.predicate()).second) continue;
        Status s = gate(a.predicate());
        if (s.ok()) continue;
        if (s.code() != StatusCode::kUnavailable) return s;
        unavailable.insert(a.predicate());
        skipped = true;
        // Keep gating the remaining relations: each probe is recorded in
        // the access stats, and later disjuncts reuse the cached verdicts.
      }
    }
    if (skipped) {
      ++out.disjuncts_skipped;
      cq_span.Set("skipped", true);
      ++index;
      continue;
    }
    const DisjunctPlan& dp = plan->disjuncts[index];
    if (!dp.steps.empty()) {
      cq_span.Set("est", dp.steps.back().est_out);
    }
    obs::ScopedSpan join_span(trace, "join");
    pending.push_back({index, cq_span.id(), join_span.id()});
    ++index;
  }

  // Prepare phase (serial; the only catalog mutation after planning):
  // build the cacheable scan-side hash tables the surviving plans need.
  // Execution below then only reads the catalog, which is what makes the
  // disjunct fan-out safe.
  for (const PendingExec& p : pending) {
    const DisjunctPlan& dp = plan->disjuncts[p.disjunct];
    for (const PlannedStep& step : dp.steps) {
      if (!step.build_on_atom || step.key_cols.empty()) continue;
      if (catalog_.FindJoinTable(step.scan.relation, step.scan.signature) !=
          nullptr) {
        continue;
      }
      const ColumnarRelation* data = catalog_.Find(step.scan.relation);
      if (data == nullptr) continue;  // relation absent: scan yields nothing
      catalog_.StoreJoinTable(
          step.scan.relation, step.scan.signature,
          BuildJoinTable(step.scan, step.key_cols, *data, catalog_));
      if (metrics != nullptr) metrics->Add("qp.join_tables_built", 1);
    }
  }

  // Execute the surviving disjuncts — ParallelFor falls back to a serial
  // in-order loop without a pool, and shard merging below is in disjunct
  // order either way, so answers cannot depend on the thread count.
  std::vector<std::optional<Result<std::vector<Tuple>>>> shards(
      pending.size());
  exec::ParallelFor(pool, pending.size(), [&](size_t k) {
    const DisjunctPlan& dp = plan->disjuncts[pending[k].disjunct];
    shards[k].emplace(ExecuteDisjunct(dp, db, catalog_, pool, nullptr));
  });

  for (size_t k = 0; k < pending.size(); ++k) {
    Result<std::vector<Tuple>>& shard = *shards[k];
    if (!shard.ok()) return shard.status();
    if (trace != nullptr) {
      uint64_t n = static_cast<uint64_t>(shard->size());
      trace->SetAttribute(pending[k].join_span, "answers", n);
      trace->SetAttribute(pending[k].cq_span, "answers", n);
    }
    for (Tuple& t : *shard) out.answers.Insert(std::move(t));
  }

  // Canonical answer order: byte-identical output across engines, thread
  // counts, and cache states (docs/query_planning.md, determinism rules).
  out.answers.SortCanonical();
  exec_span.Set("answers", static_cast<uint64_t>(out.answers.size()));
  exec_span.End();

  out.unavailable_relations.assign(unavailable.begin(), unavailable.end());
  if (metrics != nullptr) {
    metrics->Add("eval.disjuncts", uq.size());
    metrics->Add("eval.disjuncts_skipped", out.disjuncts_skipped);
    metrics->Add("eval.answers", out.answers.size());
    metrics->Add("qp.exec_disjuncts", pending.size());
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
  return ExecuteDisjunct(dp, db, catalog_, nullptr, nullptr);
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
                          ExecuteDisjunct(dp, db, catalog_, nullptr, &actuals));
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
