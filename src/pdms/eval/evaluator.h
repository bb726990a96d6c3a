#ifndef PDMS_EVAL_EVALUATOR_H_
#define PDMS_EVAL_EVALUATOR_H_

#include <functional>
#include <string>
#include <unordered_map>

#include "pdms/data/database.h"
#include "pdms/lang/conjunctive_query.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"
#include "pdms/util/status.h"

namespace pdms {

/// A satisfying assignment of body variables to data values.
using BindingMap = std::unordered_map<std::string, Value>;

/// Enumerates every assignment of the body variables that makes all atoms
/// hold in `db` and all comparisons evaluate to true. Atoms over relations
/// missing from `db` match nothing. The callback returns false to stop
/// enumeration early.
///
/// Joins are evaluated by backtracking with greedy atom reordering (most
/// bound variables first); each comparison is applied as soon as both of its
/// sides are ground, so selections are pushed below joins.
Status ForEachMatch(const std::vector<Atom>& body,
                    const std::vector<Comparison>& comparisons,
                    const Database& db,
                    const std::function<bool(const BindingMap&)>& callback);

/// Evaluates a conjunctive query over `db`, returning the set of head
/// tuples (set semantics). The query must be safe.
Result<Relation> EvaluateCQ(const ConjunctiveQuery& cq, const Database& db);

/// Availability gate consulted before a scan. Returning a non-OK status
/// (typically kUnavailable, possibly after the fault layer exhausted its
/// retries) vetoes the scan.
///
/// Contract: qp::Engine::EvaluateUnionDegraded calls the gate exactly once
/// per distinct relation of the union per evaluation, at the relation's
/// first use over (disjunct, body order), and applies that verdict to
/// every disjunct scanning it. A gate must therefore give one relation the
/// same verdict for the whole evaluation, as AccessController's per-query
/// cache does. The legacy EvaluateUnionDegraded below probes once per
/// distinct relation of each disjunct; over such a gate both see the same
/// first probes in the same order.
using StoredGate = std::function<Status(const std::string& relation)>;

/// Evaluates a union of conjunctive queries (all disjuncts must share head
/// arity); the result is the set union of the disjunct results.
Result<Relation> EvaluateUnion(const UnionQuery& uq, const Database& db);

/// The outcome of evaluating a union under partial availability.
struct DegradedEvalResult {
  Relation answers;
  /// Relations the gate vetoed (sorted, deduplicated).
  std::vector<std::string> unavailable_relations;
  /// Disjuncts skipped because a relation they scan was vetoed.
  size_t disjuncts_skipped = 0;

  DegradedEvalResult() : answers("result", 0) {}
};

/// Degraded union evaluation: disjuncts whose relations the gate reports
/// kUnavailable are skipped (and recorded) instead of failing the whole
/// query; any other gate error propagates. The surviving disjuncts'
/// answers are a sound subset of the fully-available result.
///
/// Observability (both nullable, borrowed): with `trace` attached each
/// disjunct gets an `eval_cq` span (gate outcomes and the join nested
/// under it); with `metrics` attached the registry accumulates
/// `eval.disjuncts` / `eval.disjuncts_skipped` / `eval.answers`.
///
/// The tuple-at-a-time reference oracle: answering runs
/// qp::Engine::EvaluateUnionDegraded, and the engine tests compare it
/// against this one.
Result<DegradedEvalResult> EvaluateUnionDegraded(
    const UnionQuery& uq, const Database& db, const StoredGate& gate,
    obs::TraceContext* trace = nullptr,
    obs::MetricsRegistry* metrics = nullptr);

/// Drops tuples containing labeled nulls — used to extract certain answers
/// from a chased instance.
Relation DropNullTuples(const Relation& rel);

}  // namespace pdms

#endif  // PDMS_EVAL_EVALUATOR_H_
