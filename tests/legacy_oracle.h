// The tuple-at-a-time union evaluator as the answer oracle of the engine
// suites. It answers a query the way the facade does, with the legacy
// evaluator in place of the vectorized engine: the facade's own
// reformulation (plan cache included), every scan gated through an
// AccessController configured like the facade's, and the degradation
// report assembled by the pipeline's report builder. Answers come back in
// the legacy evaluator's discovery order.

#ifndef PDMS_TESTS_LEGACY_ORACLE_H_
#define PDMS_TESTS_LEGACY_ORACLE_H_

#include <string>

#include <gtest/gtest.h>

#include "pdms/core/pdms.h"
#include "pdms/core/query_pipeline.h"
#include "pdms/eval/evaluator.h"
#include "pdms/fault/access.h"

namespace pdms {

inline Result<AnswerResult> LegacyAnswerWithReport(
    Pdms* pdms, const ConjunctiveQuery& query) {
  AnswerResult out;
  out.answers = Relation(query.head().predicate(), query.head().arity());
  PDMS_ASSIGN_OR_RETURN(ReformulationResult ref, pdms->Reformulate(query));
  FaultInjector* injector = pdms->fault_injector() != nullptr
                                ? pdms->mutable_fault_injector()
                                : nullptr;
  const PdmsNetwork& network = pdms->network();
  AccessController access(
      injector, pdms->retry_policy(), pdms->deadline(),
      [&](const std::string& relation) {
        auto peer = network.StoredRelationPeer(relation);
        return peer.ok() ? *peer : std::string();
      },
      pdms->trace(), pdms->metrics());
  DegradedEvalResult eval;
  if (!ref.rewriting.empty()) {
    PDMS_ASSIGN_OR_RETURN(
        eval, EvaluateUnionDegraded(
                  ref.rewriting, pdms->database(),
                  [&](const std::string& relation) {
                    return access.Access(relation);
                  },
                  pdms->trace(), pdms->metrics()));
    out.answers = std::move(eval.answers);
  }
  out.stats = std::move(ref.stats);
  FillDegradationReport(network, out.stats, eval.unavailable_relations,
                        eval.disjuncts_skipped, access.stats(),
                        !out.answers.empty(), &out.degradation);
  return out;
}

}  // namespace pdms

#endif  // PDMS_TESTS_LEGACY_ORACLE_H_
