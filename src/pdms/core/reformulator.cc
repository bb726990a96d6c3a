#include "pdms/core/reformulator.h"

#include "pdms/constraints/cq_containment.h"
#include "pdms/lang/homomorphism.h"
#include "pdms/util/timer.h"

namespace pdms {

Reformulator::Reformulator(const PdmsNetwork& network,
                           ReformulationOptions options)
    : rules_(Normalize(network)), options_(options) {}

const Reachability& Reformulator::ReachabilityFor(
    const ReformulationOptions& options, bool* computed) {
  *computed = !reach_.has_value() ||
              reach_unavailable_ != options.unavailable_stored ||
              reach_allowed_ != options.allowed_stored;
  if (*computed) {
    reach_ = Reachability::Compute(rules_, options.unavailable_stored,
                                   options.allowed_stored);
    reach_unavailable_ = options.unavailable_stored;
    reach_allowed_ = options.allowed_stored;
    if (options.metrics != nullptr) {
      options.metrics->Add("reform.reachability_computed");
    }
  }
  return *reach_;
}

Result<RuleGoalTree> Reformulator::BuildTree(const ConjunctiveQuery& query) {
  bool computed = false;
  TreeBuilder builder(rules_, ReachabilityFor(options_, &computed), options_);
  return builder.Build(query);
}

Result<ReformulationResult> Reformulator::ReformulateStreaming(
    const ConjunctiveQuery& query, const RewritingSink& sink) {
  return ReformulateStreaming(query, options_, sink);
}

namespace {

// Folds one query's reformulation stats into the registry — counters for
// the tree/prune/rewriting counts, histograms for the phase timings. Done
// once per query rather than per event so metrics stay cheap even with the
// registry attached.
void RecordReformulationMetrics(const ReformulationStats& stats,
                                obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->Add("reform.queries");
  metrics->Add("reform.goal_nodes", stats.goal_nodes);
  metrics->Add("reform.rule_nodes", stats.rule_nodes);
  metrics->Add("reform.definitional_nodes", stats.definitional_nodes);
  metrics->Add("reform.inclusion_nodes", stats.inclusion_nodes);
  metrics->Add("reform.pruned_unsat", stats.pruned_unsat);
  metrics->Add("reform.pruned_dead", stats.pruned_dead);
  metrics->Add("reform.pruned_guard", stats.pruned_guard);
  metrics->Add("reform.pruned_unavailable", stats.pruned_unavailable);
  metrics->Add("reform.combos_failed", stats.combos_failed);
  metrics->Add("reform.rewritings", stats.rewritings);
  metrics->Add("reform.duplicate_disjuncts", stats.duplicate_disjuncts);
  if (stats.tree_truncated) metrics->Add("reform.tree_truncated");
  if (stats.enumeration_truncated) {
    metrics->Add("reform.enumeration_truncated");
  }
  metrics->Observe("reform.build_ms", stats.build_ms);
  metrics->Observe("reform.enumerate_ms", stats.enumerate_ms);
  if (!stats.time_to_rewriting_ms.empty()) {
    metrics->Observe("reform.first_rewriting_ms",
                     stats.time_to_rewriting_ms.front());
  }
}

}  // namespace

Result<ReformulationResult> Reformulator::ReformulateStreaming(
    const ConjunctiveQuery& query, const ReformulationOptions& options,
    const RewritingSink& sink) {
  obs::TraceContext* trace = options.trace;
  obs::ScopedSpan reform_span(trace, "reformulate");
  reform_span.Set("query", query.head().predicate());

  WallTimer timer;
  obs::ScopedSpan build_span(trace, "build_tree");
  bool reach_computed = false;
  const Reachability& reach = ReachabilityFor(options, &reach_computed);
  build_span.Set("reach", reach_computed ? "computed" : "memo");
  TreeBuilder builder(rules_, reach, options);
  PDMS_ASSIGN_OR_RETURN(RuleGoalTree tree, builder.Build(query));
  tree.stats.build_ms = timer.ElapsedMillis();
  build_span.Set("nodes", static_cast<uint64_t>(tree.stats.total_nodes()));
  build_span.Set("truncated", tree.stats.tree_truncated);
  build_span.End();

  ReformulationResult result;
  result.stats = tree.stats;
  WallTimer enumerate_timer;
  obs::ScopedSpan enum_span(trace, "enumerate");
  PDMS_RETURN_IF_ERROR(EnumerateRewritings(
      tree, options, timer, &result.stats,
      [&](const ConjunctiveQuery& cq) {
        if (trace != nullptr) {
          obs::SpanId mark = trace->Instant("rewriting");
          trace->SetAttribute(
              mark, "index", static_cast<uint64_t>(result.rewriting.size()));
        }
        if (!sink(cq)) return false;
        result.rewriting.Add(cq);
        return true;
      }));
  result.stats.enumerate_ms = enumerate_timer.ElapsedMillis();

  if (options.remove_redundant) {
    // Minimize comparison-free disjuncts and drop disjuncts contained in
    // others; cross-disjunct containment uses the semantic test so bounds
    // like `x < 3 ⊆ x < 5` are recognized.
    UnionQuery minimized;
    for (const ConjunctiveQuery& cq : result.rewriting.disjuncts()) {
      minimized.Add(MinimizeCQ(cq));
    }
    result.rewriting = RemoveRedundantDisjunctsWithComparisons(minimized);
    result.stats.rewritings = result.rewriting.size();
  }
  enum_span.Set("rewritings", static_cast<uint64_t>(result.stats.rewritings));
  enum_span.Set("truncated", result.stats.enumeration_truncated);
  enum_span.End();
  RecordReformulationMetrics(result.stats, options.metrics);
  return result;
}

Result<ReformulationResult> Reformulator::Reformulate(
    const ConjunctiveQuery& query) {
  return ReformulateStreaming(query,
                              [](const ConjunctiveQuery&) { return true; });
}

Result<ReformulationResult> Reformulator::Reformulate(
    const ConjunctiveQuery& query, const ReformulationOptions& options) {
  return ReformulateStreaming(query, options,
                              [](const ConjunctiveQuery&) { return true; });
}

}  // namespace pdms
