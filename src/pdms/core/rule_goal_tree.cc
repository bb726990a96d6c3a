#include "pdms/core/rule_goal_tree.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "pdms/core/cost_estimator.h"
#include "pdms/minicon/mcd.h"
#include "pdms/util/strings.h"

namespace pdms {

std::string ReformulationStats::ToString() const {
  std::string out;
  out += StrFormat(
      "nodes: %zu (goal %zu, rule %zu = %zu definitional + %zu inclusion)\n",
      total_nodes(), goal_nodes, rule_nodes, definitional_nodes,
      inclusion_nodes);
  out += StrFormat(
      "pruned: %zu unsat, %zu dead-end, %zu guard; combos failed: %zu\n",
      pruned_unsat, pruned_dead, pruned_guard, combos_failed);
  if (pruned_unavailable > 0 || !excluded_stored.empty()) {
    out += StrFormat("unavailable: %zu goal(s) pruned; excluded: %s\n",
                     pruned_unavailable,
                     StrJoin(excluded_stored, ", ").c_str());
  }
  if (duplicate_disjuncts > 0) {
    out += StrFormat("duplicate disjuncts dropped: %zu\n",
                     duplicate_disjuncts);
  }
  out += StrFormat("rewritings: %zu%s%s\n", rewritings,
                   tree_truncated ? " (tree truncated)" : "",
                   enumeration_truncated ? " (enumeration truncated)" : "");
  out += StrFormat("build: %.3f ms, enumerate: %.3f ms\n", build_ms,
                   enumerate_ms);
  if (!time_to_rewriting_ms.empty()) {
    out += StrFormat("first rewriting at %.3f ms, last at %.3f ms\n",
                     time_to_rewriting_ms.front(),
                     time_to_rewriting_ms.back());
  }
  return out;
}

namespace {

void DumpGoal(const GoalNode& goal, int indent, std::string* out);

void DumpExpansion(const ExpansionNode& exp, int indent, std::string* out) {
  out->append(indent, ' ');
  *out += (exp.kind == ExpansionNode::Kind::kDefinitional) ? "rule[d"
                                                           : "mcd[d";
  *out += std::to_string(exp.description_id);
  *out += "]";
  if (!exp.unc.empty()) {
    *out += " unc={";
    for (size_t i = 0; i < exp.unc.size(); ++i) {
      if (i > 0) *out += ",";
      *out += std::to_string(exp.unc[i]);
    }
    *out += "}";
  }
  if (!exp.viable) *out += " (dead)";
  *out += "\n";
  for (const auto& child : exp.children) {
    DumpGoal(*child, indent + 2, out);
  }
}

void DumpGoal(const GoalNode& goal, int indent, std::string* out) {
  out->append(indent, ' ');
  *out += goal.label.ToString();
  if (goal.is_stored) *out += " [stored]";
  if (!goal.constraints.empty()) {
    *out += "  { ";
    *out += goal.constraints.ToString();
    *out += " }";
  }
  if (!goal.viable && !goal.is_stored) *out += " (dead)";
  *out += "\n";
  for (const auto& exp : goal.expansions) {
    DumpExpansion(*exp, indent + 2, out);
  }
}

// Collects the variable names of an atom into a set.
std::unordered_set<std::string> AtomVars(const Atom& atom) {
  std::vector<std::string> vars;
  CollectVariables(atom, &vars);
  return std::unordered_set<std::string>(vars.begin(), vars.end());
}

}  // namespace

std::string OptionsFingerprint(const ReformulationOptions& options) {
  std::string out;
  out += options.prune_unsatisfiable ? "u1" : "u0";
  out += options.prune_dead_ends ? "d1" : "d0";
  out += options.order_expansions ? "o1" : "o0";
  // Appended only when set so every pre-existing fingerprint (and the
  // cache entries keyed by it) is unchanged for cost-blind queries.
  if (options.cost_aware) out += "|c1";
  out += "|a:";
  for (const std::string& s : options.allowed_stored) {
    out += s;
    out += ',';
  }
  // unavailable_stored is intentionally absent: availability is handled by
  // dependency-tracked invalidation, not by scoping (see the header note).
  return out;
}

std::vector<std::string> ExcludedStored(
    const ReformulationOptions& options,
    const std::function<bool(const std::string&)>& is_stored) {
  std::vector<std::string> out;
  for (const std::string& name : options.unavailable_stored) {
    // Report only relations this network actually stores and the caller's
    // source restriction would otherwise admit.
    if (is_stored(name) && (options.allowed_stored.empty() ||
                            options.allowed_stored.count(name) > 0)) {
      out.push_back(name);
    }
  }
  return out;
}

std::string RuleGoalTree::ToString() const {
  std::string out = "query: " + query.ToString() + "\n";
  if (root != nullptr) DumpExpansion(*root, 0, &out);
  return out;
}

TreeBuilder::TreeBuilder(const ExpansionRules& rules,
                         const Reachability& reach,
                         ReformulationOptions options)
    : rules_(rules), reach_(reach), options_(options) {}

bool TreeBuilder::IsUsableStored(const std::string& predicate) const {
  if (rules_.stored.count(predicate) == 0) return false;
  if (options_.unavailable_stored.count(predicate) > 0) return false;
  return options_.allowed_stored.empty() ||
         options_.allowed_stored.count(predicate) > 0;
}

Result<RuleGoalTree> TreeBuilder::Build(const ConjunctiveQuery& query) {
  PDMS_RETURN_IF_ERROR(query.CheckSafe());
  if (query.body().size() > 32) {
    return Status::Unsupported(
        "queries with more than 32 subgoals are not supported");
  }
  RuleGoalTree tree;
  tree.query = query;
  tree.root = std::make_unique<ExpansionNode>();
  tree.root->kind = ExpansionNode::Kind::kDefinitional;
  tree.root->description_id = SIZE_MAX;
  tree.root->required_constraints = ConstraintSet(query.comparisons());
  tree.root->label = tree.root->required_constraints;

  node_count_ = 1;
  truncated_ = false;
  path_.clear();
  ReformulationStats& stats = tree.stats;
  stats_ = &stats;
  stats.rule_nodes = 1;
  stats.definitional_nodes = 1;
  stats.excluded_stored =
      ExcludedStored(options_, [this](const std::string& name) {
        return rules_.stored.count(name) > 0;
      });

  for (size_t i = 0; i < query.body().size(); ++i) {
    auto goal = std::make_unique<GoalNode>();
    goal->label = query.body()[i];
    goal->is_stored = IsUsableStored(goal->label.predicate());
    goal->index_in_scope = i;
    goal->constraints = tree.root->label.Project(AtomVars(goal->label));
    tree.root->children.push_back(std::move(goal));
    ++node_count_;
    ++stats.goal_nodes;
  }

  BuildScope({tree.root.get(), query.head()});
  stats.tree_truncated = truncated_;

  MarkViability(tree.root.get());
  return tree;
}

void TreeBuilder::BuildScope(const ScopeContext& ctx) {
  for (auto& child : ctx.scope->children) ExpandGoal(ctx, child.get());
  if (options_.order_expansions) {
    // Priority scheme: explore expansions that reach stored relations in
    // fewer levels first, so the depth-first enumeration emits its first
    // rewritings quickly. With a cost estimator attached (cost_aware),
    // equally-shallow expansions are additionally ordered by the estimated
    // network round trip of their most expensive stored leaf, so the first
    // rewritings lean on cheap (near, fast, healthy) sources. A stable
    // sort on a (depth, cost) key: cost never overrides depth, and
    // cost-blind ordering is untouched.
    const CostEstimator* est =
        options_.cost_aware ? options_.cost_estimator : nullptr;
    for (auto& child : ctx.scope->children) {
      std::stable_sort(
          child->expansions.begin(), child->expansions.end(),
          [&](const std::unique_ptr<ExpansionNode>& a,
              const std::unique_ptr<ExpansionNode>& b) {
            auto rank = [&](const ExpansionNode& e) {
              size_t worst = 0;
              double cost = 0;
              for (const auto& g : e.children) {
                size_t r =
                    g->is_stored ? 0 : reach_.Depth(g->label.predicate());
                worst = std::max(worst, r);
                if (est != nullptr && g->is_stored) {
                  cost = std::max(cost,
                                  est->ScanCostMs(g->label.predicate()));
                }
              }
              return std::make_pair(worst, cost);
            };
            return rank(*a) < rank(*b);
          });
    }
  }
}

void TreeBuilder::ExpandGoal(const ScopeContext& ctx, GoalNode* goal) {
  const std::string& pred = goal->label.predicate();
  // Every goal predicate the build touches — stored leaves included — is
  // part of the footprint: an availability flip or mapping change naming
  // it must invalidate whatever was built here.
  stats_->deps.predicates.insert(pred);
  if (goal->is_stored) return;
  // One span per goal-node expansion; the per-candidate spans below nest
  // under it, so the explain tree mirrors the rule-goal tree. Prune-reason
  // attributes name the Section 4.3 optimization that fired.
  obs::ScopedSpan goal_span(options_.trace, "expand");
  goal_span.Set("goal", pred);
  if (rules_.stored.count(pred) > 0 &&
      options_.unavailable_stored.count(pred) > 0) {
    // A goal over an unavailable stored relation: not expandable (stored
    // relations have no rules) and not scannable. Count separately from
    // structural dead ends so the degradation report can attribute the
    // loss to peer unavailability.
    ++stats_->pruned_unavailable;
    goal_span.Set("pruned", "unavailable");
    return;
  }
  if (options_.prune_dead_ends && !reach_.Answerable(pred)) {
    if (reach_.DeadOnlyByAvailability(pred)) {
      ++stats_->pruned_unavailable;
      goal_span.Set("pruned", "unavailable");
    } else {
      ++stats_->pruned_dead;
      goal_span.Set("pruned", "dead_end");
    }
    return;
  }

  auto rit = rules_.rules_by_head.find(pred);
  auto vit = rules_.views_by_body_pred.find(pred);
  const bool has_rules = rit != rules_.rules_by_head.end();
  const bool has_views = vit != rules_.views_by_body_pred.end();

  // Sibling labels: the local query against which MCDs are formed.
  std::vector<Atom> siblings;
  // The MCD's "distinguished" variables are the scope interface: what
  // the enclosing scope needs upward. Variables that occur only in
  // constraint labels may fold into view existentials — the assembly
  // step then either discharges the constraint against the view's
  // guarantees or drops the combination (EmitPartial), so soundness is
  // preserved without forbidding the MCD here.
  Atom iface;
  if (has_views) {
    siblings.reserve(ctx.scope->children.size());
    for (const auto& sib : ctx.scope->children) {
      siblings.push_back(sib->label);
    }
    iface = Atom("$iface", ctx.interface.args());
  }

  // One depth-first sweep over the candidates, definitional rules first.
  // A false return means the node budget fired; the goal is abandoned
  // mid-sweep.
  if (has_rules) {
    for (size_t idx : rit->second) {
      if (!TryDefinitionalCandidate(goal, rules_.rules[idx])) return;
    }
  }
  if (has_views) {
    for (size_t idx : vit->second) {
      if (!TryInclusionCandidate(ctx, goal, rules_.views[idx], siblings,
                                 iface)) {
        return;
      }
    }
  }
}

bool TreeBuilder::TryDefinitionalCandidate(GoalNode* goal,
                                           const ExpansionRules::DefRule& dr) {
  obs::ScopedSpan rule_span(options_.trace, "definitional");
  rule_span.Set("desc", static_cast<uint64_t>(dr.description_id));
  if (!dr.guard_exempt && path_.count(dr.description_id) > 0) {
    ++stats_->pruned_guard;
    rule_span.Set("pruned", "reuse_guard");
    return true;
  }
  if (node_count_ >= options_.max_tree_nodes) {
    truncated_ = true;
    rule_span.Set("pruned", "node_budget");
    return false;
  }
  Rule renamed = RenameApart(dr.rule, &fresh_);
  Substitution theta;
  if (!theta.UnifyAtoms(goal->label, renamed.head())) {
    rule_span.Set("pruned", "unification");
    return true;
  }
  // Body predicates shape the dead-end decision below even when the
  // candidate is pruned, so they enter the footprint here rather than via
  // the child-goal recursion.
  for (const Atom& b : renamed.body()) {
    stats_->deps.predicates.insert(b.predicate());
  }

  auto exp = std::make_unique<ExpansionNode>();
  exp->kind = ExpansionNode::Kind::kDefinitional;
  exp->description_id = dr.description_id;
  exp->unifier = theta;
  for (const Comparison& c : renamed.comparisons()) {
    exp->required_constraints.Add(theta.Apply(c));
  }
  exp->label = goal->constraints.Apply(theta);
  exp->label.AddAll(exp->required_constraints);
  if (options_.prune_unsatisfiable && !exp->label.IsSatisfiable()) {
    ++stats_->pruned_unsat;
    rule_span.Set("pruned", "unsatisfiable");
    return true;
  }
  if (options_.prune_dead_ends) {
    bool dead = false;
    bool only_availability = true;
    for (const Atom& b : renamed.body()) {
      if (!reach_.Answerable(b.predicate())) {
        dead = true;
        if (!reach_.DeadOnlyByAvailability(b.predicate())) {
          only_availability = false;
          break;
        }
      }
    }
    if (dead) {
      if (only_availability) {
        ++stats_->pruned_unavailable;
        rule_span.Set("pruned", "unavailable");
      } else {
        ++stats_->pruned_dead;
        rule_span.Set("pruned", "dead_end");
      }
      return true;
    }
  }
  rule_span.Set("subgoals", static_cast<uint64_t>(renamed.body().size()));
  for (size_t j = 0; j < renamed.body().size(); ++j) {
    auto child = std::make_unique<GoalNode>();
    child->label = theta.Apply(renamed.body()[j]);
    child->is_stored = IsUsableStored(child->label.predicate());
    child->index_in_scope = j;
    child->constraints = exp->label.Project(AtomVars(child->label));
    exp->children.push_back(std::move(child));
    ++node_count_;
    ++stats_->goal_nodes;
  }
  ++node_count_;
  ++stats_->rule_nodes;
  ++stats_->definitional_nodes;

  bool inserted = path_.insert(dr.description_id).second;
  BuildScope({exp.get(), theta.Apply(goal->label)});
  if (inserted) path_.erase(dr.description_id);
  goal->expansions.push_back(std::move(exp));
  return true;
}

bool TreeBuilder::TryInclusionCandidate(const ScopeContext& ctx,
                                        GoalNode* goal,
                                        const ExpansionRules::View& vw,
                                        const std::vector<Atom>& siblings,
                                        const Atom& iface) {
  obs::ScopedSpan view_span(options_.trace, "inclusion");
  view_span.Set("desc", static_cast<uint64_t>(vw.description_id));
  // The view head (a stored relation or `_V` predicate) gates this
  // candidate's reachability check, so it belongs in the footprint even if
  // the candidate is pruned before producing a child goal.
  stats_->deps.predicates.insert(vw.view.head().predicate());
  if (path_.count(vw.description_id) > 0) {
    ++stats_->pruned_guard;
    view_span.Set("pruned", "reuse_guard");
    return true;
  }
  const std::string& head = vw.view.head().predicate();
  if (options_.prune_dead_ends && !reach_.Answerable(head)) {
    if (reach_.DeadOnlyByAvailability(head)) {
      ++stats_->pruned_unavailable;
      view_span.Set("pruned", "unavailable");
    } else {
      ++stats_->pruned_dead;
      view_span.Set("pruned", "dead_end");
    }
    return true;
  }
  if (node_count_ >= options_.max_tree_nodes) {
    truncated_ = true;
    view_span.Set("pruned", "node_budget");
    return false;
  }
  std::vector<Mcd> mcds = MakeMcds(
      iface, siblings, goal->index_in_scope, vw.view, &fresh_,
      options_.prune_unsatisfiable ? &ctx.scope->label : nullptr);
  view_span.Set("mcds", static_cast<uint64_t>(mcds.size()));
  for (Mcd& mcd : mcds) {
    obs::ScopedSpan mcd_span(options_.trace, "mcd");
    if (node_count_ >= options_.max_tree_nodes) {
      truncated_ = true;
      mcd_span.Set("pruned", "node_budget");
      return false;
    }
    auto exp = std::make_unique<ExpansionNode>();
    exp->kind = ExpansionNode::Kind::kInclusion;
    exp->description_id = vw.description_id;
    exp->unifier = mcd.unifier;
    exp->granted_constraints = mcd.view_constraints;
    exp->unc = mcd.covered;
    exp->label = ctx.scope->label.Apply(mcd.unifier);
    exp->label.AddAll(exp->granted_constraints);
    if (options_.prune_unsatisfiable && !exp->label.IsSatisfiable()) {
      ++stats_->pruned_unsat;
      mcd_span.Set("pruned", "unsatisfiable");
      continue;
    }
    if (options_.trace != nullptr) {
      mcd_span.Set("view", mcd.view_atom.predicate());
      std::string unc;
      for (size_t u : exp->unc) {
        if (!unc.empty()) unc += ',';
        unc += std::to_string(u);
      }
      mcd_span.Set("unc", unc);
    }
    auto child = std::make_unique<GoalNode>();
    child->label = mcd.view_atom;
    child->is_stored = IsUsableStored(child->label.predicate());
    child->index_in_scope = 0;
    child->constraints = exp->label.Project(AtomVars(child->label));
    Atom child_interface = child->label;
    exp->children.push_back(std::move(child));
    node_count_ += 2;
    ++stats_->goal_nodes;
    ++stats_->rule_nodes;
    ++stats_->inclusion_nodes;

    bool inserted = path_.insert(vw.description_id).second;
    BuildScope({exp.get(), child_interface});
    if (inserted) path_.erase(vw.description_id);
    goal->expansions.push_back(std::move(exp));
  }
  return true;
}

void TreeBuilder::MarkViability(ExpansionNode* scope) {
  // Bottom-up structural pass. When dead-end pruning is disabled we mark
  // everything viable and let enumeration discover failures naturally.
  for (auto& child : scope->children) {
    child->viable = child->is_stored;
    for (auto& exp : child->expansions) {
      MarkViability(exp.get());
      if (exp->viable) child->viable = true;
    }
    if (!options_.prune_dead_ends) child->viable = true;
  }
  if (!options_.prune_dead_ends) {
    scope->viable = true;
    return;
  }
  // The scope is viable iff the available coverage sets (stored leaves,
  // viable definitional expansions covering themselves, viable inclusion
  // expansions covering their unc sets) can cover every child.
  uint64_t covered = 0;
  uint64_t universe = 0;
  for (size_t i = 0; i < scope->children.size(); ++i) {
    universe |= uint64_t{1} << i;
    const GoalNode& child = *scope->children[i];
    if (child.is_stored) {
      covered |= uint64_t{1} << i;
      continue;
    }
    for (const auto& exp : child.expansions) {
      if (!exp->viable) continue;
      if (exp->kind == ExpansionNode::Kind::kDefinitional) {
        covered |= uint64_t{1} << i;
      } else {
        for (size_t u : exp->unc) covered |= uint64_t{1} << u;
      }
    }
  }
  scope->viable = (covered & universe) == universe;
}

}  // namespace pdms
