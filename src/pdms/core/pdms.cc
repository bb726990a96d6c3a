#include "pdms/core/pdms.h"

#include <algorithm>

#include "pdms/core/query_pipeline.h"
#include "pdms/exec/thread_pool.h"
#include "pdms/fault/access.h"
#include "pdms/qp/engine.h"
#include "pdms/util/strings.h"

namespace pdms {

Pdms::Pdms(ReformulationOptions options) : options_(options) {}

Pdms::~Pdms() = default;
Pdms::Pdms(Pdms&&) noexcept = default;
Pdms& Pdms::operator=(Pdms&&) noexcept = default;

qp::Engine* Pdms::engine() {
  if (engine_ == nullptr) engine_ = std::make_unique<qp::Engine>();
  return engine_.get();
}

exec::ThreadPool* Pdms::Executor() {
  if (options_.threads <= 1) return nullptr;
  size_t workers = options_.threads - 1;  // the caller helps while waiting
  if (pool_ == nullptr || pool_->workers() != workers) {
    pool_ = std::make_unique<exec::ThreadPool>(workers);
  }
  return pool_.get();
}

Status Pdms::LoadProgram(std::string_view text) {
  // Catalog additions bump the network revision, which GetReformulator
  // checks; no explicit invalidation is needed here.
  return ParsePplProgramInto(text, &network_, &data_);
}

PdmsNetwork* Pdms::mutable_network() { return &network_; }

FaultInjector* Pdms::mutable_fault_injector() {
  if (injector_ == nullptr) injector_ = std::make_unique<FaultInjector>(1);
  return injector_.get();
}

void Pdms::set_fault_seed(uint64_t seed) {
  injector_ = std::make_unique<FaultInjector>(seed);
}

Status Pdms::Insert(std::string_view stored_relation, Tuple tuple) {
  std::string name(stored_relation);
  if (!network_.IsStoredRelation(name)) {
    return Status::NotFound("not a stored relation: " + name);
  }
  PDMS_ASSIGN_OR_RETURN(size_t arity, network_.RelationArity(name));
  if (arity != tuple.size()) {
    return Status::InvalidArgument(
        StrFormat("tuple arity %zu does not match %s/%zu", tuple.size(),
                  name.c_str(), arity));
  }
  data_.Insert(name, std::move(tuple));
  // Keep the vectorized engine's statistics current: the appended row is
  // converted incrementally (no rebuild) and the `qp.*` stat counters
  // move with it.
  engine()->ObserveRelation(*data_.Find(name), metrics_);
  return Status::Ok();
}

void Pdms::set_options(const ReformulationOptions& options) {
  options_ = options;
  // The cached reformulator (if any) receives the new options — and is
  // revalidated against the network revision — inside GetReformulator, so
  // an options change can never resurrect a stale normalization.
}

Result<ConjunctiveQuery> Pdms::ParseQuery(std::string_view text) const {
  return ParseNetworkQuery(network_, text);
}

Reformulator* Pdms::GetReformulator() {
  if (reformulator_ == nullptr ||
      reformulator_revision_ != network_.revision()) {
    reformulator_ = std::make_unique<Reformulator>(network_, options_);
    reformulator_revision_ = network_.revision();
  } else {
    reformulator_->set_options(options_);
  }
  return reformulator_.get();
}

QueryPipeline Pdms::Pipeline() {
  ReformulationOptions base = options_;
  base.executor = Executor();
  return QueryPipeline(network_, std::move(base),
                       {trace_, metrics_, plan_cache_, goal_memo_});
}

Result<QueryPlan> Pdms::PlanQuery(const ConjunctiveQuery& query) {
  if (trace_ != nullptr) trace_->Clear();
  return Pipeline().Plan(query, GetReformulator(), nullptr);
}

AccessController Pdms::NewAccessController() {
  return AccessController(injector_.get(), retry_, deadline_,
                          [this](const std::string& relation) {
                            auto peer = network_.StoredRelationPeer(relation);
                            return peer.ok() ? *peer : std::string();
                          },
                          trace_, metrics_);
}

Result<ReformulationResult> Pdms::Reformulate(const ConjunctiveQuery& query) {
  PDMS_ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(query));
  return std::move(plan).ToResult();
}

Result<ReformulationResult> Pdms::Reformulate(std::string_view query_text) {
  PDMS_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseQuery(query_text));
  return Reformulate(query);
}

Result<Relation> Pdms::Answer(const ConjunctiveQuery& query) {
  PDMS_ASSIGN_OR_RETURN(AnswerResult result, AnswerWithReport(query));
  return std::move(result.answers);
}

Result<Relation> Pdms::Answer(std::string_view query_text) {
  PDMS_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseQuery(query_text));
  return Answer(query);
}

Result<AnswerResult> Pdms::AnswerWithReport(const ConjunctiveQuery& query) {
  AnswerResult out;
  out.answers = Relation(query.head().predicate(), query.head().arity());

  if (trace_ != nullptr) trace_->Clear();
  obs::ScopedSpan query_span(trace_, "query");
  query_span.Set("query", query.head().predicate());
  query_span.Set("mode", "local");

  // Step 1: reformulate with currently-unavailable sources pruned from
  // the rule-goal tree (recorded in the stats), via the plan cache when
  // one is attached. A cache hit skips reformulation entirely but still
  // evaluates below through the gated path.
  QueryPipeline pipeline = Pipeline();
  PDMS_ASSIGN_OR_RETURN(QueryPlan plan,
                        pipeline.Plan(query, GetReformulator(), &query_span));

  // Step 2: evaluate, mediating every stored-relation scan through the
  // fault layer (retries with backoff, deadline, per-query caching), and
  // assemble the degradation report.
  AccessController access = NewAccessController();
  StoredGate gate = [&](const std::string& relation) {
    return access.Access(relation);
  };
  PDMS_RETURN_IF_ERROR(pipeline.Evaluate(std::move(plan), engine(), data_,
                                         gate, access.stats(), &out));
  query_span.Set("answers", static_cast<uint64_t>(out.answers.size()));
  return out;
}

Result<AnswerResult> Pdms::AnswerWithReport(std::string_view query_text) {
  PDMS_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseQuery(query_text));
  return AnswerWithReport(query);
}

Result<Relation> Pdms::AnswerStreaming(
    const ConjunctiveQuery& query,
    const std::function<bool(const Tuple&)>& on_answer) {
  Relation answers(query.head().predicate(), query.head().arity());
  if (trace_ != nullptr) trace_->Clear();
  obs::ScopedSpan query_span(trace_, "query");
  query_span.Set("query", query.head().predicate());
  query_span.Set("mode", "streaming");
  AccessController access = NewAccessController();
  Status eval_error = Status::Ok();
  // One rewriting at a time through the vectorized engine. Gating clears
  // the body relations in body order and stops at the first veto; the
  // controller keeps one verdict per relation, so a repeat costs no probe
  // and the probe sequence (and every fault-injector draw) is a function
  // of the rewriting stream alone.
  auto eval_one = [&](const ConjunctiveQuery& rewriting) {
    for (const Atom& a : rewriting.body()) {
      Status s = access.Access(a.predicate());
      if (s.ok()) continue;
      // A rewriting over an unavailable source degrades the stream (its
      // answers are simply missing); other errors abort.
      if (s.code() == StatusCode::kUnavailable) return true;
      eval_error = s;
      return false;
    }
    obs::ScopedSpan join_span(trace_, "join");
    join_span.Set("atoms", static_cast<uint64_t>(rewriting.body().size()));
    auto part = engine()->EvaluateDisjunct(rewriting, data_);
    if (!part.ok()) {
      eval_error = part.status();
      return false;
    }
    join_span.Set("answers", static_cast<uint64_t>(part->size()));
    join_span.End();
    for (const Tuple& t : *part) {
      if (answers.Insert(t) && !on_answer(t)) return false;
    }
    return true;
  };
  QueryPipeline pipeline = Pipeline();
  Status reformulated = Status::Ok();
  if (auto hit = pipeline.Lookup(query, &query_span); hit != nullptr) {
    // Stream straight from the cached plan, disjunct by disjunct.
    for (const ConjunctiveQuery& rewriting : hit->rewriting.disjuncts()) {
      if (!eval_one(rewriting)) break;
    }
  } else {
    // A stopped stream leaves a partial plan, so the streaming miss path
    // never inserts; AnswerWithReport is the warming entry point.
    reformulated = GetReformulator()
                       ->ReformulateStreaming(query, pipeline.options(),
                                              eval_one)
                       .status();
  }
  PDMS_RETURN_IF_ERROR(eval_error);
  PDMS_RETURN_IF_ERROR(reformulated);
  query_span.Set("answers", static_cast<uint64_t>(answers.size()));
  return answers;
}

Result<Relation> Pdms::CertainAnswersOracle(const ConjunctiveQuery& query,
                                            const ChaseOptions& chase) {
  return CertainAnswers(network_, data_, query, chase);
}

Result<std::vector<ConjunctiveQuery>> Pdms::ExplainAnswer(
    const ConjunctiveQuery& query, const Tuple& answer) {
  if (answer.size() != query.head().arity()) {
    return Status::InvalidArgument(
        StrFormat("answer arity %zu does not match query head arity %zu",
                  answer.size(), query.head().arity()));
  }
  PDMS_ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(query));
  std::vector<ConjunctiveQuery> witnesses;
  for (const ConjunctiveQuery& rewriting : plan.rewriting().disjuncts()) {
    // Specialize the rewriting's head to the answer tuple; a unification
    // failure (mismatching head constant) means this rewriting can never
    // produce the tuple.
    Substitution pin;
    bool compatible = true;
    for (size_t i = 0; i < answer.size(); ++i) {
      if (!pin.UnifyTerms(rewriting.head().args()[i],
                          Term::Constant(answer[i]))) {
        compatible = false;
        break;
      }
    }
    if (!compatible) continue;
    ConjunctiveQuery specialized = pin.Apply(rewriting);
    PDMS_ASSIGN_OR_RETURN(std::vector<Tuple> out,
                          engine()->EvaluateDisjunct(specialized, data_));
    if (std::find(out.begin(), out.end(), answer) != out.end()) {
      witnesses.push_back(rewriting);
    }
  }
  return witnesses;
}

}  // namespace pdms
