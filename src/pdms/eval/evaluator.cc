#include "pdms/eval/evaluator.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

#include "pdms/util/check.h"
#include "pdms/util/strings.h"

namespace pdms {

namespace {

// Lazily-built hash indexes: (relation instance, column) -> value hash ->
// row ids. Built the first time a join probes that column with a bound
// value, then reused for every subsequent probe in the same evaluation.
// Keyed by the Relation's address (stable for the lifetime of one
// evaluation over a const Database), so a probe costs one pointer-sized
// hash instead of a string compare.
class IndexCache {
 public:
  // Row indices of `rel` whose column `col` may equal `value` (hash
  // bucket; the caller re-checks equality while matching the full atom).
  // Returns nullptr when the bucket is empty.
  const std::vector<size_t>* Probe(const Relation& rel, size_t col,
                                   const Value& value) {
    IndexKey key{&rel, col};
    auto it = indexes_.find(key);
    if (it == indexes_.end()) {
      ColumnIndex index;
      const std::vector<Tuple>& tuples = rel.tuples();
      for (size_t row = 0; row < tuples.size(); ++row) {
        index[tuples[row][col].Hash()].push_back(row);
      }
      it = indexes_.emplace(key, std::move(index)).first;
    }
    auto bucket = it->second.find(value.Hash());
    return bucket == it->second.end() ? nullptr : &bucket->second;
  }

 private:
  struct IndexKey {
    const Relation* rel;
    size_t col;
    bool operator==(const IndexKey& o) const {
      return rel == o.rel && col == o.col;
    }
  };
  struct IndexKeyHash {
    size_t operator()(const IndexKey& k) const {
      return std::hash<const void*>()(k.rel) * 1000003u + k.col;
    }
  };
  using ColumnIndex = std::unordered_map<uint64_t, std::vector<size_t>>;
  std::unordered_map<IndexKey, ColumnIndex, IndexKeyHash> indexes_;
};

// --- Slot-compiled backtracking join ---
//
// Variables are compiled to integer slots once per query; the inner
// matching loop then works on a flat `const Value*` slot array (null =
// unbound, otherwise a pointer into the stored tuples) — no string-keyed
// map lookups and no per-tuple heap allocation. The search itself is the
// same algorithm as the original BindingMap engine, candidate for
// candidate: greedy most-bound atom selection, hash-index probes past
// kIndexThreshold rows, comparisons applied the moment they become
// ground. Enumeration order is identical, so answer insertion order (and
// hence Relation::ToString) is unchanged.

// A compiled term: an inline constant or a slot index.
struct SlotTerm {
  bool is_const = false;
  Value value;      // when is_const
  size_t slot = 0;  // when !is_const
};

struct SlotAtom {
  const Relation* rel = nullptr;  // null / arity mismatch: no candidates
  size_t arity = 0;
  std::vector<SlotTerm> args;
};

struct SlotComparison {
  CmpOp op;
  SlotTerm lhs, rhs;
};

class SlotProgram {
 public:
  SlotProgram(const std::vector<Atom>& body,
              const std::vector<Comparison>& comparisons, const Database& db) {
    atoms_.reserve(body.size());
    for (const Atom& a : body) {
      SlotAtom sa;
      const Relation* rel = db.Find(a.predicate());
      sa.rel = (rel != nullptr && rel->arity() == a.arity()) ? rel : nullptr;
      sa.arity = a.arity();
      sa.args.reserve(a.args().size());
      for (const Term& t : a.args()) sa.args.push_back(Compile(t));
      atoms_.push_back(std::move(sa));
    }
    comparisons_.reserve(comparisons.size());
    for (const Comparison& c : comparisons) {
      comparisons_.push_back({c.op, Compile(c.lhs), Compile(c.rhs)});
    }
    slots_.assign(slot_of_.size(), nullptr);
    used_.assign(atoms_.size(), false);
    done_.assign(comparisons_.size(), false);
    // Per-depth undo scratch, allocated once here so the per-candidate
    // inner loop never touches the heap.
    size_t max_arity = 0;
    for (const SlotAtom& sa : atoms_) max_arity = std::max(max_arity, sa.arity);
    bound_scratch_.resize(atoms_.size());
    checked_scratch_.resize(atoms_.size());
    for (size_t d = 0; d < atoms_.size(); ++d) {
      bound_scratch_[d].reserve(max_arity);
      checked_scratch_[d].reserve(comparisons_.size());
    }
  }

  /// The slot for `var`, or SIZE_MAX when the variable occurs nowhere in
  /// the compiled body/comparisons.
  size_t SlotOf(const std::string& var) const {
    auto it = slot_of_.find(var);
    return it == slot_of_.end() ? SIZE_MAX : it->second;
  }

  /// Variable name per slot, in slot order.
  const std::vector<std::string>& slot_names() const { return slot_names_; }

  /// The current value of a slot (valid inside the match callback).
  const Value& slot(size_t s) const { return *slots_[s]; }

  /// Null when the slot is unbound (a variable that occurs only in
  /// never-ground comparisons stays unbound through a full match).
  const Value* slot_or_null(size_t s) const { return slots_[s]; }

  /// Runs the join; `on_match` fires once per satisfying assignment (all
  /// body slots bound) and returns false to stop the enumeration.
  void Run(IndexCache* indexes, const std::function<bool()>& on_match) {
    indexes_ = indexes;
    on_match_ = &on_match;
    stopped_ = false;
    Search(atoms_.size(), 0);
  }

 private:
  SlotTerm Compile(const Term& t) {
    SlotTerm out;
    if (t.is_constant()) {
      out.is_const = true;
      out.value = t.value();
      return out;
    }
    auto [it, inserted] = slot_of_.emplace(t.var_name(), slot_of_.size());
    if (inserted) slot_names_.push_back(t.var_name());
    out.slot = it->second;
    return out;
  }

  const Value* Resolve(const SlotTerm& t) const {
    return t.is_const ? &t.value : slots_[t.slot];
  }

  size_t BoundCount(const SlotAtom& a) const {
    size_t bound = 0;
    for (const SlotTerm& t : a.args) {
      if (t.is_const || slots_[t.slot] != nullptr) ++bound;
    }
    return bound;
  }

  // Recursive backtracking over the remaining atoms; `depth` indexes the
  // preallocated undo scratch.
  void Search(size_t remaining, size_t depth) {
    if (remaining == 0) {
      if (!(*on_match_)()) stopped_ = true;
      return;
    }
    // Pick the unused atom with the most bound positions (fewest free
    // variables); ties keep the first, matching the original engine.
    size_t best = atoms_.size();
    size_t best_bound = 0;
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (used_[i]) continue;
      size_t b = BoundCount(atoms_[i]);
      if (best == atoms_.size() || b > best_bound) {
        best = i;
        best_bound = b;
      }
    }
    PDMS_DCHECK(best < atoms_.size());
    used_[best] = true;
    const SlotAtom& atom = atoms_[best];
    const Relation* rel = atom.rel;
    if (rel != nullptr) {
      // Candidate rows: probe a hash index on the first ground position
      // if one exists; otherwise scan the whole relation. Building an
      // index only pays off past a few dozen tuples — below that (e.g.
      // the delta relations of semi-naive datalog) a scan is cheaper.
      constexpr size_t kIndexThreshold = 32;
      const std::vector<size_t>* candidates = nullptr;
      bool indexed = false;
      for (size_t i = 0;
           rel->size() >= kIndexThreshold && i < atom.arity && !indexed;
           ++i) {
        const Value* v = Resolve(atom.args[i]);
        if (v != nullptr) {
          candidates = indexes_->Probe(*rel, i, *v);
          indexed = true;
        }
      }
      size_t limit = indexed
                         ? (candidates == nullptr ? 0 : candidates->size())
                         : rel->size();
      std::vector<size_t>& bound_here = bound_scratch_[depth];
      std::vector<size_t>& checked_here = checked_scratch_[depth];
      for (size_t c = 0; c < limit; ++c) {
        const Tuple& tuple =
            indexed ? rel->tuples()[(*candidates)[c]] : rel->tuples()[c];
        bound_here.clear();
        bool ok = true;
        for (size_t i = 0; i < atom.arity; ++i) {
          const SlotTerm& t = atom.args[i];
          if (t.is_const) {
            if (t.value != tuple[i]) {
              ok = false;
              break;
            }
            continue;
          }
          const Value* bound = slots_[t.slot];
          if (bound != nullptr) {
            if (*bound != tuple[i]) {
              ok = false;
              break;
            }
          } else {
            slots_[t.slot] = &tuple[i];
            bound_here.push_back(t.slot);
          }
        }
        if (ok) {
          // Check any comparison that just became ground.
          checked_here.clear();
          for (size_t ci = 0; ok && ci < comparisons_.size(); ++ci) {
            if (done_[ci]) continue;
            const SlotComparison& cmp = comparisons_[ci];
            const Value* lhs = Resolve(cmp.lhs);
            const Value* rhs = Resolve(cmp.rhs);
            if (lhs == nullptr || rhs == nullptr) continue;
            if (!EvalCmp(cmp.op, *lhs, *rhs)) {
              ok = false;
            } else {
              done_[ci] = true;
              checked_here.push_back(ci);
            }
          }
          if (ok) Search(remaining - 1, depth + 1);
          for (size_t ci : checked_here) done_[ci] = false;
        }
        for (size_t s : bound_here) slots_[s] = nullptr;
        if (stopped_) break;
      }
    }
    used_[best] = false;
  }

  std::unordered_map<std::string, size_t> slot_of_;
  std::vector<std::string> slot_names_;
  std::vector<SlotAtom> atoms_;
  std::vector<SlotComparison> comparisons_;
  std::vector<const Value*> slots_;
  std::vector<bool> used_;
  std::vector<bool> done_;
  std::vector<std::vector<size_t>> bound_scratch_;
  std::vector<std::vector<size_t>> checked_scratch_;
  IndexCache* indexes_ = nullptr;
  const std::function<bool()>* on_match_ = nullptr;
  bool stopped_ = false;
};

// The empty-body case shared by ForEachMatch and EvaluateCQ: the single
// empty match if all (necessarily ground) comparisons hold.
Status MatchEmptyBody(const std::vector<Comparison>& comparisons,
                      const std::function<bool()>& on_match) {
  for (const Comparison& c : comparisons) {
    Value lhs, rhs;
    if (c.lhs.is_constant()) {
      lhs = c.lhs.value();
    } else {
      return Status::InvalidArgument(
          "comparison over unbound variable in empty body: " + c.ToString());
    }
    if (c.rhs.is_constant()) {
      rhs = c.rhs.value();
    } else {
      return Status::InvalidArgument(
          "comparison over unbound variable in empty body: " + c.ToString());
    }
    if (!EvalCmp(c.op, lhs, rhs)) return Status::Ok();
  }
  on_match();
  return Status::Ok();
}

}  // namespace

Status ForEachMatch(const std::vector<Atom>& body,
                    const std::vector<Comparison>& comparisons,
                    const Database& db,
                    const std::function<bool(const BindingMap&)>& callback) {
  if (body.empty()) {
    BindingMap empty;
    return MatchEmptyBody(comparisons, [&] {
      callback(empty);
      return true;
    });
  }
  SlotProgram program(body, comparisons, db);
  IndexCache indexes;
  // Compatibility wrapper: materialize the name -> value map per match.
  // Slot-native callers (EvaluateCQ) read the slots directly instead.
  const std::vector<std::string>& names = program.slot_names();
  program.Run(&indexes, [&] {
    BindingMap binding;
    binding.reserve(names.size());
    for (size_t s = 0; s < names.size(); ++s) {
      const Value* v = program.slot_or_null(s);
      if (v != nullptr) binding.emplace(names[s], *v);
    }
    return callback(binding);
  });
  return Status::Ok();
}

Result<Relation> EvaluateCQ(const ConjunctiveQuery& cq, const Database& db) {
  PDMS_RETURN_IF_ERROR(cq.CheckSafe());
  Relation out(cq.head().predicate(), cq.head().arity());
  if (cq.body().empty()) {
    PDMS_RETURN_IF_ERROR(MatchEmptyBody(cq.comparisons(), [&] {
      Tuple tuple;
      tuple.reserve(cq.head().arity());
      for (const Term& t : cq.head().args()) {
        PDMS_CHECK_MSG(t.is_constant(), "unsafe head variable");
        tuple.push_back(t.value());
      }
      out.Insert(std::move(tuple));
      return true;
    }));
    return out;
  }
  SlotProgram program(cq.body(), cq.comparisons(), db);
  // Precompile the head projection to slots, so each match copies values
  // straight from the stored tuples into the output row.
  struct HeadTerm {
    bool is_const;
    Value value;
    size_t slot;
  };
  std::vector<HeadTerm> head;
  head.reserve(cq.head().arity());
  for (const Term& t : cq.head().args()) {
    if (t.is_constant()) {
      head.push_back({true, t.value(), 0});
    } else {
      size_t slot = program.SlotOf(t.var_name());
      PDMS_CHECK_MSG(slot != SIZE_MAX, "unsafe head variable");
      head.push_back({false, Value(), slot});
    }
  }
  IndexCache indexes;
  program.Run(&indexes, [&] {
    Tuple tuple;
    tuple.reserve(head.size());
    for (const HeadTerm& h : head) {
      tuple.push_back(h.is_const ? h.value : program.slot(h.slot));
    }
    out.Insert(std::move(tuple));
    return true;
  });
  return out;
}

Result<Relation> EvaluateUnion(const UnionQuery& uq, const Database& db) {
  if (uq.empty()) return Relation("result", 0);
  Relation out(uq.disjuncts()[0].head().predicate(),
               uq.disjuncts()[0].head().arity());
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    if (cq.head().arity() != out.arity()) {
      return Status::InvalidArgument(StrFormat(
          "union disjuncts disagree on arity (%zu vs %zu)", out.arity(),
          cq.head().arity()));
    }
    PDMS_ASSIGN_OR_RETURN(Relation part, EvaluateCQ(cq, db));
    out.MergeFrom(std::move(part));
  }
  return out;
}

Result<DegradedEvalResult> EvaluateUnionDegraded(const UnionQuery& uq,
                                                 const Database& db,
                                                 const StoredGate& gate,
                                                 obs::TraceContext* trace,
                                                 obs::MetricsRegistry* metrics) {
  DegradedEvalResult out;
  if (uq.empty()) return out;
  out.answers = Relation(uq.disjuncts()[0].head().predicate(),
                         uq.disjuncts()[0].head().arity());
  std::set<std::string> unavailable;
  size_t index = 0;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    if (cq.head().arity() != out.answers.arity()) {
      return Status::InvalidArgument(
          StrFormat("union disjuncts disagree on arity (%zu vs %zu)",
                    out.answers.arity(), cq.head().arity()));
    }
    obs::ScopedSpan cq_span(trace, "eval_cq");
    cq_span.Set("disjunct", static_cast<uint64_t>(index++));
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
      continue;
    }
    obs::ScopedSpan join_span(trace, "join");
    PDMS_ASSIGN_OR_RETURN(Relation part, EvaluateCQ(cq, db));
    join_span.Set("answers", static_cast<uint64_t>(part.size()));
    join_span.End();
    cq_span.Set("answers", static_cast<uint64_t>(part.size()));
    out.answers.MergeFrom(std::move(part));
  }

  out.unavailable_relations.assign(unavailable.begin(), unavailable.end());
  if (metrics != nullptr) {
    metrics->Add("eval.disjuncts", uq.size());
    metrics->Add("eval.disjuncts_skipped", out.disjuncts_skipped);
    metrics->Add("eval.answers", out.answers.size());
  }
  return out;
}

Relation DropNullTuples(const Relation& rel) {
  Relation out(rel.name(), rel.arity());
  for (const Tuple& t : rel.tuples()) {
    if (!TupleHasNull(t)) out.Insert(t);
  }
  return out;
}

}  // namespace pdms
