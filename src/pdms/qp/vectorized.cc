#include "pdms/qp/vectorized.h"

#include <algorithm>
#include <utility>

#include "pdms/exec/parallel_for.h"
#include "pdms/util/check.h"
#include "pdms/util/strings.h"

namespace pdms {
namespace qp {
namespace {

constexpr uint64_t kKeySeed = 0xcbf29ce484222325ULL;

// The running join state: one code vector per slot bound so far (slots
// are canonical, so those are slots [0, width)), all `rows` long. Only the
// slots flagged in `bound` hold data: dead slots, which nothing downstream
// reads, keep whatever an earlier step left there. An Intermediate is a
// reusable buffer: Reshape keeps every column's capacity, so once a buffer
// has seen a step's row count, refilling it allocates nothing.
struct Intermediate {
  size_t rows = 0;
  size_t width = 0;
  std::vector<std::vector<Code>> slot_cols;  // at least `width` entries
  std::vector<char> bound;                   // `width` entries
};

// The unit intermediate — one row, no columns — so an empty (ground) body
// projects exactly one row; the first scan replaces it.
Intermediate UnitIntermediate() {
  Intermediate in;
  in.rows = 1;
  return in;
}

// Makes `out` a `width`-slot, `rows`-row intermediate with nothing bound.
void Reshape(size_t width, size_t rows, Intermediate* out) {
  out->rows = rows;
  out->width = width;
  if (out->slot_cols.size() < width) out->slot_cols.resize(width);
  out->bound.assign(width, 0);
}

// The number of slots bound once `step` has run over `in`.
size_t WidthAfter(const Intermediate& in, const PlannedStep& step) {
  size_t width = in.width;
  for (const auto& [col, slot] : step.scan.binds) {
    width = std::max(width, slot + 1);
  }
  return width;
}

// (intermediate row, scan row) matches of one join step, in probe order.
using MatchPairs = std::vector<std::pair<uint32_t, uint32_t>>;

// The caller-owned working memory of the step runner, reused from step to
// step: one set per serial run or per parallel task, never shared.
struct StepScratch {
  MatchPairs pairs;
  std::vector<uint32_t> rows;  // filtered scan rows, then surviving rows
  std::vector<uint64_t> hashes;
  FlatTable table;  // over the intermediate, or over a projection's rows
  std::vector<std::pair<size_t, Code>> const_eq;  // a scan's encoded filters
  JoinTable local;  // a scan-side join table the catalog does not hold
};

uint64_t ScanKeyHash(const ColumnarRelation& data,
                     const std::vector<size_t>& cols, uint32_t row) {
  uint64_t h = kKeySeed;
  for (size_t c : cols) h = HashCombine(h, CodeHash(data.cols[c][row]));
  return h;
}

uint64_t RowKeyHash(const Intermediate& in, const std::vector<size_t>& slots,
                    size_t row) {
  uint64_t h = kKeySeed;
  for (size_t s : slots) h = HashCombine(h, CodeHash(in.slot_cols[s][row]));
  return h;
}

bool KeysEqual(const Intermediate& in, size_t in_row,
               const std::vector<size_t>& slots, const ColumnarRelation& data,
               const std::vector<size_t>& cols, uint32_t scan_row) {
  for (size_t k = 0; k < slots.size(); ++k) {
    if (in.slot_cols[slots[k]][in_row] != data.cols[cols[k]][scan_row]) {
      return false;
    }
  }
  return true;
}

// Fills `out` with the rows of `data` that pass `scan`'s pushed-down
// filters, in row order; `const_eq` is scratch for the encoded constants.
void FilterScan(const PlannedScan& scan, const ColumnarRelation& data,
                const ColumnarCatalog& catalog,
                std::vector<std::pair<size_t, Code>>* const_eq,
                std::vector<uint32_t>* out) {
  out->clear();
  // Encode the pushed-down constants once; a constant the dictionary has
  // never seen matches nothing.
  const_eq->clear();
  for (const auto& [col, value] : scan.const_eq) {
    std::optional<Code> code = catalog.EncodeExisting(value);
    if (!code.has_value()) return;
    const_eq->emplace_back(col, *code);
  }
  if (const_eq->empty() && scan.dup_eq.empty()) {
    out->resize(data.rows);
    for (size_t row = 0; row < data.rows; ++row) {
      (*out)[row] = static_cast<uint32_t>(row);
    }
    return;
  }
  // Batch-at-a-time selection so the surviving-row vector grows in chunks
  // and each column stays hot while its batch is checked.
  for (size_t base = 0; base < data.rows; base += kBatchRows) {
    size_t end = std::min(data.rows, base + kBatchRows);
    for (size_t row = base; row < end; ++row) {
      bool ok = true;
      for (const auto& [col, code] : *const_eq) {
        if (data.cols[col][row] != code) {
          ok = false;
          break;
        }
      }
      for (size_t i = 0; ok && i < scan.dup_eq.size(); ++i) {
        const auto& [col, first] = scan.dup_eq[i];
        if (data.cols[col][row] != data.cols[first][row]) ok = false;
      }
      if (ok) out->push_back(static_cast<uint32_t>(row));
    }
  }
}

// Refills `table` as BuildJoinTable would build it, reusing its storage.
void FillJoinTable(const PlannedScan& scan, const std::vector<size_t>& key_cols,
                   const ColumnarRelation& data, const ColumnarCatalog& catalog,
                   StepScratch* scratch, JoinTable* table) {
  table->key_cols = key_cols;
  FilterScan(scan, data, catalog, &scratch->const_eq, &table->rows);
  scratch->hashes.resize(table->rows.size());
  for (size_t i = 0; i < table->rows.size(); ++i) {
    scratch->hashes[i] = ScanKeyHash(data, key_cols, table->rows[i]);
  }
  table->index.Build(scratch->hashes);
}

// Splits [0, n) into contiguous ranges sized for the pool; `probe` fills
// one MatchPairs per range, and the ranges are concatenated in order into
// `out`, so the result is byte-identical to a single serial probe.
template <typename ProbeRange>
void PartitionedProbe(exec::ThreadPool* pool, size_t n,
                      const ProbeRange& probe, MatchPairs* out) {
  out->clear();
  size_t chunks = 1;
  if (pool != nullptr && pool->workers() > 0 && n >= kParallelProbeThreshold) {
    chunks = std::min(pool->workers() + 1, n / (kParallelProbeThreshold / 2));
    chunks = std::max<size_t>(chunks, 1);
  }
  if (chunks == 1) {
    probe(0, n, out);
    return;
  }
  std::vector<MatchPairs> parts(chunks);
  size_t per = (n + chunks - 1) / chunks;
  exec::ParallelFor(pool, chunks, [&](size_t k) {
    size_t begin = k * per;
    size_t end = std::min(n, begin + per);
    if (begin < end) probe(begin, end, &parts[k]);
  });
  size_t total = 0;
  for (const MatchPairs& p : parts) total += p.size();
  out->reserve(total);
  for (const MatchPairs& p : parts) {
    out->insert(out->end(), p.begin(), p.end());
  }
}

// Whether a step's output intermediate must carry `slot` (empty mask =
// keep everything, the conservative legacy-plan shape).
bool LiveAfter(const PlannedStep& step, size_t slot) {
  return step.live_after.empty() || step.live_after[slot] != 0;
}

// Gathers the next intermediate into `next` from the match pairs: bound
// slots come from the previous intermediate (left row), newly bound
// columns from the scan (right row). Slots nothing downstream reads are
// dropped, so deep pipelines move only the live columns.
void GatherJoin(const Intermediate& prev, const MatchPairs& pairs,
                const PlannedStep& step, const ColumnarRelation& data,
                Intermediate* next) {
  Reshape(WidthAfter(prev, step), pairs.size(), next);
  for (size_t s = 0; s < prev.width; ++s) {
    if (!prev.bound[s] || !LiveAfter(step, s)) continue;
    next->bound[s] = 1;
    std::vector<Code>& col = next->slot_cols[s];
    col.resize(pairs.size());
    const std::vector<Code>& src = prev.slot_cols[s];
    for (size_t i = 0; i < pairs.size(); ++i) col[i] = src[pairs[i].first];
  }
  for (const auto& [scan_col, slot] : step.scan.binds) {
    if (!LiveAfter(step, slot)) continue;
    std::vector<Code>& col = next->slot_cols[slot];
    col.resize(pairs.size());
    const CodeColumn& src = data.cols[scan_col];
    for (size_t i = 0; i < pairs.size(); ++i) col[i] = src[pairs[i].second];
    next->bound[slot] = 1;
  }
}

// Applies the comparisons attached to a step, compacting the intermediate
// in place (`keep` is scratch). Decoding is per surviving row;
// integer-only comparisons never touch the dictionary (Decode copies the
// string for string codes).
void ApplyComparisons(const PlannedStep& step, const ColumnarCatalog& catalog,
                      std::vector<uint32_t>* keep, Intermediate* in) {
  if (step.comparisons.empty() || in->rows == 0) return;
  keep->clear();
  for (size_t row = 0; row < in->rows; ++row) {
    bool ok = true;
    for (const PlanComparison& c : step.comparisons) {
      Value lhs = c.lhs.is_const ? c.lhs.value
                                 : catalog.Decode(in->slot_cols[c.lhs.slot][row]);
      Value rhs = c.rhs.is_const ? c.rhs.value
                                 : catalog.Decode(in->slot_cols[c.rhs.slot][row]);
      if (!EvalCmp(c.op, lhs, rhs)) {
        ok = false;
        break;
      }
    }
    if (ok) keep->push_back(static_cast<uint32_t>(row));
  }
  if (keep->size() == in->rows) return;
  // `keep` ascends, so compacting front to back never overwrites a row
  // that is still to be read.
  for (size_t s = 0; s < in->width; ++s) {
    if (!in->bound[s]) continue;
    std::vector<Code>& col = in->slot_cols[s];
    for (size_t i = 0; i < keep->size(); ++i) col[i] = col[(*keep)[i]];
    col.resize(keep->size());
  }
  in->rows = keep->size();
}

}  // namespace

std::vector<uint32_t> RunScanFilter(const PlannedScan& scan,
                                    const ColumnarRelation& data,
                                    const ColumnarCatalog& catalog) {
  std::vector<std::pair<size_t, Code>> const_eq;
  std::vector<uint32_t> out;
  FilterScan(scan, data, catalog, &const_eq, &out);
  return out;
}

JoinTable BuildJoinTable(const PlannedScan& scan,
                         const std::vector<size_t>& key_cols,
                         const ColumnarRelation& data,
                         const ColumnarCatalog& catalog) {
  StepScratch scratch;
  JoinTable table;
  FillJoinTable(scan, key_cols, data, catalog, &scratch, &table);
  return table;
}

namespace {

// Runs one planned step over `in` into `out` (a different buffer): the
// first step scans, every later one hash-joins `in` with the filtered
// scan (or crosses it when unkeyed), and the step's comparisons then
// filter the result. `data` is null when the database lacks the relation
// at the step's arity, which yields no rows; `table` is the catalog's join
// table for a keyed step, or null to build one locally. Both buffers and
// `scratch` keep their capacity, so a warm step allocates nothing. This
// is the one step runner of both execution shapes.
void RunStep(const PlannedStep& step, bool first, const Intermediate& in,
             const ColumnarRelation* data, const JoinTable* table,
             const ColumnarCatalog& catalog, exec::ThreadPool* pool,
             StepScratch* scratch, Intermediate* out) {
  if (data == nullptr) {
    Reshape(0, 0, out);
    return;
  }
  if (first) {
    const std::vector<uint32_t>& rows = scratch->rows;
    FilterScan(step.scan, *data, catalog, &scratch->const_eq, &scratch->rows);
    Reshape(WidthAfter(in, step), rows.size(), out);
    for (const auto& [scan_col, slot] : step.scan.binds) {
      if (!LiveAfter(step, slot)) continue;
      std::vector<Code>& col = out->slot_cols[slot];
      col.resize(rows.size());
      const CodeColumn& src = data->cols[scan_col];
      for (size_t i = 0; i < rows.size(); ++i) col[i] = src[rows[i]];
      out->bound[slot] = 1;
    }
  } else if (step.key_cols.empty()) {
    // Cross product, intermediate-major: deterministic and rare (only
    // disconnected bodies reach here).
    const std::vector<uint32_t>& rows = scratch->rows;
    FilterScan(step.scan, *data, catalog, &scratch->const_eq, &scratch->rows);
    MatchPairs& pairs = scratch->pairs;
    pairs.clear();
    pairs.reserve(in.rows * rows.size());
    for (size_t i = 0; i < in.rows; ++i) {
      for (uint32_t r : rows) {
        pairs.emplace_back(static_cast<uint32_t>(i), r);
      }
    }
    GatherJoin(in, pairs, step, *data, out);
  } else if (step.build_on_atom) {
    // Build (or reuse the cached) hash table over the filtered scan,
    // probe the intermediate in row order.
    if (table == nullptr) {
      FillJoinTable(step.scan, step.key_cols, *data, catalog, scratch,
                    &scratch->local);
      table = &scratch->local;
    }
    PartitionedProbe(
        pool, in.rows,
        [&](size_t begin, size_t end, MatchPairs* dst) {
          for (size_t i = begin; i < end; ++i) {
            uint64_t h = RowKeyHash(in, step.key_slots, i);
            for (int32_t e = table->index.Head(h); e >= 0;
                 e = table->index.Next(e)) {
              uint32_t r = table->rows[static_cast<size_t>(e)];
              if (KeysEqual(in, i, step.key_slots, *data, step.key_cols, r)) {
                dst->emplace_back(static_cast<uint32_t>(i), r);
              }
            }
          }
        },
        &scratch->pairs);
    GatherJoin(in, scratch->pairs, step, *data, out);
  } else {
    // Build over the (smaller) intermediate, probe the filtered scan in
    // row order.
    if (table == nullptr) {
      FilterScan(step.scan, *data, catalog, &scratch->const_eq,
                 &scratch->rows);
    }
    const std::vector<uint32_t>& rows =
        table != nullptr ? table->rows : scratch->rows;
    scratch->hashes.resize(in.rows);
    for (size_t i = 0; i < in.rows; ++i) {
      scratch->hashes[i] = RowKeyHash(in, step.key_slots, i);
    }
    const FlatTable& built = scratch->table;
    scratch->table.Build(scratch->hashes);
    PartitionedProbe(
        pool, rows.size(),
        [&](size_t begin, size_t end, MatchPairs* dst) {
          for (size_t k = begin; k < end; ++k) {
            uint32_t r = rows[k];
            uint64_t h = ScanKeyHash(*data, step.key_cols, r);
            for (int32_t e = built.Head(h); e >= 0; e = built.Next(e)) {
              uint32_t i = static_cast<uint32_t>(e);
              if (KeysEqual(in, i, step.key_slots, *data, step.key_cols, r)) {
                dst->emplace_back(i, r);
              }
            }
          }
        },
        &scratch->pairs);
    GatherJoin(in, scratch->pairs, step, *data, out);
  }
  ApplyComparisons(step, catalog, &scratch->rows, out);
}

// Projects `in` onto `head` and deduplicates in probe order. Two rows
// project to the same tuple iff their head-slot codes agree (codes from
// one dictionary are injective), so dedup runs entirely on codes — a row
// is a duplicate when an earlier row in its hash chain (chains ascend)
// agrees with it — and only the distinct rows pay the decode back to
// Values.
std::vector<Tuple> Project(const std::vector<PlanTerm>& head,
                           const Intermediate& in,
                           const ColumnarCatalog& catalog,
                           StepScratch* scratch) {
  auto same_head = [&](size_t a, size_t b) {
    for (const PlanTerm& h : head) {
      if (!h.is_const && in.slot_cols[h.slot][a] != in.slot_cols[h.slot][b]) {
        return false;
      }
    }
    return true;
  };
  std::vector<uint64_t>& hashes = scratch->hashes;
  hashes.resize(in.rows);
  for (size_t row = 0; row < in.rows; ++row) {
    uint64_t hash = kKeySeed;
    for (const PlanTerm& h : head) {
      if (!h.is_const) {
        hash = HashCombine(hash, CodeHash(in.slot_cols[h.slot][row]));
      }
    }
    hashes[row] = hash;
  }
  scratch->table.Build(hashes);
  std::vector<uint32_t>& distinct = scratch->rows;
  distinct.clear();
  for (size_t row = 0; row < in.rows; ++row) {
    bool dup = false;
    for (int32_t e = scratch->table.Head(hashes[row]);
         e >= 0 && static_cast<size_t>(e) < row; e = scratch->table.Next(e)) {
      if (same_head(static_cast<size_t>(e), row)) {
        dup = true;
        break;
      }
    }
    if (!dup) distinct.push_back(static_cast<uint32_t>(row));
  }
  std::vector<Tuple> out;
  out.reserve(distinct.size());
  for (uint32_t row : distinct) {
    Tuple tuple;
    tuple.reserve(head.size());
    for (const PlanTerm& h : head) {
      tuple.push_back(h.is_const ? h.value
                                 : catalog.Decode(in.slot_cols[h.slot][row]));
    }
    out.push_back(std::move(tuple));
  }
  return out;
}

// The columnar twin of `relation` when the database holds it; null when it
// does not, so every scan of it yields nothing.
const ColumnarRelation* ResolveRelation(const std::string& relation,
                                        const Database& db,
                                        const ColumnarCatalog& catalog) {
  if (db.Find(relation) == nullptr) return nullptr;
  const ColumnarRelation* data = catalog.Find(relation);
  PDMS_CHECK_MSG(data != nullptr, "relation not ensured in catalog");
  return data;
}

// A step's input data, or null when the relation is absent or has another
// arity than the step's atom.
const ColumnarRelation* StepData(const PlannedStep& step,
                                 const ColumnarRelation* data) {
  return data != nullptr && data->arity == step.scan.arity ? data : nullptr;
}

// Depth-first execution of a UnionPlan's trie (see ExecuteUnion).
class TrieRunner {
 public:
  TrieRunner(const UnionPlan& plan, const std::vector<char>& disjuncts,
             const std::vector<char>& paths,
             const std::vector<const JoinTable*>& tables,
             std::vector<const ColumnarRelation*> relations,
             const ColumnarCatalog& catalog, exec::ThreadPool* pool,
             std::vector<std::vector<Tuple>>* shards)
      : plan_(plan),
        disjuncts_(disjuncts),
        paths_(paths),
        tables_(tables),
        relations_(std::move(relations)),
        catalog_(catalog),
        pool_(pool),
        shards_(shards) {}

  size_t Run() {
    const Intermediate unit = UnitIntermediate();
    Workspace ws(plan_.depth);
    ProjectLeaves(0, unit, &ws.scratch);
    std::vector<uint32_t> subtrees;
    for (uint32_t child : plan_.nodes[0].children) {
      if (paths_[child]) subtrees.push_back(child);
    }
    std::vector<size_t> steps(subtrees.size(), 0);
    if (pool_ == nullptr || pool_->workers() == 0) {
      for (size_t k = 0; k < subtrees.size(); ++k) {
        steps[k] = RunChild(subtrees[k], 0, unit, &ws);
      }
    } else {
      // Whole subtrees of the root fan out; each task owns its buffers,
      // counts its own steps and writes only the shards of the disjuncts
      // below it.
      exec::ParallelFor(pool_, subtrees.size(), [&](size_t k) {
        Workspace own(plan_.depth);
        steps[k] = RunChild(subtrees[k], 0, unit, &own);
      });
    }
    size_t total = 0;
    for (size_t n : steps) total += n;
    return total;
  }

 private:
  // One execution's buffers: the intermediate of each trie depth (sized
  // up front, so recursion never moves a parent's buffer) and the step
  // runner's scratch.
  struct Workspace {
    explicit Workspace(size_t depth) : levels(depth) {}
    std::vector<Intermediate> levels;
    StepScratch scratch;
  };

  // Runs `node`'s step, `depth` steps below the root, over its parent's
  // intermediate `in` into the depth's buffer, then the subtree below it
  // unless the result is empty; returns the steps run.
  size_t RunChild(uint32_t node, size_t depth, const Intermediate& in,
                  Workspace* ws) {
    const PlanNode& n = plan_.nodes[node];
    const JoinTable* table =
        n.join_table >= 0 ? tables_[n.join_table] : nullptr;
    Intermediate& out = ws->levels[depth];
    RunStep(n.step, n.parent == 0, in, StepData(n.step, relations_[n.relation]),
            table, catalog_, pool_, &ws->scratch, &out);
    size_t steps = 1;
    if (out.rows == 0) return steps;  // prunes every disjunct below
    ProjectLeaves(node, out, &ws->scratch);
    for (uint32_t child : n.children) {
      if (paths_[child]) steps += RunChild(child, depth + 1, out, ws);
    }
    return steps;
  }

  void ProjectLeaves(uint32_t node, const Intermediate& in,
                     StepScratch* scratch) {
    for (uint32_t d : plan_.nodes[node].leaves) {
      if (disjuncts_[d]) {
        (*shards_)[d] = Project(plan_.disjuncts[d].head, in, catalog_, scratch);
      }
    }
  }

  const UnionPlan& plan_;
  const std::vector<char>& disjuncts_;
  const std::vector<char>& paths_;
  const std::vector<const JoinTable*>& tables_;
  const std::vector<const ColumnarRelation*> relations_;
  const ColumnarCatalog& catalog_;
  exec::ThreadPool* pool_;
  std::vector<std::vector<Tuple>>* shards_;
};

}  // namespace

Result<std::vector<Tuple>> ExecuteDisjunct(const DisjunctPlan& plan,
                                           const Database& db,
                                           const ColumnarCatalog& catalog,
                                           exec::ThreadPool* pool,
                                           StepActuals* actuals) {
  auto bail = [&]() -> std::vector<Tuple> {
    // Record zero cardinality for the remaining steps so explain output
    // stays aligned with the plan.
    if (actuals != nullptr) {
      while (actuals->size() < plan.steps.size() + 1) actuals->push_back(0);
    }
    return {};
  };
  for (const PlanComparison& c : plan.const_comparisons) {
    if (!EvalCmp(c.op, c.lhs.value, c.rhs.value)) return bail();
  }

  // Each step reads one buffer and fills the other.
  const Intermediate unit = UnitIntermediate();
  Intermediate buffers[2];
  StepScratch scratch;
  const Intermediate* in = &unit;
  for (size_t si = 0; si < plan.steps.size(); ++si) {
    const PlannedStep& step = plan.steps[si];
    const ColumnarRelation* data =
        StepData(step, ResolveRelation(step.scan.relation, db, catalog));
    const JoinTable* table =
        step.key_cols.empty()
            ? nullptr
            : catalog.FindJoinTable(step.scan.relation, step.scan.signature);
    Intermediate* out = &buffers[si % 2];
    RunStep(step, si == 0, *in, data, table, catalog, pool, &scratch, out);
    in = out;
    if (actuals != nullptr) actuals->push_back(in->rows);
    if (in->rows == 0) return bail();
  }
  std::vector<Tuple> out = Project(plan.head, *in, catalog, &scratch);
  if (actuals != nullptr) actuals->push_back(out.size());
  return out;
}

size_t ExecuteUnion(const UnionPlan& plan, const std::vector<char>& disjuncts,
                    const std::vector<char>& paths,
                    const std::vector<const JoinTable*>& tables,
                    const Database& db, const ColumnarCatalog& catalog,
                    exec::ThreadPool* pool,
                    std::vector<std::vector<Tuple>>* shards) {
  std::vector<const ColumnarRelation*> relations;
  relations.reserve(plan.relations.size());
  for (const std::string& r : plan.relations) {
    relations.push_back(ResolveRelation(r, db, catalog));
  }
  return TrieRunner(plan, disjuncts, paths, tables, std::move(relations),
                    catalog, pool, shards)
      .Run();
}

}  // namespace qp
}  // namespace pdms
