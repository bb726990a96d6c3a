#include "pdms/qp/vectorized.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "pdms/exec/parallel_for.h"
#include "pdms/util/check.h"
#include "pdms/util/strings.h"

namespace pdms {
namespace qp {
namespace {

constexpr uint64_t kKeySeed = 0xcbf29ce484222325ULL;

// The running join state: one code vector per bound slot, all the same
// length. Unbound slots have empty vectors.
struct Intermediate {
  size_t rows = 0;
  std::vector<std::vector<Code>> slot_cols;
  std::vector<char> bound;
};

// (intermediate row, scan row) matches of one join step, in probe order.
using MatchPairs = std::vector<std::pair<uint32_t, uint32_t>>;

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

// Splits [0, n) into contiguous ranges sized for the pool; `probe` fills
// one MatchPairs per range, and the ranges are concatenated in order, so
// the result is byte-identical to a single serial probe.
template <typename ProbeRange>
MatchPairs PartitionedProbe(exec::ThreadPool* pool, size_t n,
                            const ProbeRange& probe) {
  size_t chunks = 1;
  if (pool != nullptr && pool->workers() > 0 && n >= kParallelProbeThreshold) {
    chunks = std::min(pool->workers() + 1, n / (kParallelProbeThreshold / 2));
    chunks = std::max<size_t>(chunks, 1);
  }
  if (chunks == 1) {
    MatchPairs out;
    probe(0, n, &out);
    return out;
  }
  std::vector<MatchPairs> parts(chunks);
  size_t per = (n + chunks - 1) / chunks;
  exec::ParallelFor(pool, chunks, [&](size_t k) {
    size_t begin = k * per;
    size_t end = std::min(n, begin + per);
    if (begin < end) probe(begin, end, &parts[k]);
  });
  MatchPairs out;
  size_t total = 0;
  for (const MatchPairs& p : parts) total += p.size();
  out.reserve(total);
  for (MatchPairs& p : parts) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

// Whether a step's output intermediate must carry `slot` (empty mask =
// keep everything, the conservative legacy-plan shape).
bool LiveAfter(const PlannedStep& step, size_t slot) {
  return step.live_after.empty() || step.live_after[slot] != 0;
}

// Gathers the next intermediate from the match pairs: bound slots come
// from the previous intermediate (left row), newly bound columns from the
// scan (right row). Slots nothing downstream reads are dropped, so deep
// pipelines move only the live columns.
Intermediate GatherJoin(const Intermediate& prev, const MatchPairs& pairs,
                        const PlannedStep& step, const ColumnarRelation& data,
                        size_t num_slots) {
  Intermediate next;
  next.rows = pairs.size();
  next.bound.assign(num_slots, 0);
  next.slot_cols.assign(num_slots, {});
  for (size_t s = 0; s < num_slots; ++s) {
    if (!prev.bound[s] || !LiveAfter(step, s)) continue;
    next.bound[s] = 1;
    std::vector<Code>& col = next.slot_cols[s];
    col.resize(pairs.size());
    const std::vector<Code>& src = prev.slot_cols[s];
    for (size_t i = 0; i < pairs.size(); ++i) col[i] = src[pairs[i].first];
  }
  for (const auto& [scan_col, slot] : step.scan.binds) {
    if (!LiveAfter(step, slot)) continue;
    std::vector<Code>& col = next.slot_cols[slot];
    col.resize(pairs.size());
    const CodeColumn& src = data.cols[scan_col];
    for (size_t i = 0; i < pairs.size(); ++i) col[i] = src[pairs[i].second];
    next.bound[slot] = 1;
  }
  return next;
}

// Applies the comparisons attached to a step, compacting the intermediate
// in place. Decoding is per surviving row; integer-only comparisons never
// touch the dictionary (Decode copies the string for string codes).
void ApplyComparisons(const DisjunctPlan& plan, const PlannedStep& step,
                      const ColumnarCatalog& catalog, Intermediate* in) {
  if (step.comparisons.empty() || in->rows == 0) return;
  std::vector<uint32_t> keep;
  keep.reserve(in->rows);
  for (size_t row = 0; row < in->rows; ++row) {
    bool ok = true;
    for (size_t ci : step.comparisons) {
      const PlanComparison& c = plan.comparisons[ci];
      Value lhs = c.lhs.is_const ? c.lhs.value
                                 : catalog.Decode(in->slot_cols[c.lhs.slot][row]);
      Value rhs = c.rhs.is_const ? c.rhs.value
                                 : catalog.Decode(in->slot_cols[c.rhs.slot][row]);
      if (!EvalCmp(c.op, lhs, rhs)) {
        ok = false;
        break;
      }
    }
    if (ok) keep.push_back(static_cast<uint32_t>(row));
  }
  if (keep.size() == in->rows) return;
  for (std::vector<Code>& col : in->slot_cols) {
    if (col.empty()) continue;
    std::vector<Code> next(keep.size());
    for (size_t i = 0; i < keep.size(); ++i) next[i] = col[keep[i]];
    col = std::move(next);
  }
  in->rows = keep.size();
}

}  // namespace

std::vector<uint32_t> RunScanFilter(const PlannedScan& scan,
                                    const ColumnarRelation& data,
                                    const ColumnarCatalog& catalog) {
  std::vector<uint32_t> out;
  // Encode the pushed-down constants once; a constant the dictionary has
  // never seen matches nothing.
  std::vector<std::pair<size_t, Code>> const_eq;
  const_eq.reserve(scan.const_eq.size());
  for (const auto& [col, value] : scan.const_eq) {
    std::optional<Code> code = catalog.EncodeExisting(value);
    if (!code.has_value()) return out;
    const_eq.emplace_back(col, *code);
  }
  if (const_eq.empty() && scan.dup_eq.empty()) {
    out.resize(data.rows);
    for (size_t row = 0; row < data.rows; ++row) {
      out[row] = static_cast<uint32_t>(row);
    }
    return out;
  }
  // Batch-at-a-time selection so the surviving-row vector grows in chunks
  // and each column stays hot while its batch is checked.
  for (size_t base = 0; base < data.rows; base += kBatchRows) {
    size_t end = std::min(data.rows, base + kBatchRows);
    for (size_t row = base; row < end; ++row) {
      bool ok = true;
      for (const auto& [col, code] : const_eq) {
        if (data.cols[col][row] != code) {
          ok = false;
          break;
        }
      }
      for (size_t i = 0; ok && i < scan.dup_eq.size(); ++i) {
        const auto& [col, first] = scan.dup_eq[i];
        if (data.cols[col][row] != data.cols[first][row]) ok = false;
      }
      if (ok) out.push_back(static_cast<uint32_t>(row));
    }
  }
  return out;
}

JoinTable BuildJoinTable(const PlannedScan& scan,
                         const std::vector<size_t>& key_cols,
                         const ColumnarRelation& data,
                         const ColumnarCatalog& catalog) {
  JoinTable table;
  table.key_cols = key_cols;
  table.rows = RunScanFilter(scan, data, catalog);
  std::vector<uint64_t> hashes(table.rows.size());
  for (size_t i = 0; i < table.rows.size(); ++i) {
    hashes[i] = ScanKeyHash(data, key_cols, table.rows[i]);
  }
  table.index.Build(hashes);
  return table;
}

Result<std::vector<Tuple>> ExecuteDisjunct(const DisjunctPlan& plan,
                                           const Database& db,
                                           const ColumnarCatalog& catalog,
                                           exec::ThreadPool* pool,
                                           StepActuals* actuals) {
  std::vector<Tuple> out;
  auto bail = [&]() -> std::vector<Tuple> {
    // Record zero cardinality for the remaining steps so explain output
    // stays aligned with the plan.
    if (actuals != nullptr) {
      while (actuals->size() < plan.steps.size() + 1) actuals->push_back(0);
    }
    return {};
  };
  for (size_t ci : plan.const_comparisons) {
    const PlanComparison& c = plan.comparisons[ci];
    if (!EvalCmp(c.op, c.lhs.value, c.rhs.value)) return bail();
  }

  // Execution starts from the unit intermediate — one row, no columns —
  // so an empty (ground) body projects exactly one row; the first scan
  // replaces it.
  Intermediate in;
  in.rows = 1;
  in.slot_cols.assign(plan.num_slots, {});
  in.bound.assign(plan.num_slots, 0);
  for (size_t si = 0; si < plan.steps.size(); ++si) {
    const PlannedStep& step = plan.steps[si];
    const Relation* rel = db.Find(step.scan.relation);
    if (rel == nullptr || rel->arity() != step.scan.arity) return bail();
    const ColumnarRelation* data = catalog.Find(step.scan.relation);
    PDMS_CHECK_MSG(data != nullptr, "relation not ensured in catalog");

    if (si == 0) {
      std::vector<uint32_t> rows = RunScanFilter(step.scan, *data, catalog);
      in.rows = rows.size();
      for (const auto& [scan_col, slot] : step.scan.binds) {
        if (!LiveAfter(step, slot)) continue;
        std::vector<Code>& col = in.slot_cols[slot];
        col.resize(rows.size());
        const CodeColumn& src = data->cols[scan_col];
        for (size_t i = 0; i < rows.size(); ++i) col[i] = src[rows[i]];
        in.bound[slot] = 1;
      }
    } else if (step.key_cols.empty()) {
      // Cross product, intermediate-major: deterministic and rare (only
      // disconnected bodies reach here).
      std::vector<uint32_t> rows = RunScanFilter(step.scan, *data, catalog);
      MatchPairs pairs;
      pairs.reserve(in.rows * rows.size());
      for (size_t i = 0; i < in.rows; ++i) {
        for (uint32_t r : rows) {
          pairs.emplace_back(static_cast<uint32_t>(i), r);
        }
      }
      in = GatherJoin(in, pairs, step, *data, plan.num_slots);
    } else if (step.build_on_atom) {
      // Build (or reuse the cached) hash table over the filtered scan,
      // probe the intermediate in row order.
      const JoinTable* table =
          catalog.FindJoinTable(step.scan.relation, step.scan.signature);
      JoinTable local;
      if (table == nullptr) {
        local = BuildJoinTable(step.scan, step.key_cols, *data, catalog);
        table = &local;
      }
      MatchPairs pairs = PartitionedProbe(
          pool, in.rows, [&](size_t begin, size_t end, MatchPairs* dst) {
            for (size_t i = begin; i < end; ++i) {
              uint64_t h = RowKeyHash(in, step.key_slots, i);
              for (int32_t e = table->index.Head(h); e >= 0;
                   e = table->index.Next(e)) {
                uint32_t r = table->rows[static_cast<size_t>(e)];
                if (KeysEqual(in, i, step.key_slots, *data, step.key_cols,
                              r)) {
                  dst->emplace_back(static_cast<uint32_t>(i), r);
                }
              }
            }
          });
      in = GatherJoin(in, pairs, step, *data, plan.num_slots);
    } else {
      // Build over the (smaller) intermediate, probe the filtered scan in
      // row order.
      std::vector<uint32_t> rows;
      const JoinTable* cached =
          catalog.FindJoinTable(step.scan.relation, step.scan.signature);
      if (cached != nullptr) {
        rows = cached->rows;
      } else {
        rows = RunScanFilter(step.scan, *data, catalog);
      }
      std::vector<uint64_t> in_hashes(in.rows);
      for (size_t i = 0; i < in.rows; ++i) {
        in_hashes[i] = RowKeyHash(in, step.key_slots, i);
      }
      FlatTable built;
      built.Build(in_hashes);
      MatchPairs pairs = PartitionedProbe(
          pool, rows.size(), [&](size_t begin, size_t end, MatchPairs* dst) {
            for (size_t k = begin; k < end; ++k) {
              uint32_t r = rows[k];
              uint64_t h = ScanKeyHash(*data, step.key_cols, r);
              for (int32_t e = built.Head(h); e >= 0; e = built.Next(e)) {
                uint32_t i = static_cast<uint32_t>(e);
                if (KeysEqual(in, i, step.key_slots, *data, step.key_cols,
                              r)) {
                  dst->emplace_back(i, r);
                }
              }
            }
          });
      in = GatherJoin(in, pairs, step, *data, plan.num_slots);
    }

    ApplyComparisons(plan, step, catalog, &in);
    if (actuals != nullptr) actuals->push_back(in.rows);
    if (in.rows == 0) return bail();
  }

  // Project and deduplicate in probe order. Two rows project to the same
  // tuple iff their head-slot codes agree (codes from one dictionary are
  // injective), so dedup runs entirely on codes and only the distinct
  // rows pay the decode back to Values.
  std::vector<size_t> head_slots;
  head_slots.reserve(plan.head.size());
  for (const PlanTerm& h : plan.head) {
    if (!h.is_const) head_slots.push_back(h.slot);
  }
  std::unordered_map<uint64_t, std::vector<uint32_t>> seen;
  std::vector<uint32_t> distinct;
  distinct.reserve(std::min<size_t>(in.rows, 1024));
  for (size_t row = 0; row < in.rows; ++row) {
    uint64_t hash = kKeySeed;
    for (size_t s : head_slots) {
      hash = HashCombine(hash, CodeHash(in.slot_cols[s][row]));
    }
    std::vector<uint32_t>& bucket = seen[hash];
    bool dup = false;
    for (uint32_t rep : bucket) {
      bool equal = true;
      for (size_t s : head_slots) {
        if (in.slot_cols[s][row] != in.slot_cols[s][rep]) {
          equal = false;
          break;
        }
      }
      if (equal) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    bucket.push_back(static_cast<uint32_t>(row));
    distinct.push_back(static_cast<uint32_t>(row));
  }
  out.reserve(distinct.size());
  for (uint32_t row : distinct) {
    Tuple tuple;
    tuple.reserve(plan.head.size());
    for (const PlanTerm& h : plan.head) {
      tuple.push_back(h.is_const ? h.value
                                 : catalog.Decode(in.slot_cols[h.slot][row]));
    }
    out.push_back(std::move(tuple));
  }
  if (actuals != nullptr) actuals->push_back(out.size());
  return out;
}

}  // namespace qp
}  // namespace pdms
