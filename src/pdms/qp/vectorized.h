#ifndef PDMS_QP_VECTORIZED_H_
#define PDMS_QP_VECTORIZED_H_

#include <cstdint>
#include <vector>

#include "pdms/data/database.h"
#include "pdms/qp/column_store.h"
#include "pdms/qp/planner.h"
#include "pdms/util/status.h"

namespace pdms {
namespace qp {

/// Runs a planned scan's pushed-down filters over the columnar relation,
/// returning the surviving row ids in row order. A constant that cannot be
/// encoded against `catalog`'s dictionary (a string the data never
/// mentions) short-circuits to zero rows.
std::vector<uint32_t> RunScanFilter(const PlannedScan& scan,
                                    const ColumnarRelation& data,
                                    const ColumnarCatalog& catalog);

/// Builds the cacheable hash table for a join step's scan side: filtered
/// rows plus a FlatTable keyed by the hash of the key columns' codes,
/// chains in row order.
JoinTable BuildJoinTable(const PlannedScan& scan,
                         const std::vector<size_t>& key_cols,
                         const ColumnarRelation& data,
                         const ColumnarCatalog& catalog);

/// Observed per-step output cardinalities (one per step, then the final
/// distinct answer count) — the "actual" side of the explain output.
using StepActuals = std::vector<size_t>;

/// Executes one disjunct's physical plan against `db` through `catalog`,
/// returning the projected, deduplicated head tuples in a deterministic
/// order (probe order, which is fixed by the plan). This is the one-path
/// case of ExecuteUnion: both drive the same step runner, which alternates
/// between two intermediate buffers local to the call.
///
/// `catalog` is read only — every relation must have been Ensure'd (and
/// scan-side join tables ideally prebuilt) before the call.
Result<std::vector<Tuple>> ExecuteDisjunct(const DisjunctPlan& plan,
                                           const Database& db,
                                           const ColumnarCatalog& catalog,
                                           StepActuals* actuals);

/// Executes the shared-prefix trie of `plan` depth-first for the disjuncts
/// flagged in `disjuncts`, visiting only the nodes MarkPaths flagged in
/// `paths`. Each prefix is joined once, reading its parent's intermediate
/// in place; an empty intermediate prunes every disjunct below it. Each
/// flagged disjunct's leaf fills (*shards)[d] with exactly the tuples, in
/// the order, that ExecuteDisjunct returns for that disjunct alone.
///
/// `tables` holds, per UnionPlan::join_tables entry, the catalog's join
/// table or null (a step then builds one locally). The catalog is read
/// only, as for ExecuteDisjunct. The walk keeps one reusable intermediate
/// buffer per trie depth (UnionPlan::depth of them) plus one set of step
/// scratch; none of it outlives the call. Returns the number of steps run.
size_t ExecuteUnion(const UnionPlan& plan, const std::vector<char>& disjuncts,
                    const std::vector<char>& paths,
                    const std::vector<const JoinTable*>& tables,
                    const Database& db, const ColumnarCatalog& catalog,
                    std::vector<std::vector<Tuple>>* shards);

}  // namespace qp
}  // namespace pdms

#endif  // PDMS_QP_VECTORIZED_H_
