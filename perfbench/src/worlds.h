// The inputs shared by the workloads. The worlds (catalogs and facts) are
// a fixed dataset, as a database benchmark's generated tables are: across
// generator seeds the median cost of the same request stream moved by 20%
// (facts) to 40% (catalog) between seeds, which would swamp any regression
// bound. `--seed` draws what a run sends: the order of its requests, the
// interleaving of churn writes with reads, and the simulated network's
// delivery jitter.
#ifndef PERFBENCH_WORLDS_H_
#define PERFBENCH_WORLDS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pdms/core/network.h"
#include "pdms/data/database.h"
#include "pdms/gen/topology.h"
#include "pdms/util/rng.h"

namespace perfbench {

/// Data volume of every world: facts per stored relation and the value
/// domain they (and the mappings' constants) are drawn from. At 256 facts
/// over 1,024 values the long chain rewritings of the top stratum still
/// return rows, unlike the generator's 2-fact default where every disjunct
/// of a top-stratum query is empty.
inline constexpr size_t kFactsPerStored = 256;
inline constexpr int64_t kValueDomain = 1024;

/// The Figure-3 serving topology of the Section 5 generator: 48 peers,
/// diameter 4, 25% definitional mappings, 2 providers per relation.
pdms::PdmsNetwork Figure3Catalog();

/// A replicated community topology (48 peers in 4 zones, one replica per
/// stored relation half a ring away) for the simulated wide-area workload.
pdms::gen::Topology CommunityTopology();

/// `kFactsPerStored` uniform tuples over `[0, kValueDomain)` for every
/// stored relation of `network`.
pdms::Database Facts(const pdms::PdmsNetwork& network);

/// Query pools over the Figure-3 catalog; each query is
/// `Q(x, y) :- <relation>(x, y).` Both pools have an odd size, so the
/// median of whole passes falls inside one query's samples.
///
/// Second-stratum relations, three mapping levels above storage: each
/// streams 40-130 answers in 4-7 ms on a 4-vCPU host, so a run holds
/// thousands of cold reformulations and its median averages over the run.
inline constexpr const char* kSecondStratumPool[] = {
    "P20:R0", "P23:R1", "P22:R2", "P14:R2", "P19:R1", "P22:R0", "P20:R1",
    "P17:R2", "P23:R0", "P17:R1", "P16:R0", "P16:R2", "P14:R1",
};
/// Top-stratum relations (the paper's query position) whose plans hold
/// 300-1,300 disjuncts: a plan cache hit still executes real joins.
inline constexpr const char* kTopStratumPool[] = {
    "P5:F0", "P5:F1", "P5:F2",  "P6:F1",  "P6:F2",  "P7:F0", "P9:F0",
    "P9:F1", "P10:F0", "P10:F1", "P10:F2", "P11:F0", "P11:F2",
};
inline constexpr size_t kPoolSize = 13;
static_assert(sizeof(kSecondStratumPool) / sizeof(kSecondStratumPool[0]) ==
              kPoolSize);
static_assert(sizeof(kTopStratumPool) / sizeof(kTopStratumPool[0]) ==
              kPoolSize);

/// `Q(x, y) :- <relation>(x, y).`
std::string SingleAtomQuery(const std::string& relation);

/// The single-atom query of each of a pool's kPoolSize relations.
std::vector<std::string> SingleAtomQueries(const char* const* pool);

/// Seeded passes over a pool: pass p visits every index in [0, kPoolSize)
/// once, in an order drawn from `seed` and p.
size_t PassIndex(uint64_t seed, size_t request);

/// `count` requests over [0, n) whose per-index counts are the Zipf
/// expectation (weight(i) = 1 / (i+1)^s, largest remainders rounded up),
/// in an order drawn from `seed`. Every block has the same mix, so the
/// median of a run does not move with the luck of a sampler.
std::vector<size_t> ZipfBlock(size_t n, double s, size_t count,
                              uint64_t seed);

/// Derives an independent stream seed from the run seed and a purpose tag.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

}  // namespace perfbench

#endif  // PERFBENCH_WORLDS_H_
