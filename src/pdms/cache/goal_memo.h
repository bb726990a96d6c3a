#ifndef PDMS_CACHE_GOAL_MEMO_H_
#define PDMS_CACHE_GOAL_MEMO_H_

namespace pdms {
namespace cache {

/// An empty placeholder. The cross-query goal memo is gone (the plan cache
/// is the only cross-query cache); this name exists only because
/// perfbench/src/sim_wan.cc still declares one, and it goes together with
/// ReformulationOptions::threads at the next change to the benchmark.
struct GoalMemo {};

}  // namespace cache
}  // namespace pdms

#endif  // PDMS_CACHE_GOAL_MEMO_H_
