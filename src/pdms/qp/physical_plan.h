#ifndef PDMS_QP_PHYSICAL_PLAN_H_
#define PDMS_QP_PHYSICAL_PLAN_H_

#include <memory>
#include <mutex>
#include <utility>

namespace pdms {
namespace qp {

/// The compiled physical plan of a union query (defined in qp/planner.h).
/// Plans are logical artifacts — join orders, build sides, and estimates
/// keyed by relation *names* — so one plan is valid for any engine whose
/// statistics match its embedded fingerprint (worker facades with separate
/// but identical databases share plans through the PlanCache).
struct UnionPlan;

/// A thread-safe, shareable slot for the physical plan compiled for one
/// cached rewriting. cache::PlanCache stores one slot per Plan entry; every
/// facade that hits that entry shares the slot, so the first execution's
/// planning work is reused by all of them. The engine validates the stats
/// fingerprint before trusting a cached plan and overwrites the slot on
/// mismatch (docs/query_planning.md, plan caching).
class PhysicalPlanSlot {
 public:
  std::shared_ptr<const UnionPlan> Get() const {
    std::lock_guard<std::mutex> lock(mu_);
    return plan_;
  }
  void Set(std::shared_ptr<const UnionPlan> plan) {
    std::lock_guard<std::mutex> lock(mu_);
    plan_ = std::move(plan);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const UnionPlan> plan_;
};

}  // namespace qp
}  // namespace pdms

#endif  // PDMS_QP_PHYSICAL_PLAN_H_
