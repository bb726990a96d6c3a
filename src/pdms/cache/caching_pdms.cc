#include "pdms/cache/caching_pdms.h"

#include "pdms/util/strings.h"

namespace pdms {
namespace cache {

CachingPdms::CachingPdms(CacheConfig config, ReformulationOptions options)
    : pdms_(std::move(options)),
      plan_cache_(config.plan_budget_bytes) {
  pdms_.set_plan_cache(&plan_cache_);
  if (config.wholesale_invalidation) {
    plan_cache_.set_wholesale_invalidation(true);
  }
}

void CachingPdms::ClearCaches() { plan_cache_.Clear(); }

void CachingPdms::set_plan_budget_bytes(size_t bytes) {
  plan_cache_.set_budget_bytes(bytes);
}

std::string CachingPdms::CacheStatsString() const {
  std::string out;
  out += StrFormat("plan cache (%zu entries, %zu/%zu bytes)\n",
                   plan_cache_.size(), plan_cache_.total_bytes(),
                   plan_cache_.budget_bytes());
  out += plan_cache_.stats().ToString();
  return out;
}

}  // namespace cache
}  // namespace pdms
