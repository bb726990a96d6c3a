#include "pdms/serve/admission.h"

#include <algorithm>

#include "pdms/util/strings.h"

namespace pdms {
namespace serve {

AdmissionController::AdmissionController(AdmissionOptions options,
                                         size_t workers,
                                         obs::MetricsRegistry* metrics)
    : options_(options), workers_(workers), metrics_(metrics) {
  if (options_.max_queue == 0) options_.max_queue = 1;
  if (options_.initial_service_ms <= 0) options_.initial_service_ms = 1.0;
  ewma_ms_ = options_.initial_service_ms;
}

double AdmissionController::ExpectedWaitLocked(size_t depth) const {
  return static_cast<double>(depth) * ewma_ms_ /
         static_cast<double>(workers_);
}

double AdmissionController::RetryAfterLocked() const {
  return std::max(options_.retry_after_floor_ms,
                  ExpectedWaitLocked(depth_ > 0 ? depth_ : 1));
}

AdmissionController::Decision AdmissionController::Offer(
    double remaining_budget_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Decision d;
  if (depth_ >= options_.max_queue) {
    d.reason = wire::ShedReason::kQueueFull;
    d.retry_after_ms = RetryAfterLocked();
    d.queue_depth = static_cast<uint32_t>(depth_);
    if (metrics_) metrics_->Add("serve.shed_queue_full");
    return d;
  }
  // Joining the queue behind `depth_` requests means waiting roughly for
  // all of them plus this request's own service time; a budget that can't
  // cover that is shed now rather than after it has wasted queue space.
  if (remaining_budget_ms < ExpectedWaitLocked(depth_ + 1)) {
    d.reason = wire::ShedReason::kDeadline;
    d.retry_after_ms = RetryAfterLocked();
    d.queue_depth = static_cast<uint32_t>(depth_);
    if (metrics_) metrics_->Add("serve.shed_deadline");
    return d;
  }
  ++depth_;
  d.admitted = true;
  d.queue_depth = static_cast<uint32_t>(depth_);
  if (metrics_) metrics_->Add("serve.admitted");
  return d;
}

void AdmissionController::CancelQueued() {
  std::lock_guard<std::mutex> lock(mu_);
  if (depth_ > 0) --depth_;
  if (metrics_) metrics_->Add("serve.shed_deadline");
}

void AdmissionController::OnComplete(double service_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (depth_ > 0) --depth_;
  if (service_ms < 0) service_ms = 0;
  ewma_ms_ = (1 - options_.ewma_alpha) * ewma_ms_ +
             options_.ewma_alpha * service_ms;
}

double AdmissionController::RetryAfterMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return RetryAfterLocked();
}

size_t AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

double AdmissionController::ewma_service_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_ms_;
}

std::string AdmissionController::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StrFormat("admission{depth=%zu/%zu ewma=%.3fms workers=%zu}",
                   depth_, options_.max_queue, ewma_ms_, workers_);
}

}  // namespace serve
}  // namespace pdms
