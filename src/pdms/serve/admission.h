#ifndef PDMS_SERVE_ADMISSION_H_
#define PDMS_SERVE_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "pdms/obs/metrics.h"
#include "pdms/serve/wire.h"

namespace pdms {
namespace serve {

/// Tunables for the server's admission control (docs/serving.md).
struct AdmissionOptions {
  /// Bound on requests admitted but not yet completed (queued + running).
  /// At capacity every new request is shed with kQueueFull — overload
  /// turns into fast, well-formed rejections instead of unbounded queue
  /// growth.
  size_t max_queue = 64;
  /// EWMA smoothing for the observed per-request service time.
  double ewma_alpha = 0.2;
  /// Seed for the EWMA before any request completes.
  double initial_service_ms = 5.0;
  /// Lower bound on the retry-after hint shed responses carry.
  double retry_after_floor_ms = 1.0;
};

/// Decides, per incoming request, whether the serving queue should accept
/// it — and tracks the EWMA service time that prices the decision.
///
/// A request is shed with kQueueFull when the bounded queue is at
/// capacity, and with kDeadline when its remaining budget cannot cover
/// the queue's expected wait `(depth + 1) * ewma_service / workers` —
/// admitting it would only burn a worker on an answer the client has
/// already given up on. Both sheds are counted in the registry
/// (`serve.shed_queue_full` / `serve.shed_deadline`), admissions in
/// `serve.admitted`.
///
/// Thread-safe; shared by the server's network loop (Offer) and the
/// executor's workers (CancelQueued/OnComplete).
class AdmissionController {
 public:
  /// `workers` (at least 1) is the parallelism the expected-wait estimate
  /// assumes: the executor's worker count.
  AdmissionController(AdmissionOptions options, size_t workers,
                      obs::MetricsRegistry* metrics = nullptr);

  struct Decision {
    bool admitted = false;
    /// Valid when !admitted.
    wire::ShedReason reason = wire::ShedReason::kQueueFull;
    double retry_after_ms = 0;
    /// Queue depth at decision time (after the admit, for admitted ones).
    uint32_t queue_depth = 0;
  };

  /// Offers a request with `remaining_budget_ms` of client budget left
  /// (+infinity for no deadline). On admit the depth is incremented; the
  /// caller must balance every admit with exactly one CancelQueued or
  /// OnComplete.
  Decision Offer(double remaining_budget_ms);

  /// An admitted request was abandoned before evaluation started — its
  /// deadline expired while it sat in the queue. Decrements the depth and
  /// counts `serve.shed_deadline` (the dequeue-time half of deadline
  /// shedding; no service-time sample is recorded since no work was done).
  void CancelQueued();

  /// An admitted request finished evaluation in `service_ms`; folds the
  /// sample into the EWMA and decrements the depth.
  void OnComplete(double service_ms);

  /// The retry-after hint for a shed response right now: the expected time
  /// for the current backlog to drain, floored at retry_after_floor_ms.
  double RetryAfterMs() const;

  size_t queue_depth() const;
  double ewma_service_ms() const;
  const AdmissionOptions& options() const { return options_; }

  std::string ToString() const;

 private:
  double ExpectedWaitLocked(size_t depth) const;
  double RetryAfterLocked() const;

  AdmissionOptions options_;
  size_t workers_;
  obs::MetricsRegistry* metrics_;  // not owned; may be null

  mutable std::mutex mu_;
  size_t depth_ = 0;
  double ewma_ms_;
};

}  // namespace serve
}  // namespace pdms

#endif  // PDMS_SERVE_ADMISSION_H_
