#ifndef PDMS_SIM_SIM_PDMS_H_
#define PDMS_SIM_SIM_PDMS_H_

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pdms/cache/goal_memo.h"
#include "pdms/core/cost_estimator.h"
#include "pdms/core/pdms.h"
#include "pdms/fault/peer_health.h"
#include "pdms/qp/engine.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"
#include "pdms/sim/sim_network.h"

namespace pdms {
namespace sim {

/// Name the querying node registers under on the SimNetwork. '@' cannot
/// appear in a parsed peer identifier, so the name can never collide with
/// a declared peer.
inline constexpr const char* kCoordinatorName = "@client";

/// Knobs of one simulated distributed execution.
struct SimOptions {
  /// Seeds the network fault schedule, delivery jitter, and retry jitter.
  /// Identical seeds (with identical catalog/data/faults) reproduce
  /// byte-identical traces.
  uint64_t seed = 1;
  /// Fault profile applied to every link.
  LinkFaults faults;
  /// Retransmission policy for scan requests: a request that has not been
  /// answered within `request_timeout_ms` is retried (with this policy's
  /// backoff) up to `retry.max_attempts` transmissions total.
  RetryPolicy retry;
  double request_timeout_ms = 10.0;
  /// Bounds for the event loop; exceeding either makes Answer fail with
  /// kResourceExhausted instead of hanging (the DST "no hang" invariant).
  double max_virtual_ms = 60 * 1000;
  size_t max_events = 1u << 22;
  /// Reformulation options used by the querying peer.
  /// `reform.cost_aware` additionally turns on cost-aware routing here:
  /// cheapest-provider selection among replicated storage descriptions and
  /// relay-batched fan-out (see below).
  ReformulationOptions reform;

  /// Delivery-delay model by factory name (NetworkModel::Create):
  /// "uniform" (legacy, byte-identical traces), "latency-bandwidth", or
  /// "contention". Non-uniform models require `links`.
  std::string network_model = "uniform";
  /// Static link-cost map (borrowed, nullable; must outlive the SimPdms).
  /// Feeds both the non-uniform network models and the CostEstimator.
  const LinkMap* links = nullptr;
  /// When cost-aware: batch the scans bound for one remote zone into a
  /// single relay round-trip over the trunk (docs/network_cost_model.md)
  /// instead of per-scan unicast. Answer-neutral: a failed or timed-out
  /// relay falls back to the unicast ladder per relation.
  bool relay_fanout = true;
};

/// The distributed counterpart of the `Pdms` facade: the same catalog and
/// global instance, but the instance is sliced across actor-style peer
/// nodes and the querying peer can reach stored relations only by
/// exchanging request/response messages over an unreliable simulated
/// network. Reformulation stays local (the catalog is replicated); every
/// stored-relation scan of the resulting rewritings becomes a message
/// round-trip with per-hop timeout and retransmission.
///
/// The whole execution runs on a deterministic single-threaded event loop
/// over virtual time, so a query under message loss, duplication,
/// reordering, and partitions is exactly reproducible from its seed — the
/// property the DST harness (tests/sim_dst_test.cc) leans on.
///
/// Answers remain sound under every fault schedule: a fetch that fails
/// only removes rewritings, never fabricates tuples, so the result is a
/// subset of the fault-free answer and the DegradationReport (with
/// per-hop MessageStats) says what was lost.
class SimPdms {
 public:
  /// Copies the catalog and data; the data is sliced per owning peer at
  /// query time (relations served by no peer stay local to the querying
  /// node and cost no messages).
  SimPdms(const PdmsNetwork& network, const Database& data,
          SimOptions options = {});

  const SimOptions& options() const { return options_; }
  SimOptions* mutable_options() { return &options_; }
  const PdmsNetwork& network() const { return network_; }

  // --- Fault controls (persist across queries) ---

  /// Partitions two nodes (peer names, or kCoordinatorName for the
  /// querying node). Messages between them are blocked until healed.
  void Partition(const std::string& a, const std::string& b);
  void Heal(const std::string& a, const std::string& b);
  void HealAll();
  std::vector<std::pair<std::string, std::string>> Partitions() const;

  /// A crashed peer receives requests but never responds (silent failure,
  /// resolved only by timeout) — distinct from a partition, which blocks
  /// at send time.
  void SetPeerCrashed(const std::string& peer, bool crashed);

  /// Runs one query end to end on a fresh event loop. Fails with
  /// kResourceExhausted if the schedule exceeds the virtual-time or event
  /// bounds (a detected hang), with the partial trace still available.
  Result<AnswerResult> Answer(const ConjunctiveQuery& query);
  Result<AnswerResult> Answer(std::string_view query_text);

  /// The deterministic message trace of the last Answer call.
  const std::string& last_trace() const { return last_trace_; }

  /// Observability sinks (borrowed, nullable — null disables). With a
  /// trace attached, Answer clears it, rebinds its clock to the event
  /// loop's virtual time for the duration of the query (restored on exit),
  /// and emits the full span tree: query > reformulate / fetch (message
  /// hops and timeouts nested) / evaluate. Because every timestamp comes
  /// from the virtual clock, the span tree — ids, nesting, attributes, AND
  /// times — is a deterministic function of the seed.
  void set_trace(obs::TraceContext* trace) { trace_ = trace; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Cross-query plan cache (borrowed, nullable — null disables; see
  /// docs/plan_cache.md). Because a SimPdms is typically rebuilt per query
  /// (ppl_shell does) while the cache outlives it, its entries are keyed by
  /// the catalog's (revision, availability epoch) scope: each Answer call
  /// re-announces the scope of its copied network, so entries warmed
  /// through one SimPdms serve the next as long as the catalog has not
  /// moved. A cached plan skips reformulation only — every stored-relation
  /// scan still goes over the simulated network, so partitions, crashes,
  /// and message loss degrade a cached query exactly like a fresh one.
  void set_plan_cache(PlanCacheHook* cache) { plan_cache_ = cache; }
  /// A no-op that exists only because perfbench/src/sim_wan.cc still
  /// calls it; it goes with ReformulationOptions::threads at the next
  /// change to the benchmark.
  void set_goal_memo(const cache::GoalMemo*) {}

  /// Peer failure detector (borrowed, nullable — null disables; see
  /// docs/fault_tolerance.md). Like the plan cache, the tracker outlives the
  /// per-query SimPdms instances that consult it: suspicion learned by one
  /// query spares the next the timeout ladder. With a tracker attached and
  /// enabled, each fetch is gated before its first transmission — a
  /// suspected peer inside its probe backoff fails fast with zero messages
  /// (MessageStats::skipped_suspected), one request per window doubles as
  /// the recovery probe, and when an SRTT estimate exists a response that
  /// is `hedge_srtt_multiplier` SRTTs overdue triggers one duplicate
  /// request (MessageStats::hedges) without waiting for the full timeout.
  /// Each Answer folds its virtual duration into the tracker's session
  /// clock, so backoff windows span queries deterministically.
  void set_health(PeerHealthTracker* tracker) { health_ = tracker; }
  PeerHealthTracker* health() { return health_; }

 private:
  PdmsNetwork network_;
  Database data_;
  SimOptions options_;
  std::unique_ptr<Reformulator> reformulator_;
  /// Vectorized evaluation over the per-query fetched database.
  qp::Engine engine_;
  std::set<std::pair<std::string, std::string>> partitions_;
  std::set<std::string> crashed_;
  std::string last_trace_;
  obs::TraceContext* trace_ = nullptr;      // not owned; may be null
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
  PlanCacheHook* plan_cache_ = nullptr;      // not owned; may be null
  PeerHealthTracker* health_ = nullptr;      // not owned; may be null
};

}  // namespace sim
}  // namespace pdms

#endif  // PDMS_SIM_SIM_PDMS_H_
