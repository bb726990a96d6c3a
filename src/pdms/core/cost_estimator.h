#ifndef PDMS_CORE_COST_ESTIMATOR_H_
#define PDMS_CORE_COST_ESTIMATOR_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pdms/core/network.h"
#include "pdms/fault/peer_health.h"
#include "pdms/util/status.h"

namespace pdms {

/// Static properties of one directed link in the modeled topology
/// (docs/network_cost_model.md). Together they define the one-way cost of
/// shipping a message of a given size:
///
///   one_way_ms = latency_ms + per_message_ms + bytes / bytes_per_ms
///
/// `per_message_ms` is the fixed per-message occupancy of the link — the
/// knob the contention model queues on — and `bytes_per_ms = 0` means
/// infinite bandwidth (no serialization term).
struct LinkProps {
  double latency_ms = 1.0;
  double bytes_per_ms = 0;
  double per_message_ms = 0;

  double OneWayMs(size_t bytes) const {
    double out = latency_ms + per_message_ms;
    if (bytes_per_ms > 0) out += static_cast<double>(bytes) / bytes_per_ms;
    return out;
  }
};

/// The static link-cost map layered over a peer topology: every node is
/// assigned a zone (clustered/community WAN, hub-spoke) or a grid
/// coordinate (mesh), and link properties are derived per node pair. Two
/// zonal nodes in the same zone talk over the intra-zone props; nodes in
/// different zones talk over the shared inter-zone trunk (overridable per
/// zone pair). Grid nodes pay the intra props once per Manhattan hop.
/// Per-node `access_ms` models a last-mile uplink (hub-spoke leaves) and
/// is added to the latency of every link touching the node.
///
/// `TrunkKey` names the contention domain of a link: all cross-zone
/// traffic between the same (ordered) zone pair shares one FIFO queue in
/// the contention network model, while intra-zone and grid links queue per
/// node pair. Unassigned nodes land in zone 0, so an empty map degrades to
/// a single uniform LAN.
class LinkMap {
 public:
  enum class Mode { kZonal, kGrid };

  void set_mode(Mode mode) { mode_ = mode; }
  Mode mode() const { return mode_; }

  void SetZone(const std::string& node, size_t zone);
  size_t ZoneOf(const std::string& node) const;
  /// 1 + the highest assigned zone index (1 for an empty map).
  size_t num_zones() const { return num_zones_; }

  /// Grid mode only: the node's mesh coordinate.
  void SetCoord(const std::string& node, double x, double y);

  /// Extra one-way latency for every link touching `node` (last-mile
  /// uplink). Defaults to 0.
  void SetAccessMs(const std::string& node, double ms);
  double AccessMs(const std::string& node) const;

  void set_intra_props(const LinkProps& props) { intra_ = props; }
  void set_inter_props(const LinkProps& props) { inter_ = props; }
  const LinkProps& intra_props() const { return intra_; }
  const LinkProps& inter_props() const { return inter_; }
  /// Overrides the trunk between two zones (stored symmetric).
  void SetZonePairProps(size_t a, size_t b, const LinkProps& props);

  /// Effective properties of the src -> dst link, access latency folded
  /// into `latency_ms`. Deterministic: a pure function of the assignments.
  LinkProps Get(const std::string& src, const std::string& dst) const;

  /// Contention-domain name of the src -> dst link (see class comment).
  std::string TrunkKey(const std::string& src, const std::string& dst) const;

  /// Deterministic dump for tests and debugging.
  std::string ToString() const;

 private:
  Mode mode_ = Mode::kZonal;
  std::map<std::string, size_t> zone_;
  std::map<std::string, std::pair<double, double>> coord_;
  std::map<std::string, double> access_ms_;
  LinkProps intra_{0.5, 0, 0};
  LinkProps inter_{20.0, 0, 0};
  std::map<std::pair<size_t, size_t>, LinkProps> zone_pair_;
  size_t num_zones_ = 1;
};

/// Round-trip cost estimates for the query answering path
/// (docs/network_cost_model.md): static link costs from a LinkMap blended
/// with the live EWMA SRTT the PeerHealthTracker already maintains. The
/// reformulator uses ScanCostMs to order expansion candidates cheapest-
/// first, and the simulated coordinator uses CheapestProvider to pick
/// among replicated storage descriptions. Estimates only ever reorder
/// work — answer contents never depend on them — so a wildly wrong
/// estimate costs latency, not soundness.
///
/// All inputs are borrowed and must outlive the estimator; `health` is
/// nullable (static costs only). Every method is const and deterministic
/// in (catalog, link map, tracker state).
class CostEstimator {
 public:
  CostEstimator(const PdmsNetwork* network, const LinkMap* links,
                std::string origin, const PeerHealthTracker* health = nullptr);

  /// Static round trip origin -> peer -> origin at nominal message size.
  double StaticRttMs(const std::string& peer) const;

  /// StaticRttMs blended with the tracker's SRTT sample (when present)
  /// plus the suspicion penalty (when suspected).
  double PeerCostMs(const std::string& peer) const;

  /// Estimated round-trip cost of scanning `stored`: the minimum
  /// PeerCostMs over its providers. 0 for relations served locally (no
  /// owning peer) or unknown to the catalog.
  double ScanCostMs(const std::string& stored) const;

  /// The cheapest provider of `stored` among its storage descriptions;
  /// ties break toward the earliest description, so a single-provider
  /// relation always resolves to the legacy owner.
  Result<std::string> CheapestProvider(const std::string& stored) const;

  const LinkMap* links() const { return links_; }
  const std::string& origin() const { return origin_; }

 private:
  const PdmsNetwork* network_;        // not owned
  const LinkMap* links_;              // not owned
  std::string origin_;
  const PeerHealthTracker* health_;   // not owned; may be null
};

}  // namespace pdms

#endif  // PDMS_CORE_COST_ESTIMATOR_H_
