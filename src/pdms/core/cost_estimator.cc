#include "pdms/core/cost_estimator.h"

#include <algorithm>
#include <cmath>

#include "pdms/util/strings.h"

namespace pdms {
namespace {

// Weight of the live SRTT when the tracker has a sample for the peer; the
// static estimate keeps the rest.
constexpr double kSrttBlend = 0.5;
// Added to the estimate of a currently-suspected peer so replicas on
// healthy peers win ties without hard-excluding the suspect.
constexpr double kSuspectPenaltyMs = 10000.0;
// Nominal message size used for static round-trip estimates.
constexpr size_t kNominalBytes = 256;

}  // namespace

void LinkMap::SetZone(const std::string& node, size_t zone) {
  zone_[node] = zone;
  num_zones_ = std::max(num_zones_, zone + 1);
}

size_t LinkMap::ZoneOf(const std::string& node) const {
  auto it = zone_.find(node);
  return it == zone_.end() ? 0 : it->second;
}

void LinkMap::SetCoord(const std::string& node, double x, double y) {
  coord_[node] = {x, y};
}

void LinkMap::SetAccessMs(const std::string& node, double ms) {
  access_ms_[node] = ms;
}

double LinkMap::AccessMs(const std::string& node) const {
  auto it = access_ms_.find(node);
  return it == access_ms_.end() ? 0 : it->second;
}

void LinkMap::SetZonePairProps(size_t a, size_t b, const LinkProps& props) {
  zone_pair_[std::minmax(a, b)] = props;
}

LinkProps LinkMap::Get(const std::string& src, const std::string& dst) const {
  LinkProps props;
  if (mode_ == Mode::kGrid) {
    // Mesh: the intra props describe one grid hop; a link pays them per
    // Manhattan hop between the endpoints' coordinates (minimum one hop).
    props = intra_;
    double hops = 1.0;
    auto s = coord_.find(src);
    auto d = coord_.find(dst);
    if (s != coord_.end() && d != coord_.end()) {
      hops = std::max(1.0, std::abs(s->second.first - d->second.first) +
                               std::abs(s->second.second - d->second.second));
    }
    props.latency_ms = intra_.latency_ms * hops;
  } else {
    size_t zs = ZoneOf(src);
    size_t zd = ZoneOf(dst);
    if (zs == zd) {
      props = intra_;
    } else {
      auto it = zone_pair_.find(std::minmax(zs, zd));
      props = it == zone_pair_.end() ? inter_ : it->second;
    }
  }
  props.latency_ms += AccessMs(src) + AccessMs(dst);
  return props;
}

std::string LinkMap::TrunkKey(const std::string& src,
                              const std::string& dst) const {
  if (mode_ == Mode::kZonal) {
    size_t zs = ZoneOf(src);
    size_t zd = ZoneOf(dst);
    // Cross-zone traffic shares one queue per trunk direction; intra-zone
    // (and grid) links queue per node pair — effectively uncontended.
    if (zs != zd) return StrFormat("z%zu>z%zu", zs, zd);
  }
  return src + ">" + dst;
}

std::string LinkMap::ToString() const {
  std::string out = StrFormat(
      "mode=%s zones=%zu intra=(%.3f,%.1f,%.3f) inter=(%.3f,%.1f,%.3f)",
      mode_ == Mode::kZonal ? "zonal" : "grid", num_zones_, intra_.latency_ms,
      intra_.bytes_per_ms, intra_.per_message_ms, inter_.latency_ms,
      inter_.bytes_per_ms, inter_.per_message_ms);
  for (const auto& [pair, props] : zone_pair_) {
    out += StrFormat(" trunk[z%zu:z%zu]=(%.3f,%.1f,%.3f)", pair.first,
                     pair.second, props.latency_ms, props.bytes_per_ms,
                     props.per_message_ms);
  }
  for (const auto& [node, zone] : zone_) {
    out += StrFormat(" %s:z%zu", node.c_str(), zone);
    double access = AccessMs(node);
    if (access > 0) out += StrFormat("+%.3f", access);
  }
  for (const auto& [node, xy] : coord_) {
    out += StrFormat(" %s:(%.0f,%.0f)", node.c_str(), xy.first, xy.second);
  }
  return out;
}

CostEstimator::CostEstimator(const PdmsNetwork* network, const LinkMap* links,
                             std::string origin,
                             const PeerHealthTracker* health)
    : network_(network),
      links_(links),
      origin_(std::move(origin)),
      health_(health) {}

double CostEstimator::StaticRttMs(const std::string& peer) const {
  if (links_ == nullptr) return 0;
  return links_->Get(origin_, peer).OneWayMs(kNominalBytes) +
         links_->Get(peer, origin_).OneWayMs(kNominalBytes);
}

double CostEstimator::PeerCostMs(const std::string& peer) const {
  double cost = StaticRttMs(peer);
  if (health_ != nullptr) {
    double srtt = health_->SrttMs(peer);
    if (srtt > 0) {
      cost = (1.0 - kSrttBlend) * cost + kSrttBlend * srtt;
    }
    if (health_->IsSuspected(peer)) cost += kSuspectPenaltyMs;
  }
  return cost;
}

double CostEstimator::ScanCostMs(const std::string& stored) const {
  double best = 0;
  bool found = false;
  for (const StorageDescription& d : network_->storage_descriptions()) {
    if (d.stored_atom().predicate() != stored) continue;
    double cost = d.peer.empty() ? 0 : PeerCostMs(d.peer);
    if (!found || cost < best) best = cost;
    found = true;
  }
  return found ? best : 0;
}

Result<std::string> CostEstimator::CheapestProvider(
    const std::string& stored) const {
  double best = 0;
  bool found = false;
  std::string provider;
  for (const StorageDescription& d : network_->storage_descriptions()) {
    if (d.stored_atom().predicate() != stored) continue;
    double cost = d.peer.empty() ? 0 : PeerCostMs(d.peer);
    // Strictly-cheaper wins; ties keep the earliest description so a
    // single-provider relation resolves exactly like the legacy
    // StoredRelationPeer lookup.
    if (!found || cost < best) {
      best = cost;
      provider = d.peer;
    }
    found = true;
  }
  if (!found) return Status::NotFound("no storage description for " + stored);
  return provider;
}

}  // namespace pdms
