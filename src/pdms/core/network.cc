#include "pdms/core/network.h"

#include <algorithm>
#include <set>

#include "pdms/util/strings.h"

namespace pdms {

const char* CatalogChangeKindName(CatalogChange::Kind kind) {
  switch (kind) {
    case CatalogChange::Kind::kPeerAdded:
      return "peer-added";
    case CatalogChange::Kind::kStorageAdded:
      return "storage-added";
    case CatalogChange::Kind::kMappingAdded:
      return "mapping-added";
    case CatalogChange::Kind::kMappingRemoved:
      return "mapping-removed";
    case CatalogChange::Kind::kMappingEdited:
      return "mapping-edited";
    case CatalogChange::Kind::kAvailability:
      return "availability";
  }
  return "?";
}

namespace {

// The predicates whose expansion candidates a mapping contributes to.
// A definitional mapping is consulted when a goal names its head; an
// inclusion `Q1 ⊆ Q2` is consulted (LAV-style, via its normalized view)
// when a goal names a relation of body(Q2); an equality is an inclusion
// both ways.
std::set<std::string> MappingTouchedPreds(const PeerMapping& m) {
  std::set<std::string> preds;
  switch (m.kind) {
    case PeerMappingKind::kDefinitional:
      preds.insert(m.rule.head().predicate());
      break;
    case PeerMappingKind::kEquality:
      for (const Atom& a : m.lhs.body()) preds.insert(a.predicate());
      [[fallthrough]];
    case PeerMappingKind::kInclusion:
      for (const Atom& a : m.rhs.body()) preds.insert(a.predicate());
      break;
  }
  return preds;
}

}  // namespace

const char* QueryComplexityName(QueryComplexity c) {
  switch (c) {
    case QueryComplexity::kPolynomial:
      return "polynomial";
    case QueryComplexity::kCoNpComplete:
      return "co-NP-complete";
    case QueryComplexity::kUndecidable:
      return "undecidable";
  }
  return "?";
}

std::string Classification::Explain() const {
  std::string out;
  out += StrFormat("inclusion peer mappings acyclic: %s\n",
                   inclusions_acyclic ? "yes" : "no");
  out += StrFormat("peer equalities: %s%s\n",
                   has_peer_equalities ? "yes" : "no",
                   has_peer_equalities
                       ? (peer_equalities_projection_free
                              ? " (projection-free)"
                              : " (with projections)")
                       : "");
  out += StrFormat("equality storage descriptions: %s%s\n",
                   has_equality_storage ? "yes" : "no",
                   has_equality_storage
                       ? (storage_equalities_projection_free
                              ? " (projection-free)"
                              : " (with projections)")
                       : "");
  out += StrFormat("definitional heads isolated: %s\n",
                   definitional_heads_isolated ? "yes" : "no");
  out += StrFormat("definitional mappings recursive: %s\n",
                   definitional_recursive ? "yes" : "no");
  out += StrFormat("comparisons outside storage/definitional bodies: %s\n",
                   comparisons_outside_safe_positions ? "yes" : "no");
  out += StrFormat("=> query answering: %s", QueryComplexityName(complexity));
  out += StrFormat(" (with query comparisons: %s)\n",
                   QueryComplexityName(complexity_with_query_comparisons));
  return out;
}

Status PdmsNetwork::AddPeer(Peer peer) {
  for (const Peer& p : peers_) {
    if (p.name == peer.name) {
      return Status::InvalidArgument("duplicate peer name: " + peer.name);
    }
  }
  std::set<std::string> seen;
  for (const auto& [rel, arity] : peer.relations) {
    if (!seen.insert(rel).second) {
      return Status::InvalidArgument(
          StrFormat("peer %s declares relation %s twice", peer.name.c_str(),
                    rel.c_str()));
    }
    peer_relation_arity_[QualifiedName(peer.name, rel)] = arity;
  }
  peers_.push_back(std::move(peer));
  ++revision_;
  // Candidate sets are keyed off mappings and storage, so a bare peer
  // declaration invalidates nothing.
  LogChange(CatalogChange::Kind::kPeerAdded, {});
  return Status::Ok();
}

Status PdmsNetwork::AddPeer(
    const std::string& name,
    std::vector<std::pair<std::string, size_t>> relations) {
  Peer peer;
  peer.name = name;
  peer.relations = std::move(relations);
  return AddPeer(std::move(peer));
}

Status PdmsNetwork::ValidateBody(const ConjunctiveQuery& cq,
                                 const std::string& context) const {
  for (const Atom& a : cq.body()) {
    auto it = peer_relation_arity_.find(a.predicate());
    if (it == peer_relation_arity_.end()) {
      return Status::NotFound(StrFormat(
          "%s references undeclared peer relation %s", context.c_str(),
          a.predicate().c_str()));
    }
    if (it->second != a.arity()) {
      return Status::InvalidArgument(StrFormat(
          "%s uses %s with arity %zu (declared %zu)", context.c_str(),
          a.predicate().c_str(), a.arity(), it->second));
    }
  }
  return Status::Ok();
}

Status PdmsNetwork::AddStorageDescription(StorageDescription desc) {
  const Atom& head = desc.view.head();
  if (peer_relation_arity_.count(head.predicate()) > 0) {
    return Status::InvalidArgument(
        "stored relation name collides with a peer relation: " +
        head.predicate());
  }
  auto it = stored_relation_arity_.find(head.predicate());
  if (it != stored_relation_arity_.end() && it->second != head.arity()) {
    return Status::InvalidArgument(
        StrFormat("stored relation %s redeclared with arity %zu (was %zu)",
                  head.predicate().c_str(), head.arity(), it->second));
  }
  if (desc.name.empty()) {
    desc.name = StrFormat("storage#%zu", storage_.size());
  }
  if (desc.peer.empty() && !desc.view.body().empty()) {
    // The storing peer defaults to the owner of the first described
    // relation ("A:R" -> "A"); availability tracking keys off it.
    const std::string& qualified = desc.view.body()[0].predicate();
    desc.peer = qualified.substr(0, qualified.find(':'));
  }
  PDMS_RETURN_IF_ERROR(ValidateBody(desc.view, desc.name));
  PDMS_RETURN_IF_ERROR(desc.view.CheckSafe());
  stored_relation_arity_[head.predicate()] = head.arity();
  std::set<std::string> preds;
  preds.insert(head.predicate());
  for (const Atom& a : desc.view.body()) preds.insert(a.predicate());
  storage_.push_back(std::move(desc));
  ++revision_;
  LogChange(CatalogChange::Kind::kStorageAdded, std::move(preds));
  return Status::Ok();
}

Status PdmsNetwork::ValidateMapping(const PeerMapping& mapping) const {
  if (mapping.kind == PeerMappingKind::kDefinitional) {
    const Atom& head = mapping.rule.head();
    auto it = peer_relation_arity_.find(head.predicate());
    if (it == peer_relation_arity_.end()) {
      return Status::NotFound(
          StrFormat("%s defines undeclared peer relation %s",
                    mapping.name.c_str(), head.predicate().c_str()));
    }
    if (it->second != head.arity()) {
      return Status::InvalidArgument(
          StrFormat("%s head arity %zu (declared %zu)",
                    mapping.name.c_str(), head.arity(), it->second));
    }
    PDMS_RETURN_IF_ERROR(ValidateBody(mapping.rule, mapping.name));
    PDMS_RETURN_IF_ERROR(mapping.rule.CheckSafe());
  } else {
    if (!(mapping.lhs.head() == mapping.rhs.head())) {
      return Status::InvalidArgument(
          mapping.name +
          ": inclusion/equality sides must share one interface head");
    }
    PDMS_RETURN_IF_ERROR(ValidateBody(mapping.lhs, mapping.name + " (lhs)"));
    PDMS_RETURN_IF_ERROR(ValidateBody(mapping.rhs, mapping.name + " (rhs)"));
    PDMS_RETURN_IF_ERROR(mapping.lhs.CheckSafe());
    PDMS_RETURN_IF_ERROR(mapping.rhs.CheckSafe());
  }
  return Status::Ok();
}

Status PdmsNetwork::AddPeerMapping(PeerMapping mapping) {
  if (mapping.name.empty()) {
    mapping.name = StrFormat("mapping#%zu", mappings_.size());
  }
  PDMS_RETURN_IF_ERROR(ValidateMapping(mapping));
  std::set<std::string> preds = MappingTouchedPreds(mapping);
  mappings_.push_back(std::move(mapping));
  ++revision_;
  LogChange(CatalogChange::Kind::kMappingAdded, std::move(preds));
  return Status::Ok();
}

Status PdmsNetwork::RemovePeerMapping(const std::string& name) {
  for (size_t i = 0; i < mappings_.size(); ++i) {
    if (mappings_[i].name != name) continue;
    std::set<std::string> preds = MappingTouchedPreds(mappings_[i]);
    mappings_.erase(mappings_.begin() + static_cast<std::ptrdiff_t>(i));
    ++revision_;
    LogChange(CatalogChange::Kind::kMappingRemoved, std::move(preds));
    return Status::Ok();
  }
  return Status::NotFound("unknown peer mapping: " + name);
}

Status PdmsNetwork::ReplacePeerMapping(const std::string& name,
                                       PeerMapping next) {
  for (size_t i = 0; i < mappings_.size(); ++i) {
    if (mappings_[i].name != name) continue;
    if (next.name.empty()) next.name = name;
    PDMS_RETURN_IF_ERROR(ValidateMapping(next));
    std::set<std::string> preds = MappingTouchedPreds(mappings_[i]);
    for (const std::string& p : MappingTouchedPreds(next)) preds.insert(p);
    mappings_[i] = std::move(next);
    ++revision_;
    LogChange(CatalogChange::Kind::kMappingEdited, std::move(preds));
    return Status::Ok();
  }
  return Status::NotFound("unknown peer mapping: " + name);
}

bool PdmsNetwork::IsPeerRelation(const std::string& qualified) const {
  return peer_relation_arity_.count(qualified) > 0;
}

bool PdmsNetwork::IsStoredRelation(const std::string& name) const {
  return stored_relation_arity_.count(name) > 0;
}

Result<size_t> PdmsNetwork::RelationArity(const std::string& name) const {
  auto it = peer_relation_arity_.find(name);
  if (it != peer_relation_arity_.end()) return it->second;
  it = stored_relation_arity_.find(name);
  if (it != stored_relation_arity_.end()) return it->second;
  return Status::NotFound("unknown relation: " + name);
}

std::vector<std::string> PdmsNetwork::StoredRelationNames() const {
  std::vector<std::string> out;
  out.reserve(stored_relation_arity_.size());
  for (const auto& [name, arity] : stored_relation_arity_) {
    out.push_back(name);
  }
  return out;
}

Result<std::string> PdmsNetwork::StoredRelationPeer(
    const std::string& name) const {
  if (!IsStoredRelation(name)) {
    return Status::NotFound("not a stored relation: " + name);
  }
  for (const StorageDescription& d : storage_) {
    if (d.stored_atom().predicate() == name) return d.peer;
  }
  return Status::Internal("stored relation without storage description: " +
                          name);
}

std::vector<std::string> PdmsNetwork::StoredRelationPeers(
    const std::string& name) const {
  std::vector<std::string> out;
  for (const StorageDescription& d : storage_) {
    if (d.stored_atom().predicate() == name) out.push_back(d.peer);
  }
  return out;
}

Status PdmsNetwork::SetPeerAvailable(const std::string& peer,
                                     bool available) {
  bool declared = false;
  for (const Peer& p : peers_) declared = declared || p.name == peer;
  if (!declared) return Status::NotFound("unknown peer: " + peer);
  bool changed = available ? unavailable_peers_.erase(peer) > 0
                           : unavailable_peers_.insert(peer).second;
  if (changed) {
    ++availability_epoch_;
    LogChange(CatalogChange::Kind::kAvailability, StoredRelationsOf(peer));
  }
  return Status::Ok();
}

Status PdmsNetwork::SetStoredRelationAvailable(const std::string& name,
                                               bool available) {
  if (!IsStoredRelation(name)) {
    return Status::NotFound("not a stored relation: " + name);
  }
  bool changed = available ? unavailable_stored_.erase(name) > 0
                           : unavailable_stored_.insert(name).second;
  if (changed) {
    ++availability_epoch_;
    LogChange(CatalogChange::Kind::kAvailability, {name});
  }
  return Status::Ok();
}

void PdmsNetwork::LogChange(CatalogChange::Kind kind,
                            std::set<std::string> predicates) {
  CatalogChange change;
  change.kind = kind;
  change.seq = ++change_seq_;
  change.predicates = std::move(predicates);
  change_log_.push_back(std::move(change));
  while (change_log_.size() > kMaxChangeLog) change_log_.pop_front();
}

std::set<std::string> PdmsNetwork::StoredRelationsOf(
    const std::string& peer) const {
  std::set<std::string> out;
  for (const StorageDescription& d : storage_) {
    if (d.peer == peer) out.insert(d.stored_atom().predicate());
  }
  return out;
}

std::optional<std::vector<CatalogChange>> PdmsNetwork::ChangesSince(
    uint64_t from_seq) const {
  if (from_seq > change_seq_) return std::nullopt;  // consumer ahead of us
  if (from_seq == change_seq_) return std::vector<CatalogChange>{};
  // The log retains the last kMaxChangeLog changes; the oldest retained
  // seq is change_seq_ - size + 1, so the delta is complete only if
  // from_seq + 1 >= that.
  if (change_log_.empty() ||
      change_log_.front().seq > from_seq + 1) {
    return std::nullopt;
  }
  std::vector<CatalogChange> out;
  for (const CatalogChange& c : change_log_) {
    if (c.seq > from_seq) out.push_back(c);
  }
  return out;
}

bool PdmsNetwork::IsPeerAvailable(const std::string& peer) const {
  return unavailable_peers_.count(peer) == 0;
}

bool PdmsNetwork::IsStoredRelationAvailable(const std::string& name) const {
  if (unavailable_stored_.count(name) > 0) return false;
  for (const StorageDescription& d : storage_) {
    if (d.stored_atom().predicate() == name &&
        unavailable_peers_.count(d.peer) > 0) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> PdmsNetwork::UnavailablePeers() const {
  return std::vector<std::string>(unavailable_peers_.begin(),
                                  unavailable_peers_.end());
}

std::set<std::string> PdmsNetwork::UnavailableStoredRelations() const {
  std::set<std::string> out = unavailable_stored_;
  if (!unavailable_peers_.empty()) {
    for (const StorageDescription& d : storage_) {
      if (unavailable_peers_.count(d.peer) > 0) {
        out.insert(d.stored_atom().predicate());
      }
    }
  }
  return out;
}

namespace {

// True if every body variable also occurs in the head (no projection).
bool ProjectionFree(const ConjunctiveQuery& cq) {
  return cq.ExistentialVariables().empty();
}

// DFS cycle detection over the Definition-3.1 graph.
bool HasCycle(const std::map<std::string, std::set<std::string>>& graph) {
  std::map<std::string, int> state;  // 0 = new, 1 = on stack, 2 = done
  // Iterative DFS with explicit stack of (node, child iterator position).
  for (const auto& [start, ignored] : graph) {
    if (state[start] != 0) continue;
    std::vector<std::pair<std::string, std::vector<std::string>>> stack;
    auto push = [&](const std::string& node) {
      state[node] = 1;
      std::vector<std::string> children;
      auto it = graph.find(node);
      if (it != graph.end()) {
        children.assign(it->second.begin(), it->second.end());
      }
      stack.emplace_back(node, std::move(children));
    };
    push(start);
    while (!stack.empty()) {
      auto& [node, children] = stack.back();
      if (children.empty()) {
        state[node] = 2;
        stack.pop_back();
        continue;
      }
      std::string next = children.back();
      children.pop_back();
      if (state[next] == 1) return true;
      if (state[next] == 0) push(next);
    }
  }
  return false;
}

}  // namespace

Classification PdmsNetwork::Classify() const {
  Classification c;

  // Definition 3.1 graph: arc from every relation of Q1 to every relation
  // of Q2 for each inclusion peer mapping Q1 ⊆ Q2.
  std::map<std::string, std::set<std::string>> incl_graph;
  std::map<std::string, std::set<std::string>> def_graph;
  std::set<std::string> definitional_heads;
  std::set<std::string> rhs_relations;  // relations on RHS of any mapping

  for (const PeerMapping& m : mappings_) {
    switch (m.kind) {
      case PeerMappingKind::kInclusion: {
        for (const Atom& l : m.lhs.body()) {
          for (const Atom& r : m.rhs.body()) {
            incl_graph[l.predicate()].insert(r.predicate());
          }
        }
        for (const Atom& r : m.rhs.body()) {
          rhs_relations.insert(r.predicate());
        }
        if (!m.lhs.comparisons().empty() || !m.rhs.comparisons().empty()) {
          c.comparisons_outside_safe_positions = true;
        }
        break;
      }
      case PeerMappingKind::kEquality: {
        c.has_peer_equalities = true;
        if (!ProjectionFree(m.lhs) || !ProjectionFree(m.rhs)) {
          c.peer_equalities_projection_free = false;
        }
        for (const Atom& r : m.rhs.body()) rhs_relations.insert(r.predicate());
        for (const Atom& l : m.lhs.body()) rhs_relations.insert(l.predicate());
        if (!m.lhs.comparisons().empty() || !m.rhs.comparisons().empty()) {
          c.comparisons_outside_safe_positions = true;
        }
        break;
      }
      case PeerMappingKind::kDefinitional: {
        definitional_heads.insert(m.rule.head().predicate());
        for (const Atom& b : m.rule.body()) {
          def_graph[m.rule.head().predicate()].insert(b.predicate());
        }
        break;
      }
    }
  }
  for (const StorageDescription& d : storage_) {
    if (d.is_equality) {
      c.has_equality_storage = true;
      if (!ProjectionFree(d.view)) {
        c.storage_equalities_projection_free = false;
      }
    }
    // Comparison predicates in storage descriptions are in the safe set
    // (Theorem 3.3.1), so they do not flip the flag.
  }

  c.inclusions_acyclic = !HasCycle(incl_graph);
  c.definitional_recursive = HasCycle(def_graph);
  for (const std::string& head : definitional_heads) {
    if (rhs_relations.count(head) > 0) {
      c.definitional_heads_isolated = false;
    }
  }

  // Complexity per Theorems 3.1-3.3.
  bool equalities_ok = (!c.has_peer_equalities ||
                        c.peer_equalities_projection_free) &&
                       c.definitional_heads_isolated;
  if (!c.inclusions_acyclic) {
    c.complexity = QueryComplexity::kUndecidable;
  } else if (c.has_peer_equalities && !c.peer_equalities_projection_free) {
    c.complexity = QueryComplexity::kUndecidable;
  } else if (!equalities_ok) {
    // Definitional head feeding the RHS of another description leaves the
    // Theorem 3.2.1 fragment; the theorem's proof techniques put this in
    // the undecidable general case, so report conservatively.
    c.complexity = QueryComplexity::kUndecidable;
  } else if (c.has_equality_storage &&
             !c.storage_equalities_projection_free) {
    c.complexity = QueryComplexity::kCoNpComplete;  // Theorem 3.2.2
  } else if (c.comparisons_outside_safe_positions) {
    c.complexity = QueryComplexity::kCoNpComplete;  // Theorem 3.3.2
  } else {
    c.complexity = QueryComplexity::kPolynomial;
  }
  // A query with comparison predicates degrades PTIME to co-NP (Thm 3.3.2).
  c.complexity_with_query_comparisons =
      c.complexity == QueryComplexity::kPolynomial
          ? QueryComplexity::kCoNpComplete
          : c.complexity;
  return c;
}

std::string PdmsNetwork::ToString() const {
  std::string out;
  for (const Peer& p : peers_) {
    out += p.ToString();
    out += "\n";
  }
  for (const StorageDescription& d : storage_) {
    out += d.ToString();
    out += "\n";
  }
  for (const PeerMapping& m : mappings_) {
    out += m.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace pdms
