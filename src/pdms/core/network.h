#ifndef PDMS_CORE_NETWORK_H_
#define PDMS_CORE_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "pdms/core/ppl.h"
#include "pdms/util/status.h"

namespace pdms {

/// The Section-3 complexity of finding all certain answers for a network.
enum class QueryComplexity {
  /// All certain answers computable in PTIME; the reformulation algorithm
  /// is complete (Theorems 3.1.2, 3.2.1, 3.3.1).
  kPolynomial,
  /// co-NP-complete (Theorems 3.2.2/3.2.3, 3.3.2); reformulation returns
  /// only (but not necessarily all) certain answers.
  kCoNpComplete,
  /// Undecidable in general (Theorem 3.1.1); reformulation is sound and
  /// terminating but incomplete.
  kUndecidable,
};

const char* QueryComplexityName(QueryComplexity c);

/// Structural analysis of a PDMS specification per Section 3.
struct Classification {
  bool inclusions_acyclic = true;        // Definition 3.1
  bool has_peer_equalities = false;
  bool has_equality_storage = false;
  bool peer_equalities_projection_free = true;
  bool storage_equalities_projection_free = true;
  bool definitional_heads_isolated = true;  // Thm 3.2.1 condition (2)
  bool definitional_recursive = false;
  bool comparisons_outside_safe_positions = false;  // Thm 3.3 condition

  /// Overall complexity of query answering for comparison-free queries.
  QueryComplexity complexity = QueryComplexity::kPolynomial;

  /// Complexity when the query itself contains comparison predicates
  /// (Theorem 3.3.2 degrades PTIME cases to co-NP).
  QueryComplexity complexity_with_query_comparisons =
      QueryComplexity::kPolynomial;

  /// Human-readable multi-line justification.
  std::string Explain() const;
};

/// One catalog mutation, recorded in the network's bounded change log so
/// dependency-tracked caches (docs/churn_invalidation.md) can invalidate
/// only the entries whose footprint intersects the change instead of
/// clearing wholesale on every revision bump.
struct CatalogChange {
  enum class Kind {
    kPeerAdded,
    kStorageAdded,
    kMappingAdded,
    kMappingRemoved,
    kMappingEdited,
    kAvailability,
  };

  Kind kind = Kind::kPeerAdded;
  /// Position in the global change sequence (1-based; `change_seq()` is
  /// the seq of the latest change).
  uint64_t seq = 0;
  /// The predicates whose candidate sets this change directly touches:
  /// the head of an added/removed definitional mapping, the RHS (and for
  /// equalities also LHS) body relations of an inclusion, a storage
  /// description's body relations plus its stored name, or the stored
  /// relations whose availability flipped. Transitive effects (a change
  /// deep in a chain resurrecting a dead end upstream) are derived by the
  /// cache-side analyzer from a reachability diff, not recorded here.
  std::set<std::string> predicates;
};

const char* CatalogChangeKindName(CatalogChange::Kind kind);

/// The full specification of a PDMS `N = (peers, schemas, stored relations,
/// peer mappings L_N, storage descriptions D_N)` — Section 2's definition.
/// This is a catalog only; data lives in a `Database` keyed by stored
/// relation names.
class PdmsNetwork {
 public:
  PdmsNetwork() = default;

  /// Registers a peer schema. Peer names and per-peer relation names must
  /// be unique.
  Status AddPeer(Peer peer);

  /// Convenience: registers a peer with the given `relation/arity` specs,
  /// e.g. AddPeer("H", {{"Doctor", 5}, {"Patient", 3}}).
  Status AddPeer(const std::string& name,
                 std::vector<std::pair<std::string, size_t>> relations);

  /// Registers a storage description; the stored relation is declared
  /// implicitly by its head atom. Validates that body atoms reference
  /// declared peer relations with correct arities.
  Status AddStorageDescription(StorageDescription desc);

  /// Registers a peer mapping; validates relation references, head
  /// compatibility (identical interface heads for inclusions/equalities)
  /// and safety.
  Status AddPeerMapping(PeerMapping mapping);

  /// Removes the named peer mapping (churn: a peer retracting a semantic
  /// link). Later mappings keep their relative order but their description
  /// ids shift, which the logged change records.
  Status RemovePeerMapping(const std::string& name);

  /// Replaces the named peer mapping in place with `next` (validated like
  /// AddPeerMapping). `next` inherits the old name when its own is empty.
  Status ReplacePeerMapping(const std::string& name, PeerMapping next);

  const std::vector<Peer>& peers() const { return peers_; }
  const std::vector<StorageDescription>& storage_descriptions() const {
    return storage_;
  }
  const std::vector<PeerMapping>& peer_mappings() const { return mappings_; }

  /// True if `qualified` ("Peer:Relation") is a declared peer relation.
  bool IsPeerRelation(const std::string& qualified) const;

  /// True if `name` is a declared stored relation.
  bool IsStoredRelation(const std::string& name) const;

  /// Arity of a peer relation or stored relation.
  Result<size_t> RelationArity(const std::string& name) const;

  /// Names of all stored relations, sorted.
  std::vector<std::string> StoredRelationNames() const;

  /// The peer serving a stored relation (from its first storage
  /// description); error if the name is not a stored relation.
  Result<std::string> StoredRelationPeer(const std::string& name) const;

  /// Every peer declaring a storage description for `name`, in description
  /// order (the first entry is the legacy StoredRelationPeer choice).
  /// Replicated stored relations — several descriptions sharing one head —
  /// give the cost-aware coordinator a provider choice; empty if the name
  /// is not a stored relation.
  std::vector<std::string> StoredRelationPeers(const std::string& name) const;

  // --- Availability (robustness layer) ---
  //
  // Peers in a PDMS come and go; the catalog tracks which are reachable
  // right now. Availability is *state*, not specification: toggling it
  // does not change the mappings and does not invalidate normalization
  // (`revision()` is unchanged) — the reformulator simply treats stored
  // relations of down peers as unusable sources for the query at hand.

  /// Marks a peer reachable/unreachable. Error if the peer is undeclared.
  Status SetPeerAvailable(const std::string& peer, bool available);
  /// Marks a single stored relation reachable/unreachable (finer-grained
  /// than a whole peer). Error if the name is not a stored relation.
  Status SetStoredRelationAvailable(const std::string& name, bool available);

  /// True unless the peer was marked unavailable.
  bool IsPeerAvailable(const std::string& peer) const;
  /// True unless the relation — or the peer serving it — is unavailable.
  bool IsStoredRelationAvailable(const std::string& name) const;

  /// Peers currently marked unavailable, sorted.
  std::vector<std::string> UnavailablePeers() const;
  /// Stored relations that cannot be scanned right now: marked down
  /// themselves, or served by a down peer.
  std::set<std::string> UnavailableStoredRelations() const;

  /// Monotonic counter bumped by every *catalog* mutation (AddPeer,
  /// AddStorageDescription, AddPeerMapping). Cached normalizations are
  /// valid exactly as long as the revision they were built at.
  uint64_t revision() const { return revision_; }

  /// Monotonic counter bumped whenever the availability *state* actually
  /// changes (SetPeerAvailable / SetStoredRelationAvailable flipping a
  /// peer or relation; redundant calls don't count). Availability never
  /// bumps `revision()` — normalizations stay valid — but cached query
  /// *plans* prune unavailable sources, so they are valid only for the
  /// (revision, availability_epoch) pair they were built at
  /// (docs/plan_cache.md).
  uint64_t availability_epoch() const { return availability_epoch_; }

  // --- Change log (dependency-tracked invalidation) ---
  //
  // Every catalog mutation — including availability flips — appends one
  // CatalogChange to a bounded log. Caches remember the last sequence
  // number they digested and ask for the delta instead of clearing on
  // every revision/epoch bump (docs/churn_invalidation.md).

  /// Sequence number of the latest change (0 = pristine network).
  uint64_t change_seq() const { return change_seq_; }

  /// The changes with seq > `from_seq`, oldest first. Returns nullopt when
  /// the log no longer retains that far back (the consumer fell more than
  /// the retention window behind and must do a full reset).
  std::optional<std::vector<CatalogChange>> ChangesSince(
      uint64_t from_seq) const;

  /// Structural complexity analysis (Section 3).
  Classification Classify() const;

  /// Full textual spec (round-trips through the PPL parser).
  std::string ToString() const;

 private:
  Status ValidateBody(const ConjunctiveQuery& cq,
                      const std::string& context) const;
  Status ValidateMapping(const PeerMapping& mapping) const;
  void LogChange(CatalogChange::Kind kind, std::set<std::string> predicates);
  /// Stored relations served by `peer` (availability-flip footprint).
  std::set<std::string> StoredRelationsOf(const std::string& peer) const;

  std::vector<Peer> peers_;
  std::vector<StorageDescription> storage_;
  std::vector<PeerMapping> mappings_;
  std::map<std::string, size_t> peer_relation_arity_;  // qualified -> arity
  std::map<std::string, size_t> stored_relation_arity_;
  std::set<std::string> unavailable_peers_;
  std::set<std::string> unavailable_stored_;
  uint64_t revision_ = 0;
  uint64_t availability_epoch_ = 0;
  // Bounded retention: enough for any realistic query-to-query delta; a
  // consumer further behind resets wholesale, which is always sound.
  static constexpr size_t kMaxChangeLog = 256;
  std::deque<CatalogChange> change_log_;
  uint64_t change_seq_ = 0;
};

}  // namespace pdms

#endif  // PDMS_CORE_NETWORK_H_
