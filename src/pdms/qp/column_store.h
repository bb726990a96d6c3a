#ifndef PDMS_QP_COLUMN_STORE_H_
#define PDMS_QP_COLUMN_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdms/data/relation.h"
#include "pdms/obs/metrics.h"

namespace pdms {
namespace qp {

/// Rows processed per inner-loop batch by the vectorized operators. Large
/// enough to amortize per-batch dispatch, small enough that a batch of
/// codes for a handful of columns stays cache-resident.
inline constexpr size_t kBatchRows = 1024;

/// A fixed-width encoded cell: the value kind plus a 64-bit payload (the
/// integer itself, the labeled-null id, or the dictionary id of a string).
/// Two codes from the same dictionary are equal iff the Values they encode
/// are equal, so joins and duplicate elimination run on 16-byte
/// comparisons with no string traffic.
struct Code {
  int64_t payload = 0;
  uint8_t kind = 0;  // Value::Kind

  bool operator==(const Code& o) const {
    return kind == o.kind && payload == o.payload;
  }
  bool operator!=(const Code& o) const { return !(*this == o); }
};

inline uint64_t CodeHash(const Code& c) {
  uint64_t h = static_cast<uint64_t>(c.payload) + 0x9e3779b97f4a7c15ULL +
               (static_cast<uint64_t>(c.kind) << 56);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

/// Append-only string dictionary shared by every columnar relation of one
/// engine. Ids are assigned in first-intern order, so a given conversion
/// sequence is deterministic; ids are private to the engine and never
/// escape into answers (projection decodes back to Values).
class StringDict {
 public:
  uint32_t Intern(const std::string& s);
  /// The id of `s` if it was ever interned; nullopt otherwise (a constant
  /// that appears in no stored column can match nothing by equality).
  std::optional<uint32_t> Find(const std::string& s) const;
  const std::string& At(size_t id) const { return strings_[id]; }
  size_t size() const { return strings_.size(); }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, uint32_t> ids_;
};

/// One column of codes held as two parallel arrays, payloads and kinds, so
/// a resident cell costs 9 bytes rather than a padded 16-byte Code. The
/// catalog keeps every converted relation for the facade's lifetime, so
/// this is most of its heap.
class CodeColumn {
 public:
  Code operator[](size_t row) const { return Code{payload_[row], kind_[row]}; }
  void Append(const Code& c) {
    payload_.push_back(c.payload);
    kind_.push_back(c.kind);
  }
  size_t size() const { return payload_.size(); }

 private:
  std::vector<int64_t> payload_;
  std::vector<uint8_t> kind_;
};

/// The columnar twin of one Relation: one code column per relation
/// column, rows in the relation's insertion order (row i of every column
/// is tuple i).
struct ColumnarRelation {
  size_t arity = 0;
  size_t rows = 0;
  std::vector<CodeColumn> cols;
};

/// Per-relation statistics the cost-based planner consumes: cardinality
/// and per-column distinct-value counts (hash-based, exact modulo 64-bit
/// hash collisions). Maintained incrementally as rows are appended.
struct TableStats {
  size_t rows = 0;
  std::vector<size_t> distinct;

  /// Estimated rows matching an equality selection on `col`.
  double SelectEq(size_t col) const {
    if (col >= distinct.size() || distinct[col] == 0) return 0;
    return static_cast<double>(rows) / static_cast<double>(distinct[col]);
  }
};

/// Open-addressing hash index from 64-bit key hashes to chains of entry
/// indices. Everything lives in flat vectors — no per-bucket allocation,
/// and a probe usually touches one cache line before walking its chain.
/// Chains iterate in ascending entry order regardless of build order, so
/// probe output order — and with it the whole execution — stays a pure
/// function of the data (docs/query_planning.md, determinism rules).
class FlatTable {
 public:
  /// Builds from one key hash per entry; capacity is the next power of two
  /// at least twice the entry count, so linear probing always terminates.
  void Build(const std::vector<uint64_t>& hashes);

  /// First entry index whose key hash equals `h`, or -1.
  int32_t Head(uint64_t h) const {
    if (slot_head_.empty()) return -1;
    size_t j = h & mask_;
    while (slot_head_[j] >= 0) {
      if (slot_hash_[j] == h) return slot_head_[j];
      j = (j + 1) & mask_;
    }
    return -1;
  }

  /// The entry chained after `idx` under the same hash, or -1.
  int32_t Next(int32_t idx) const { return next_[idx]; }

 private:
  size_t mask_ = 0;
  std::vector<int32_t> slot_head_;   // -1 = empty slot
  std::vector<uint64_t> slot_hash_;  // key hash resident in the slot
  std::vector<int32_t> next_;        // per entry: chain successor
};

/// Open-addressing set of 64-bit hashes, a sibling of FlatTable: one flat
/// slot vector, linear probing, no per-element allocation. Slot value 0
/// marks an empty slot, so the key 0 itself is tracked by a separate flag.
/// Backs the per-column distinct counts of ColumnarCatalog: 8 bytes per
/// slot at a load of at most 3/4, and no heap node per value.
class FlatHashSet {
 public:
  /// Adds `h`; true when it was not present yet.
  bool Insert(uint64_t h);

 private:
  void Grow();

  size_t mask_ = 0;
  size_t count_ = 0;             // non-zero keys resident in slots_
  bool has_zero_ = false;
  std::vector<uint64_t> slots_;  // 0 = empty slot
};

/// A hash table over the join-key columns of a (filtered) stored relation,
/// built once and cached until the relation changes: the index chains
/// entries in `rows` order, keeping probe output deterministic. Cached
/// tables are what lets a hot serving query skip straight to probing.
struct JoinTable {
  std::vector<size_t> key_cols;  // first-occurrence columns
  std::vector<uint32_t> rows;    // filtered row ids, in row order
  FlatTable index;               // entry i <-> rows[i]
};

/// Caches the columnar twins, their statistics, and the per-relation join
/// tables of one engine, keyed by relation name. Conversion is incremental:
/// an entry tracks `(source pointer, rebuild_version, rows)`, so an
/// append-only insert converts just the new suffix (this is how "stats are
/// collected incrementally on fact insert" lands — Pdms::Insert touches
/// the entry eagerly), while a destructive mutation or a different source
/// relation rebuilds from scratch.
///
/// Not internally synchronized: one catalog belongs to one engine. Callers
/// Ensure every relation (and prebuild join tables) before executing;
/// execution then only reads.
class ColumnarCatalog {
 public:
  /// Converts (or incrementally refreshes) the columnar twin of `rel`.
  /// With a registry attached, accumulates `qp.stats_rows_appended` /
  /// `qp.stats_rebuilds`.
  const ColumnarRelation* Ensure(const Relation& rel,
                                 obs::MetricsRegistry* metrics = nullptr);

  /// The columnar twin of an ensured relation; null if never ensured.
  const ColumnarRelation* Find(const std::string& name) const;

  /// Statistics of an ensured relation; null if never ensured.
  const TableStats* stats(const std::string& name) const;

  /// The cached join table for `signature` on an ensured relation, or
  /// null. Signatures encode key columns plus the scan filters the table
  /// was built over.
  const JoinTable* FindJoinTable(const std::string& relation,
                                 const std::string& signature) const;
  /// Stores a built table (droped automatically when the relation's rows
  /// change). A small per-relation cap guards memory.
  const JoinTable* StoreJoinTable(const std::string& relation,
                                  const std::string& signature,
                                  JoinTable table);

  StringDict* dict() { return &dict_; }
  const StringDict& dict() const { return dict_; }

  Code Encode(const Value& v);
  /// Encodes without interning: a string missing from the dictionary
  /// yields nullopt (it cannot equal any stored cell).
  std::optional<Code> EncodeExisting(const Value& v) const;
  Value Decode(const Code& c) const;

  /// A fingerprint over the statistics of the named relations (rows +
  /// distinct counts). Physical plans embed it; a mismatch at execution
  /// time forces a replan (docs/query_planning.md, plan caching).
  uint64_t StatsFingerprint(const std::vector<std::string>& relations) const;

 private:
  struct Entry {
    const Relation* src = nullptr;
    uint64_t rebuild_version = 0;
    ColumnarRelation data;
    TableStats stats;
    // Per column; empty unless the relation has grown by appends since its
    // last whole conversion (see AppendRows).
    std::vector<FlatHashSet> distinct_hashes;
    std::map<std::string, std::unique_ptr<JoinTable>> join_tables;
  };

  void AppendRows(Entry* entry, const Relation& rel, size_t from_row);

  std::map<std::string, Entry, std::less<>> entries_;
  StringDict dict_;
};

/// Converts a columnar relation (plus the dictionary that encoded it) back
/// to a row Relation, preserving row order. Round-trips exactly
/// (tests/qp_test.cc).
Relation ToRowRelation(const std::string& name, const ColumnarRelation& col,
                       const StringDict& dict);

}  // namespace qp
}  // namespace pdms

#endif  // PDMS_QP_COLUMN_STORE_H_
