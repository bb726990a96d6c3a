#ifndef PDMS_DATA_RELATION_H_
#define PDMS_DATA_RELATION_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdms/data/value.h"
#include "pdms/util/check.h"

namespace pdms {

/// A tuple is a fixed-arity row of values.
using Tuple = std::vector<Value>;

/// Hash of a whole tuple (order-sensitive).
uint64_t TupleHash(const Tuple& tuple);

/// Renders `(1, "a", _N3)`.
std::string TupleToString(const Tuple& tuple);

/// True if any component of the tuple is a labeled null. Certain answers
/// must be null-free (Definition 2.2 quantifies over all consistent
/// instances, and a null can denote any value).
bool TupleHasNull(const Tuple& tuple);

/// An extensional relation instance: a named bag of same-arity tuples with
/// set semantics enforced on insert (the paper's queries are set-oriented).
class Relation {
 public:
  Relation(std::string name, size_t arity)
      : name_(std::move(name)), arity_(arity) {}

  const std::string& name() const { return name_; }
  size_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Inserts a tuple; returns true if it was not already present.
  /// The tuple's size must equal the relation arity.
  bool Insert(Tuple tuple);

  /// True if the tuple is present.
  bool Contains(const Tuple& tuple) const;

  /// Moves the tuple vector out, leaving this relation empty (name and
  /// arity are kept). The union-merge path uses this to move tuples
  /// between relations instead of copying each row.
  std::vector<Tuple> TakeTuples();

  /// Set-union merge: inserts every tuple of `other` (which must have the
  /// same arity), moving rather than copying; `other` is left empty.
  void MergeFrom(Relation&& other);

  /// Removes all tuples.
  void Clear();

  /// Sorts the tuples into the canonical order (lexicographic under
  /// Value::operator<) and rebuilds the dedup index. The vectorized
  /// engine (src/pdms/qp/) canonicalizes every answer relation so results
  /// are byte-identical across execution strategies and cache states
  /// (docs/query_planning.md).
  void SortCanonical();

  /// Counts destructive mutations (Clear, TakeTuples, SortCanonical):
  /// anything that can reorder or remove rows. Insert/MergeFrom only
  /// append, so a reader that cached `(rebuild_version(), size())` can
  /// tell "unchanged" and "suffix appended" apart from "must re-read" —
  /// the qp columnar catalog keeps its twin current this way.
  uint64_t rebuild_version() const { return rebuild_version_; }

  /// Multi-line dump for debugging and example output.
  std::string ToString() const;

 private:
  std::string name_;
  size_t arity_;
  std::vector<Tuple> tuples_;
  // Dedup index: tuple hash -> indices into tuples_ with that hash.
  std::unordered_multimap<uint64_t, size_t> index_;
  uint64_t rebuild_version_ = 0;  // see rebuild_version()
};

}  // namespace pdms

#endif  // PDMS_DATA_RELATION_H_
