#ifndef PDMS_LANG_CANONICAL_H_
#define PDMS_LANG_CANONICAL_H_

#include <string>

#include "pdms/lang/conjunctive_query.h"

namespace pdms {

/// Renames the variables of `cq` to v0, v1, ... in first-appearance order
/// (head first). Two syntactically-isomorphic queries canonicalize to equal
/// structures.
ConjunctiveQuery CanonicalRename(const ConjunctiveQuery& cq);

/// A normalization key for a conjunctive query: canonical-renames, sorts the
/// body atoms and comparisons textually, and repeats until the text reaches
/// a fixpoint (bounded number of rounds). Queries equal up to variable
/// renaming and body reordering get equal keys; this is a syntactic dedup
/// aid, not a full equivalence test (see homomorphism.h for that).
std::string CanonicalQueryKey(const ConjunctiveQuery& cq);

}  // namespace pdms

#endif  // PDMS_LANG_CANONICAL_H_
