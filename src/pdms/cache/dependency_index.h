#ifndef PDMS_CACHE_DEPENDENCY_INDEX_H_
#define PDMS_CACHE_DEPENDENCY_INDEX_H_

#include <cstddef>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdms/core/rule_goal_tree.h"

namespace pdms {
namespace cache {

/// The inverted dependency index behind fine-grained invalidation
/// (docs/churn_invalidation.md): every cache entry registers its DepSet
/// footprint, and a catalog change asks for exactly the keys whose
/// footprint it touches through one predicate → keys postings map.
/// Description ids play no part: a cached plan embeds none, so a catalog
/// edit that renumbers descriptions stales only the entries whose
/// predicates it touches. Not thread-safe on its own — the owning cache's
/// mutex serializes it along with the entry map.
class DependencyIndex {
 public:
  /// Registers (or re-registers) `key` with its footprint. Replacing an
  /// existing key first unregisters the old footprint.
  void Add(const std::string& key, const DepSet& deps) {
    Remove(key);
    for (const std::string& pred : deps.predicates) {
      by_pred_[pred].insert(key);
    }
    footprints_[key] = deps;
  }

  void Remove(const std::string& key) {
    auto it = footprints_.find(key);
    if (it == footprints_.end()) return;
    for (const std::string& pred : it->second.predicates) {
      auto p = by_pred_.find(pred);
      if (p == by_pred_.end()) continue;
      p->second.erase(key);
      if (p->second.empty()) by_pred_.erase(p);
    }
    footprints_.erase(it);
  }

  /// The keys whose footprint mentions any of `predicates`. Sorted and
  /// deduplicated.
  std::vector<std::string> Match(
      const std::set<std::string>& predicates) const {
    std::set<std::string> keys;
    for (const std::string& pred : predicates) {
      auto it = by_pred_.find(pred);
      if (it == by_pred_.end()) continue;
      keys.insert(it->second.begin(), it->second.end());
    }
    return std::vector<std::string>(keys.begin(), keys.end());
  }

  void Clear() {
    by_pred_.clear();
    footprints_.clear();
  }

  size_t size() const { return footprints_.size(); }

 private:
  std::unordered_map<std::string, std::set<std::string>> by_pred_;
  std::unordered_map<std::string, DepSet> footprints_;
};

}  // namespace cache
}  // namespace pdms

#endif  // PDMS_CACHE_DEPENDENCY_INDEX_H_
