#ifndef GRAPE_GRAPH_ID_INDEXER_H_
#define GRAPE_GRAPH_ID_INDEXER_H_

#include <unordered_map>
#include <vector>

#include "graph/types.h"

namespace grape {

/// Bidirectional mapping between global vertex ids and dense local indices.
/// Fragments use one indexer for inner vertices and one for outer (mirror)
/// vertices.
class IdIndexer {
 public:
  /// Returns the local index of `gid`, inserting it if unseen.
  LocalId GetOrInsert(VertexId gid) {
    auto [it, inserted] = index_.try_emplace(
        gid, static_cast<LocalId>(gid_by_lid_.size()));
    if (inserted) gid_by_lid_.push_back(gid);
    return it->second;
  }

  /// Sizes the indexer for `n` ids, so inserting them never rehashes.
  void Reserve(size_t n) {
    index_.reserve(n);
    gid_by_lid_.reserve(n);
  }

  /// Returns the local index of `gid`, or kInvalidLocal if absent.
  LocalId Find(VertexId gid) const {
    auto it = index_.find(gid);
    return it == index_.end() ? kInvalidLocal : it->second;
  }

  bool Contains(VertexId gid) const { return index_.count(gid) > 0; }

  VertexId GidOf(LocalId lid) const { return gid_by_lid_[lid]; }

  size_t size() const { return gid_by_lid_.size(); }

  const std::vector<VertexId>& gids() const { return gid_by_lid_; }

 private:
  std::unordered_map<VertexId, LocalId> index_;
  std::vector<VertexId> gid_by_lid_;
};

}  // namespace grape

#endif  // GRAPE_GRAPH_ID_INDEXER_H_
