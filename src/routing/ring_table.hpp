// The address book of a static ring: every node's id, sorted into ring
// order, answering which node covers a key and who a node's neighbors are.
// routing::StaticRing routes over one, and every process of a socket ring
// derives the identical one from (node count, id-space bits, salt)
// (net::NetRing), which is what makes the sim-vs-socket equivalence test
// meaningful: both worlds place every key on the same node.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/ring_math.hpp"
#include "common/types.hpp"

namespace sdsi::routing {

class RingTable {
 public:
  /// `node_ids[i]` is the ring identifier of node index i: wrapped into
  /// `space` and distinct (typically hash_node_ids(count, space, salt)).
  RingTable(common::IdSpace space, std::vector<Key> node_ids)
      : space_(space), ids_(std::move(node_ids)) {
    SDSI_CHECK(!ids_.empty());
    sorted_.reserve(ids_.size());
    for (NodeIndex i = 0; i < ids_.size(); ++i) {
      SDSI_CHECK(ids_[i] == space.wrap(ids_[i]));
      sorted_.emplace_back(ids_[i], i);
    }
    std::sort(sorted_.begin(), sorted_.end());
    position_.resize(ids_.size());
    for (std::size_t pos = 0; pos < sorted_.size(); ++pos) {
      SDSI_CHECK(pos == 0 || sorted_[pos - 1].first != sorted_[pos].first);
      position_[sorted_[pos].second] = pos;
    }
  }

  const common::IdSpace& space() const noexcept { return space_; }
  std::size_t size() const noexcept { return ids_.size(); }
  Key id(NodeIndex node) const {
    SDSI_CHECK(node < ids_.size());
    return ids_[node];
  }

  /// The node responsible for `key`: first ring id >= key, wrapping to the
  /// smallest.
  NodeIndex successor_of_key(Key key) const {
    const auto it = std::lower_bound(
        sorted_.begin(), sorted_.end(), key,
        [](const std::pair<Key, NodeIndex>& entry, Key k) {
          return entry.first < k;
        });
    return it == sorted_.end() ? sorted_.front().second : it->second;
  }

  /// The node `steps` places clockwise of `node`.
  NodeIndex successor_index(NodeIndex node, std::size_t steps = 1) const {
    SDSI_CHECK(node < ids_.size());
    return sorted_[(position_[node] + steps) % sorted_.size()].second;
  }

  NodeIndex predecessor_index(NodeIndex node) const {
    return successor_index(node, sorted_.size() - 1);
  }

 private:
  common::IdSpace space_;
  std::vector<Key> ids_;                           // by node index
  std::vector<std::pair<Key, NodeIndex>> sorted_;  // ring order
  std::vector<std::size_t> position_;              // index -> ring position
};

}  // namespace sdsi::routing
