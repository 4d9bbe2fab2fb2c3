#include "routing/static_ring.hpp"

#include <string>
#include <unordered_set>

#include "common/check.hpp"
#include "common/sha1.hpp"

namespace sdsi::routing {

StaticRing::StaticRing(sim::Simulator& simulator, common::IdSpace space,
                       std::vector<Key> node_ids)
    : RoutingSystem(simulator, space, kHopLatency),
      table_(space, std::move(node_ids)) {}

void StaticRing::route_to_key(NodeIndex from, Key key, Message msg) {
  const NodeIndex dst = find_successor_oracle(key);
  if (dst == from) {
    // Local responsibility: deliver without network latency.
    schedule_msg(sim::Duration(), std::move(msg),
                 [this, dst](Message m) { deliver_at(dst, std::move(m)); });
    return;
  }
  msg.hops = 1;
  schedule_msg(transmission_latency(), std::move(msg),
               [this, dst](Message m) { deliver_at(dst, std::move(m)); });
}

void StaticRing::route_direct(NodeIndex from, NodeIndex to, Message msg) {
  SDSI_CHECK(to < table_.size());
  msg.hops = from == to ? 0 : 1;
  const sim::Duration delay =
      from == to ? sim::Duration() : transmission_latency();
  schedule_msg(delay, std::move(msg),
               [this, to](Message m) { deliver_at(to, std::move(m)); });
}

std::vector<Key> hash_node_ids(std::size_t count, const common::IdSpace& space,
                               std::uint64_t salt) {
  std::vector<Key> ids;
  ids.reserve(count);
  std::unordered_set<Key> used;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t attempt = 0;
    Key id;
    do {
      const std::string address = "node:" + std::to_string(salt) + ":" +
                                  std::to_string(i) + ":" +
                                  std::to_string(attempt);
      id = space.wrap(common::sha1_prefix64(address));
      ++attempt;
    } while (used.contains(id));
    used.insert(id);
    ids.push_back(id);
  }
  return ids;
}

}  // namespace sdsi::routing
