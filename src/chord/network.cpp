#include "chord/network.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace sdsi::chord {

ChordNetwork::ChordNetwork(sim::Simulator& simulator, ChordConfig config)
    : RoutingSystem(simulator, common::IdSpace(config.id_bits),
                    routing::kHopLatency),
      config_(config) {
  SDSI_CHECK(config_.successor_list_length >= 1);
}

NodeIndex ChordNetwork::create_node(Key id) {
  SDSI_CHECK(id == id_space().wrap(id));
  NodeState node;
  node.id = id;
  node.alive = true;
  node.fingers = FingerTable(config_.id_bits);
  nodes_.push_back(std::move(node));
  ++alive_count_;
  return static_cast<NodeIndex>(nodes_.size() - 1);
}

void ChordNetwork::bootstrap(std::span<const Key> ids) {
  SDSI_CHECK(nodes_.empty());
  std::unordered_set<Key> seen;
  for (const Key id : ids) {
    SDSI_CHECK(seen.insert(id).second);
    create_node(id);
  }
  rebuild_oracle();
  rebuild_routing_state();
}

void ChordNetwork::rebuild_oracle() {
  oracle_.clear();
  oracle_.reserve(alive_count_);
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].alive) {
      oracle_.emplace_back(nodes_[i].id, i);
    }
  }
  std::sort(oracle_.begin(), oracle_.end());
}

NodeIndex ChordNetwork::find_successor_oracle(Key key) const {
  SDSI_CHECK(!oracle_.empty());
  const auto it = std::lower_bound(
      oracle_.begin(), oracle_.end(), key,
      [](const std::pair<Key, NodeIndex>& entry, Key k) {
        return entry.first < k;
      });
  return it == oracle_.end() ? oracle_.front().second : it->second;
}

void ChordNetwork::rebuild_routing_state() {
  rebuild_oracle();
  SDSI_CHECK(!oracle_.empty());
  const std::size_t n = oracle_.size();
  for (std::size_t p = 0; p < n; ++p) {
    const NodeIndex idx = oracle_[p].second;
    NodeState& node = nodes_[idx];
    node.successor = oracle_[(p + 1) % n].second;
    node.predecessor = oracle_[(p + n - 1) % n].second;
    node.successor_list.clear();
    for (std::size_t s = 1; s <= config_.successor_list_length; ++s) {
      node.successor_list.push_back(oracle_[(p + s) % n].second);
    }
    for (unsigned i = 0; i < config_.id_bits; ++i) {
      node.fingers.set(i, find_successor_oracle(
                              id_space().finger_start(node.id, i)));
    }
  }
}

NodeIndex ChordNetwork::join(Key id, NodeIndex via) {
  SDSI_CHECK(is_alive(via));
  const NodeIndex newcomer = create_node(id);
  NodeState& node = nodes_[newcomer];
  // find_successor(id) over current protocol state, asked through `via`.
  const routing::LookupTrace trace = trace_lookup(via, id);
  SDSI_CHECK(trace.result != kInvalidNode);
  node.successor = trace.result;
  node.predecessor = kInvalidNode;
  node.successor_list.assign(1, trace.result);
  for (unsigned i = 0; i < config_.id_bits; ++i) {
    node.fingers.set(i, trace.result);  // refined by fix_finger over time
  }
  rebuild_oracle();
  return newcomer;
}

void ChordNetwork::leave(NodeIndex node) {
  SDSI_CHECK(is_alive(node));
  NodeState& leaving = nodes_[node];
  // Graceful: splice the ring around the departing node.
  const NodeIndex succ = live_successor(node);
  const NodeIndex pred = leaving.predecessor;
  if (succ != kInvalidNode && succ != node && nodes_[succ].alive) {
    nodes_[succ].predecessor = pred;
  }
  if (pred != kInvalidNode && pred != node && nodes_[pred].alive) {
    nodes_[pred].successor = succ;
    if (!nodes_[pred].successor_list.empty()) {
      nodes_[pred].successor_list.front() = succ;
    }
  }
  leaving.alive = false;
  --alive_count_;
  rebuild_oracle();
}

void ChordNetwork::crash(NodeIndex node) {
  SDSI_CHECK(is_alive(node));
  nodes_[node].alive = false;
  --alive_count_;
  rebuild_oracle();  // only the oracle learns instantly; peers must stabilize
}

void ChordNetwork::recover(NodeIndex node, NodeIndex via) {
  SDSI_CHECK(node < nodes_.size() && !nodes_[node].alive);
  SDSI_CHECK(is_alive(via) && via != node);
  NodeState& state = nodes_[node];
  state.alive = true;
  ++alive_count_;
  const routing::LookupTrace trace = trace_lookup(via, state.id);
  SDSI_CHECK(trace.result != kInvalidNode);
  state.successor = trace.result;
  state.predecessor = kInvalidNode;
  state.successor_list.assign(1, trace.result);
  for (unsigned i = 0; i < config_.id_bits; ++i) {
    state.fingers.set(i, trace.result);  // refined by fix_finger over time
  }
  rebuild_oracle();
}

NodeIndex ChordNetwork::live_successor(NodeIndex node) const {
  const NodeState& state = nodes_[node];
  if (state.successor != kInvalidNode && nodes_[state.successor].alive) {
    return state.successor;
  }
  for (const NodeIndex candidate : state.successor_list) {
    if (candidate != kInvalidNode && nodes_[candidate].alive &&
        candidate != node) {
      return candidate;
    }
  }
  return node;  // last node standing points at itself
}

void ChordNetwork::refresh_successor_list(NodeIndex node) {
  NodeState& state = nodes_[node];
  const NodeIndex succ = live_successor(node);
  state.successor = succ;
  // Adopt successor's list shifted by one (the protocol's list refresh).
  std::vector<NodeIndex> fresh;
  fresh.reserve(config_.successor_list_length);
  fresh.push_back(succ);
  for (const NodeIndex entry : nodes_[succ].successor_list) {
    if (fresh.size() >= config_.successor_list_length) {
      break;
    }
    if (entry != kInvalidNode && nodes_[entry].alive && entry != node) {
      fresh.push_back(entry);
    }
  }
  state.successor_list = std::move(fresh);
}

void ChordNetwork::stabilize(NodeIndex node) {
  if (!is_alive(node)) {
    return;
  }
  NodeState& state = nodes_[node];
  NodeIndex succ = live_successor(node);
  // Ask successor for its predecessor; adopt it if it sits between us. A
  // self-successor means this node believes it is alone, in which case any
  // other node its "successor" has heard from is an improvement (the (a, a)
  // open interval is the whole ring in Chord's convention).
  const NodeIndex between = nodes_[succ].predecessor;
  if (between != kInvalidNode && nodes_[between].alive && between != node &&
      (succ == node ||
       id_space().in_open(nodes_[between].id, state.id, nodes_[succ].id))) {
    succ = between;
  }
  state.successor = succ;
  // notify(succ): we believe we are its predecessor. A successor whose
  // predecessor pointer aims at itself also believes it is alone, so it
  // accepts anyone.
  NodeState& successor_state = nodes_[succ];
  const NodeIndex current_pred = successor_state.predecessor;
  if (succ != node &&
      (current_pred == kInvalidNode || !nodes_[current_pred].alive ||
       current_pred == succ ||
       id_space().in_open(state.id, nodes_[current_pred].id,
                          successor_state.id))) {
    successor_state.predecessor = node;
  }
  refresh_successor_list(node);
}

void ChordNetwork::fix_finger(NodeIndex node, unsigned finger) {
  if (!is_alive(node)) {
    return;
  }
  SDSI_CHECK(finger < config_.id_bits);
  const Key start = id_space().finger_start(nodes_[node].id, finger);
  const routing::LookupTrace trace = trace_lookup(node, start);
  if (trace.result != kInvalidNode) {
    nodes_[node].fingers.set(finger, trace.result);
  }
}

void ChordNetwork::run_maintenance_rounds(int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (NodeIndex i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].alive) {
        stabilize(i);
      }
    }
    for (NodeIndex i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i].alive) {
        continue;
      }
      for (unsigned f = 0; f < config_.id_bits; ++f) {
        fix_finger(i, f);
      }
    }
  }
}

NodeIndex ChordNetwork::successor_index(NodeIndex node) const {
  SDSI_CHECK(is_alive(node));
  return live_successor(node);
}

NodeIndex ChordNetwork::predecessor_index(NodeIndex node) const {
  SDSI_CHECK(is_alive(node));
  const NodeIndex pred = nodes_[node].predecessor;
  if (pred != kInvalidNode && nodes_[pred].alive) {
    return pred;
  }
  // Fall back to ground truth (a real node would wait for stabilization;
  // the range walk must not stall on a transiently missing pointer). The
  // bypass is accounted for — counter, hook, trace event — so churn
  // experiments report how often routing cheated.
  record_oracle_fallback(node);
  const auto it = std::lower_bound(
      oracle_.begin(), oracle_.end(), nodes_[node].id,
      [](const std::pair<Key, NodeIndex>& entry, Key k) {
        return entry.first < k;
      });
  if (it == oracle_.begin()) {
    return oracle_.back().second;
  }
  return std::prev(it)->second;
}

std::vector<NodeIndex> ChordNetwork::successors(NodeIndex node,
                                                std::size_t count) const {
  SDSI_CHECK(is_alive(node));
  std::vector<NodeIndex> result;
  result.reserve(count);
  const NodeIndex head = live_successor(node);
  if (head != node) {
    result.push_back(head);
  }
  for (const NodeIndex entry : nodes_[node].successor_list) {
    if (result.size() >= count) {
      break;
    }
    if (entry != kInvalidNode && entry != node && nodes_[entry].alive &&
        std::find(result.begin(), result.end(), entry) == result.end()) {
      result.push_back(entry);
    }
  }
  return result;
}

NodeIndex ChordNetwork::closest_preceding_node(NodeIndex node, Key key) const {
  const NodeState& state = nodes_[node];
  for (unsigned i = config_.id_bits; i-- > 0;) {
    const NodeIndex finger = state.fingers.get(i);
    if (finger == kInvalidNode || !nodes_[finger].alive || finger == node) {
      continue;
    }
    if (id_space().in_open(nodes_[finger].id, state.id, key)) {
      return finger;
    }
  }
  const NodeIndex succ = live_successor(node);
  return succ == node ? node : succ;
}

NodeIndex ChordNetwork::next_hop(NodeIndex current, Key key,
                                 bool& final_here) const {
  final_here = false;
  const NodeState& state = nodes_[current];
  // Shortcut: we already cover the key (consistent-hashing assignment).
  const NodeIndex pred = state.predecessor;
  if (pred != kInvalidNode && nodes_[pred].alive &&
      id_space().in_half_open(key, nodes_[pred].id, state.id)) {
    final_here = true;
    return current;
  }
  const NodeIndex succ = live_successor(current);
  if (succ == current) {
    final_here = true;  // only node in the ring
    return current;
  }
  if (id_space().in_half_open(key, state.id, nodes_[succ].id)) {
    return succ;  // the successor is responsible: last hop
  }
  return closest_preceding_node(current, key);
}

routing::LookupTrace ChordNetwork::trace_lookup(NodeIndex from,
                                                Key key) const {
  SDSI_CHECK(is_alive(from));
  routing::LookupTrace trace;
  trace.path.push_back(from);
  NodeIndex current = from;
  for (int hop = 0; hop <= kMaxRouteHops; ++hop) {
    bool final_here = false;
    const NodeIndex next = next_hop(current, key, final_here);
    if (final_here) {
      trace.result = current;
      return trace;
    }
    bool next_final = false;
    // Was this the "key in (current, successor]" terminal step?
    const NodeState& state = nodes_[current];
    const NodeIndex succ = live_successor(current);
    if (next == succ &&
        id_space().in_half_open(key, state.id, nodes_[succ].id)) {
      next_final = true;
    }
    trace.path.push_back(next);
    ++trace.hops;
    current = next;
    if (next_final) {
      trace.result = current;
      return trace;
    }
  }
  trace.result = kInvalidNode;  // routing loop under heavy churn
  return trace;
}

void ChordNetwork::route_to_key(NodeIndex from, Key key, Message msg) {
  // Even a locally-covered key goes through the event queue, so the deliver
  // upcall never reenters the sender's call stack.
  schedule_msg(sim::Duration(), std::move(msg), [this, from, key](Message m) {
    route_step(from, key, std::move(m));
  });
}

void ChordNetwork::route_step(NodeIndex current, Key key, Message msg) {
  if (!is_alive(current)) {
    record_drop(fault::DropCause::kDeadNode, msg);
    return;
  }
  if (msg.hops > kMaxRouteHops) {
    record_drop(fault::DropCause::kHopLimit, msg);
    return;
  }
  bool final_here = false;
  const NodeIndex next = next_hop(current, key, final_here);
  if (final_here) {
    deliver_at(current, std::move(msg));
    return;
  }
  // Determine whether the hop we are about to take terminates at `next`.
  const NodeIndex succ = live_successor(current);
  const bool next_final =
      next == succ && id_space().in_half_open(key, nodes_[current].id,
                                              nodes_[succ].id);
  if (current != msg.origin || msg.hops > 0) {
    // `current` relays a message it neither originated nor consumes.
    notify_transit(current, msg);
  }
  msg.hops += 1;
  schedule_msg(transmission_latency(), std::move(msg),
               [this, next, key, next_final](Message m) {
                 if (!is_alive(next)) {
                   // A terminal hop that died in flight can still detour:
                   // the state belongs to whoever inherits the dead arc.
                   if (next_final && m.reroute_on_dead) {
                     detour_around_dead(next, std::move(m));
                     return;
                   }
                   record_drop(fault::DropCause::kDeadNode, m);
                   return;
                 }
                 if (next_final) {
                   deliver_at(next, std::move(m));
                 } else {
                   route_step(next, key, std::move(m));
                 }
               });
}

void ChordNetwork::route_direct(NodeIndex from, NodeIndex to, Message msg) {
  SDSI_CHECK(to < nodes_.size());
  msg.hops = from == to ? 0 : 1;
  const sim::Duration delay =
      from == to ? sim::Duration() : transmission_latency();
  schedule_msg(delay, std::move(msg), [this, to](Message m) {
    if (!is_alive(to)) {
      if (m.reroute_on_dead) {
        detour_around_dead(to, std::move(m));
        return;
      }
      record_drop(fault::DropCause::kDeadNode, m);
      return;
    }
    deliver_at(to, std::move(m));
  });
}

void ChordNetwork::detour_around_dead(NodeIndex dead, Message msg) {
  if (msg.hops > kMaxRouteHops) {
    record_drop(fault::DropCause::kHopLimit, msg);
    return;
  }
  // The dead node's successor list is the replica set of the arc it covered;
  // its first live entry is the node stabilization will promote, so the
  // message is worth one more transmission there. (Operationally: the sender
  // times out on the dead neighbor and retries the next list entry — we
  // charge it as one extra hop.)
  NodeIndex next = kInvalidNode;
  for (const NodeIndex candidate : nodes_[dead].successor_list) {
    if (candidate != kInvalidNode && candidate != dead &&
        nodes_[candidate].alive) {
      next = candidate;
      break;
    }
  }
  if (next == kInvalidNode) {
    // The whole replica set is gone; nothing can inherit the state.
    record_drop(fault::DropCause::kDeadAggregator, msg);
    return;
  }
  record_detour(dead, msg);
  msg.hops += 1;
  schedule_msg(transmission_latency(), std::move(msg),
               [this, next](Message m) {
                 if (!is_alive(next)) {
                   detour_around_dead(next, std::move(m));
                   return;
                 }
                 deliver_at(next, std::move(m));
               });
}

}  // namespace sdsi::chord
