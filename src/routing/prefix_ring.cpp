#include "routing/prefix_ring.hpp"

#include <utility>

#include "common/check.hpp"

namespace sdsi::routing {

PrefixRing::PrefixRing(sim::Simulator& simulator, common::IdSpace space,
                       std::vector<Key> node_ids, unsigned digit_bits)
    : StaticRing(simulator, space, std::move(node_ids)),
      digit_bits_(digit_bits) {
  SDSI_CHECK(digit_bits >= 1 && digit_bits <= 8);
  SDSI_CHECK(space.bits() % digit_bits == 0);
  digits_per_id_ = space.bits() / digit_bits;
  columns_ = 1u << digit_bits;

  // Routing tables: for every (row, digit), the candidate sharing `row`
  // digits with us, with `digit` next, closest clockwise (deterministic).
  const std::size_t n = num_nodes();
  tables_.assign(n * digits_per_id_ * columns_, kInvalidNode);
  for (NodeIndex self = 0; self < n; ++self) {
    const Key id = node_id(self);
    for (NodeIndex m = 0; m < n; ++m) {
      if (m == self) {
        continue;
      }
      const unsigned row = shared_prefix_digits(id, node_id(m));
      if (row >= digits_per_id_) {
        continue;  // identical id cannot happen (the ring's ids are distinct)
      }
      NodeIndex& slot =
          tables_[(static_cast<std::size_t>(self) * digits_per_id_ + row) *
                      columns_ +
                  digit_of(node_id(m), row)];
      if (slot == kInvalidNode || id_space().distance(id, node_id(m)) <
                                      id_space().distance(id, node_id(slot))) {
        slot = m;
      }
    }
  }
}

unsigned PrefixRing::digit_of(Key id, unsigned position) const noexcept {
  SDSI_DCHECK(position < digits_per_id_);
  const unsigned shift = id_space().bits() - (position + 1) * digit_bits_;
  return static_cast<unsigned>((id >> shift) & (columns_ - 1));
}

unsigned PrefixRing::shared_prefix_digits(Key a, Key b) const noexcept {
  for (unsigned p = 0; p < digits_per_id_; ++p) {
    if (digit_of(a, p) != digit_of(b, p)) {
      return p;
    }
  }
  return digits_per_id_;
}

NodeIndex PrefixRing::table_entry(NodeIndex node, unsigned row,
                                  unsigned digit) const {
  SDSI_CHECK(node < num_nodes());
  SDSI_CHECK(row < digits_per_id_ && digit < columns_);
  return tables_[(static_cast<std::size_t>(node) * digits_per_id_ + row) *
                     columns_ +
                 digit];
}

NodeIndex PrefixRing::next_hop(NodeIndex current, Key key,
                               bool& final_here) const {
  final_here = false;
  const Key id = node_id(current);
  if (num_nodes() == 1 ||
      id_space().in_half_open(key, node_id(predecessor_index(current)), id)) {
    final_here = true;
    return current;
  }
  const NodeIndex succ = successor_index(current);
  if (id_space().in_half_open(key, id, node_id(succ))) {
    return succ;  // leaf-set finish: the successor covers the key
  }
  const unsigned row = shared_prefix_digits(id, key);
  if (row < digits_per_id_) {
    const unsigned key_digit = digit_of(key, row);
    const NodeIndex entry = table_entry(current, row, key_digit);
    if (entry != kInvalidNode && entry != current) {
      return entry;  // one digit closer in prefix space
    }
    // No node carries the key's exact digit at this position, so
    // successor(key) lives under the next-higher digit that IS populated
    // within this block (an empty row cell is global knowledge: the tables
    // index every node). Jump straight to that sub-block instead of crawling
    // the ring toward it.
    const unsigned own_digit = digit_of(id, row);
    for (unsigned digit = key_digit + 1; digit < columns_; ++digit) {
      if (digit == own_digit) {
        break;  // we are in the first populated sub-block after the key
      }
      const NodeIndex candidate = table_entry(current, row, digit);
      if (candidate != kInvalidNode) {
        return candidate;
      }
    }
  }
  // Finish with the leaf set, walking whichever ring direction is shorter.
  // (A prefix jump can land past successor(key) inside the final sub-block;
  // walking predecessors back is O(sub-block) instead of O(ring).)
  if (id_space().distance(id, key) <= id_space().distance(key, id)) {
    return succ;
  }
  return predecessor_index(current);
}

LookupTrace PrefixRing::trace_lookup(NodeIndex from, Key key) const {
  SDSI_CHECK(from < num_nodes());
  LookupTrace trace;
  trace.path.push_back(from);
  NodeIndex current = from;
  for (int hop = 0; hop <= kMaxRouteHops; ++hop) {
    bool final_here = false;
    const NodeIndex next = next_hop(current, key, final_here);
    if (final_here) {
      trace.result = current;
      return trace;
    }
    trace.path.push_back(next);
    ++trace.hops;
    current = next;
  }
  trace.result = kInvalidNode;
  return trace;
}

void PrefixRing::route_to_key(NodeIndex from, Key key, Message msg) {
  schedule_msg(sim::Duration(), std::move(msg), [this, from, key](Message m) {
    route_step(from, key, std::move(m));
  });
}

void PrefixRing::route_step(NodeIndex current, Key key, Message msg) {
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
  if (msg.hops > 0) {
    notify_transit(current, msg);
  }
  msg.hops += 1;
  schedule_msg(transmission_latency(), std::move(msg),
               [this, next, key](Message m) {
                 route_step(next, key, std::move(m));
               });
}

}  // namespace sdsi::routing
