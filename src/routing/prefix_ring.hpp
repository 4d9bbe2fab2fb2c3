// A second content-based routing substrate: Pastry-style prefix routing.
//
// The paper stresses that the middleware "relies on the standard distributed
// hashing table interface ... rather than on a particular implementation"
// and "can be used on top of virtually any existing content-based routing
// implementation" (CAN, Chord, Pastry, Tapestry). This substrate proves that
// claim in code: it keeps the static ring's successor-based key coverage
// (which the range multicast needs) but routes with Pastry/Tapestry-style
// longest-matching-prefix tables instead of finger tables:
//
//  - identifiers are strings of base-2^b digits (default b = 4, hex digits);
//  - each node keeps a routing table row per prefix length: the row for
//    length l holds, for every digit d, some node sharing l digits with us
//    whose (l+1)-th digit is d;
//  - a message for key K hops to a node sharing at least one more digit of
//    K than the current node; when no such node exists the leaf set
//    (ring neighbors) finishes numerically, landing on successor(K).
//
// Expected hop count is log_{2^b} N — flatter than Chord's (1/2) log2 N —
// which bench_substrates compares empirically. Ring order, neighbors and
// direct sends are StaticRing's; only route_to_key differs.
#pragma once

#include <vector>

#include "routing/static_ring.hpp"

namespace sdsi::routing {

class PrefixRing final : public StaticRing {
 public:
  /// Installs every node (as StaticRing does) and builds their routing
  /// tables. Digits are `digit_bits`-bit groups of an id, so the tables
  /// have 2^digit_bits columns; the id width must be a multiple of it.
  PrefixRing(sim::Simulator& simulator, common::IdSpace space,
             std::vector<Key> node_ids, unsigned digit_bits = 4);

  unsigned digits_per_id() const noexcept { return digits_per_id_; }

  /// Longest common digit prefix of two identifiers (diagnostics/tests).
  unsigned shared_prefix_digits(Key a, Key b) const noexcept;

  /// Executes the prefix-routing algorithm without messages or time.
  LookupTrace trace_lookup(NodeIndex from, Key key) const;

  /// Routing-table entry for `node` at prefix length `row`, digit column
  /// `digit`; kInvalidNode when empty.
  NodeIndex table_entry(NodeIndex node, unsigned row, unsigned digit) const;

 protected:
  void route_to_key(NodeIndex from, Key key, Message msg) override;

 private:
  /// A routed message past this many hops is dropped (kHopLimit).
  static constexpr int kMaxRouteHops = 128;

  unsigned digit_of(Key id, unsigned position) const noexcept;
  /// One prefix-routing step from `current` toward `key`; sets final_here
  /// when `current` covers the key.
  NodeIndex next_hop(NodeIndex current, Key key, bool& final_here) const;
  void route_step(NodeIndex current, Key key, Message msg);

  unsigned digit_bits_;
  unsigned digits_per_id_ = 0;
  unsigned columns_ = 0;
  /// tables_[(node * digits_per_id_ + row) * columns_ + digit].
  std::vector<NodeIndex> tables_;
};

}  // namespace sdsi::routing
