// The static address book of a real (multi-process) ring.
//
// Socket nodes cannot run a membership protocol yet (ROADMAP: dynamic joins
// stay sim-only for now), so every process derives the identical ring from
// (node count, id-space bits, salt) via routing::hash_node_ids — the same
// table the simulator's StaticRing routes over.
#pragma once

#include "routing/ring_table.hpp"

namespace sdsi::net {

using NetRing = routing::RingTable;

}  // namespace sdsi::net
