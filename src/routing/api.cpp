#include "routing/api.hpp"

#include <utility>

#include "common/check.hpp"

namespace sdsi::routing {
namespace {

/// Which neighbors a node covering the arc (pred, self] forwards a range
/// copy to: its successor (`up`), its predecessor (`down`), or neither.
struct RangeSteps {
  bool up = false;
  bool down = false;
};

/// The Sec IV-C range-walk rule. A copy walks on in each of its directions
/// until it reaches the node covering that direction's range end. When both
/// ends fall on a landing node's arc but the range runs the long way round
/// (range_hi comes before range_lo clockwise from pred), the landing copy
/// walks up the whole ring and the walk ends back at the landing node, which
/// sees one duplicate. A lone node's arc is the whole ring, so no range runs
/// the long way round it.
RangeSteps range_steps(const common::IdSpace& space, Key pred, Key self,
                       const Message& msg) {
  const bool covers_lo = space.in_half_open(msg.range_lo, pred, self);
  const bool covers_hi = space.in_half_open(msg.range_hi, pred, self);
  const bool long_way = !msg.range_internal && pred != self && covers_lo &&
                        covers_hi &&
                        space.distance(pred, msg.range_hi) <
                            space.distance(pred, msg.range_lo);
  const bool up_dir =
      msg.range_dir == RangeDir::kUp || msg.range_dir == RangeDir::kBoth;
  const bool down_dir =
      msg.range_dir == RangeDir::kDown || msg.range_dir == RangeDir::kBoth;
  return RangeSteps{up_dir && (!covers_hi || long_way),
                    down_dir && !covers_lo};
}

}  // namespace

RoutingSystem::RoutingSystem(sim::Simulator& simulator, common::IdSpace space,
                             sim::Duration hop_latency)
    : sim_(simulator), space_(space), hop_latency_(hop_latency) {
  SDSI_CHECK(hop_latency >= sim::Duration());
}

std::vector<NodeIndex> RoutingSystem::successors(NodeIndex node,
                                                 std::size_t count) const {
  std::vector<NodeIndex> result;
  result.reserve(count);
  NodeIndex current = node;
  while (result.size() < count) {
    const NodeIndex next = successor_index(current);
    if (next == node || next == current) {
      break;  // wrapped around the ring, or the node stands alone
    }
    result.push_back(next);
    current = next;
  }
  return result;
}

bool RoutingSystem::message_lost(const Message& msg) {
  if (fault_model_ != nullptr) {
    const std::optional<fault::DropCause> cause =
        fault_model_->sample_drop(msg.target_key, sim_.now());
    if (cause.has_value()) {
      record_drop(*cause, msg);
      return true;
    }
  }
  return false;
}

void RoutingSystem::send(NodeIndex from, Key key, Message msg) {
  SDSI_CHECK(is_alive(from));
  msg.target_key = space_.wrap(key);
  msg.origin = from;
  msg.hops = 0;
  msg.sent_at = sim_.now();
  if (msg.trace_id == 0) {
    msg.trace_id = allocate_trace_id();
  }
  notify_send(from, msg);
  if (message_lost(msg)) {
    return;
  }
  route_to_key(from, msg.target_key, std::move(msg));
}

void RoutingSystem::send_direct(NodeIndex from, NodeIndex to, Message msg) {
  SDSI_CHECK(is_alive(from));
  msg.target_key = node_id(to);
  msg.origin = from;
  msg.hops = 0;
  msg.sent_at = sim_.now();
  if (msg.trace_id == 0) {
    msg.trace_id = allocate_trace_id();
  }
  notify_send(from, msg);
  if (message_lost(msg)) {
    return;
  }
  route_direct(from, to, std::move(msg));
}

void RoutingSystem::send_range(NodeIndex from, Key lo, Key hi, Message msg,
                               MulticastStrategy strategy) {
  SDSI_CHECK(is_alive(from));
  msg.has_range = true;
  msg.range_lo = space_.wrap(lo);
  msg.range_hi = space_.wrap(hi);
  switch (strategy) {
    case MulticastStrategy::kSequential:
      // Route to the lowest key; covered nodes walk the range upward.
      msg.range_dir = RangeDir::kUp;
      send(from, msg.range_lo, std::move(msg));
      break;
    case MulticastStrategy::kBidirectional:
      // Route to the middle of the range; the landing node fans out in both
      // directions (Sec VI-B), halving the sequential propagation delay.
      msg.range_dir = RangeDir::kBoth;
      send(from, space_.midpoint(msg.range_lo, msg.range_hi),
           std::move(msg));
      break;
  }
}

void RoutingSystem::deliver_at(NodeIndex at, Message msg) {
  if (metrics_ != nullptr) {
    metrics_->on_deliver(at, msg);
  }
  if (trace_ != nullptr) {
    emit_trace(obs::TraceEventKind::kDeliver, at, msg, nullptr);
  }
  if (deliver_) {
    deliver_(at, msg);
  }
  if (msg.has_range) {
    forward_range_copies(at, msg);
  }
}

void RoutingSystem::emit_trace(obs::TraceEventKind event, NodeIndex node,
                               const Message& msg, const char* drop_cause) {
  obs::TraceRecord record;
  record.trace_id = msg.trace_id;
  record.event = event;
  record.at_us = sim_.now().count_micros();
  record.node = node;
  record.kind = static_cast<int>(msg.kind);
  record.hops = msg.hops;
  record.target_key = msg.target_key;
  record.range_internal = msg.range_internal;
  record.drop_cause = drop_cause;
  trace_->record(record);
}

void RoutingSystem::forward_range_copies(NodeIndex at, const Message& msg) {
  const RangeSteps steps =
      range_steps(space_, node_id(predecessor_index(at)), node_id(at), msg);
  // Forwarded copies keep the original sent_at: a copy's delivery latency
  // then measures how long the range walk took to reach that node, which is
  // exactly the sequential-propagation delay Sec IV-C worries about.
  const auto forward = [&](RangeDir dir, NodeIndex next) {
    Message copy = msg;
    copy.range_internal = true;
    copy.range_dir = dir;
    copy.origin = at;
    copy.hops = 0;
    copy.target_key = node_id(next);
    notify_send(at, copy);
    if (!message_lost(copy)) {
      route_direct(at, next, std::move(copy));
    }
  };
  if (steps.up) {
    forward(RangeDir::kUp, successor_index(at));
  }
  if (steps.down) {
    forward(RangeDir::kDown, predecessor_index(at));
  }
}

}  // namespace sdsi::routing
