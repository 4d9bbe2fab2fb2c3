// The content-based routing abstraction (paper Sec II-B and IV-C).
//
// "Virtually all content-based routing schemes provide the same interface:
// send to a key, join/leave, and a deliver upcall." The middleware is written
// against exactly this surface, so it runs unchanged over full Chord
// (chord/ChordNetwork) or the idealized one-hop ring used for unit tests
// (routing/StaticRing) — reproducing the paper's portability claim.
//
// One extension the paper needs but DHTs lack natively (Sec IV-C): multicast
// to a *range* of keys. RoutingSystem implements it on top of successor /
// predecessor forwarding, in both variants the paper discusses:
//  - kSequential: route to the low end, then walk successors (cheap in
//    messages, O(range) sequential delay);
//  - kBidirectional: route to the middle, then fan out both ways
//    (Sec VI-B; same message count, roughly half the delay).
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/ring_math.hpp"
#include "common/types.hpp"
#include "fault/model.hpp"
#include "obs/trace.hpp"
#include "routing/message.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace sdsi::routing {

/// The simulated substrates' constant per-hop delay ("the Chord simulator
/// simulates a constant 50ms delay per hop").
inline constexpr sim::Duration kHopLatency = sim::Duration::millis(50);

/// A lookup executed over a substrate's routing state without messages or
/// time (ChordNetwork::trace_lookup, PrefixRing::trace_lookup).
struct LookupTrace {
  NodeIndex result = kInvalidNode;  // kInvalidNode: the hop limit ran out
  int hops = 0;
  std::vector<NodeIndex> path;  // nodes visited, origin first
};

/// How a range-of-keys multicast propagates.
enum class MulticastStrategy : std::uint8_t {
  kSequential,
  kBidirectional,
};

/// Observation points for the instrumentation layer (Figures 6-8).
class MetricsHook {
 public:
  virtual ~MetricsHook() = default;

  /// A node originated a message (application send, or a range-forward copy
  /// it created).
  virtual void on_send(NodeIndex from, const Message& msg) = 0;

  /// A message passed through `via` on its overlay route (neither origin nor
  /// destination).
  virtual void on_transit(NodeIndex via, const Message& msg) = 0;

  /// A message reached the node responsible for it.
  virtual void on_deliver(NodeIndex at, const Message& msg) = 0;

  /// A transmission or routed message was dropped, with its cause. Default
  /// no-op so existing hooks keep compiling.
  virtual void on_drop(fault::DropCause cause, const Message& msg) {
    (void)cause;
    (void)msg;
  }

  /// A direct transmission found its destination dead and was detoured to a
  /// successor-list replica instead of dropping. Default no-op.
  virtual void on_detour(NodeIndex around, const Message& msg) {
    (void)around;
    (void)msg;
  }

  /// The substrate fell back to ground-truth (oracle) state because its
  /// protocol state was transiently broken mid-churn — the routing "cheat"
  /// churn experiments must account for. Default no-op.
  virtual void on_oracle_fallback(NodeIndex node) { (void)node; }
};

/// Application upcall invoked when a message is delivered at a node.
using DeliverFn = std::function<void(NodeIndex at, const Message& msg)>;

/// Base of every routing substrate. Owns the shared mechanics: delivery
/// upcalls, metrics fan-out, and range multicast built from neighbor
/// forwarding. Concrete subclasses provide ring membership and key routing.
class RoutingSystem {
 public:
  RoutingSystem(sim::Simulator& simulator, common::IdSpace space,
                sim::Duration hop_latency);
  virtual ~RoutingSystem() = default;

  RoutingSystem(const RoutingSystem&) = delete;
  RoutingSystem& operator=(const RoutingSystem&) = delete;

  const common::IdSpace& id_space() const noexcept { return space_; }
  sim::Simulator& simulator() noexcept { return sim_; }

  /// Number of node slots ever created (dead nodes keep their index).
  virtual std::size_t num_nodes() const = 0;
  virtual bool is_alive(NodeIndex node) const = 0;
  virtual Key node_id(NodeIndex node) const = 0;

  /// Live ring neighbors of `node`.
  virtual NodeIndex successor_index(NodeIndex node) const = 0;
  virtual NodeIndex predecessor_index(NodeIndex node) const = 0;

  /// Up to `count` distinct live nodes following `node` clockwise — the
  /// replica set of the keys `node` covers (successor-list replication).
  /// The base implementation chain-walks successor_index, which is exact
  /// for substrates with global knowledge (StaticRing and its PrefixRing);
  /// Chord overrides it with the node's protocol successor list, so the
  /// replica set degrades with protocol state exactly as real churn would
  /// degrade it.
  virtual std::vector<NodeIndex> successors(NodeIndex node,
                                            std::size_t count) const;

  /// Ground-truth successor(key) computed instantaneously (tests and
  /// diagnostics; never used on the simulated message path).
  virtual NodeIndex find_successor_oracle(Key key) const = 0;

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_metrics_hook(MetricsHook* hook) noexcept { metrics_ = hook; }

  /// Structured trace stream (obs/trace.hpp). When set, every observable
  /// step of every message — originate, range-copy, transit, deliver, drop —
  /// is reported under the message's trace id. Pass nullptr to disable.
  void set_trace_sink(obs::TraceSink* sink) noexcept { trace_ = sink; }
  obs::TraceSink* trace_sink() const noexcept { return trace_; }

  /// Next correlation id. send()/send_direct() call this automatically for
  /// messages without one; callers that span several sends (retries,
  /// refreshes) allocate once and stamp each Message themselves.
  std::uint64_t allocate_trace_id() noexcept { return ++last_trace_id_; }

  /// Fault injection (fault/model.hpp): uniform and bursty loss, key-range
  /// partitions, latency jitter. The middleware's soft state (periodic MBRs,
  /// periodic responses, refreshes) must tolerate it. Pass nullptr to
  /// remove.
  void set_fault_model(std::shared_ptr<fault::LinkFaultModel> model) {
    fault_model_ = std::move(model);
  }

  /// Drops recorded under one cause label — the one loss ledger across the
  /// link loss models (kUniformLoss/kBurstLoss/kPartition), the
  /// routing-level losses substrates report (kDeadNode/kHopLimit/
  /// kDeadAggregator) and the middleware's sheds (account_app_drop).
  std::uint64_t drop_count(fault::DropCause cause) const noexcept {
    return drops_by_cause_[static_cast<std::size_t>(cause)];
  }

  /// Sum over every cause label.
  std::uint64_t total_drops() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t count : drops_by_cause_) {
      total += count;
    }
    return total;
  }

  /// Routes `msg` to successor(key) through the overlay ("put"/"get").
  void send(NodeIndex from, Key key, Message msg);

  /// Point-to-point send to a node whose address is already known (the
  /// paper's response path: the notifying node replies to the client
  /// directly, but the reply still transits the overlay's hop distance in
  /// our model — see route_direct in subclasses).
  void send_direct(NodeIndex from, NodeIndex to, Message msg);

  /// Multicast to every node covering a key in the clockwise range
  /// [lo, hi] (Sec IV-C).
  void send_range(NodeIndex from, Key lo, Key hi, Message msg,
                  MulticastStrategy strategy);

  /// Application-level loss accounting: the middleware sheds a message it
  /// chose not to process (overload control — kShedOverload, kBackpressure).
  /// Runs through the same counter + metrics hook + trace path as link and
  /// routing drops, so "total drops" covers every loss regardless of layer.
  void account_app_drop(fault::DropCause cause, const Message& msg) {
    record_drop(cause, msg);
  }

 protected:
  /// Deliver `msg` at `at` after any overlay routing; shared post-delivery
  /// logic (upcall + range forwarding) lives in deliver_at().
  virtual void route_to_key(NodeIndex from, Key key, Message msg) = 0;

  /// Direct (address-known) transmission; implementations simulate the
  /// appropriate latency and transit accounting.
  virtual void route_direct(NodeIndex from, NodeIndex to, Message msg) = 0;

  /// Called by subclasses when a message arrives at its responsible node.
  void deliver_at(NodeIndex at, Message msg);

  void notify_send(NodeIndex from, const Message& msg) {
    if (metrics_ != nullptr) {
      metrics_->on_send(from, msg);
    }
    if (trace_ != nullptr) {
      emit_trace(msg.range_internal ? obs::TraceEventKind::kRangeCopy
                                    : obs::TraceEventKind::kOriginate,
                 from, msg, nullptr);
    }
  }

  /// Loss-model sample: true when this transmission should vanish. Consults
  /// the fault model and records the drop (cause + metrics hook) itself.
  bool message_lost(const Message& msg);

  /// Makes allocate_trace_id() count up from `base`: a substrate that routes
  /// for one process of many keeps its ids apart from the other processes'.
  void set_trace_id_base(std::uint64_t base) noexcept { last_trace_id_ = base; }

  /// Routing-level loss accounting for substrates (dead next hop, hop-limit
  /// safety valve): counts under the cause label and tells the hook.
  void record_drop(fault::DropCause cause, const Message& msg) {
    ++drops_by_cause_[static_cast<std::size_t>(cause)];
    if (metrics_ != nullptr) {
      metrics_->on_drop(cause, msg);
    }
    if (trace_ != nullptr) {
      // Link location is not tracked at this layer; the drop is attributed
      // to the copy's origin node.
      emit_trace(obs::TraceEventKind::kDrop, msg.origin, msg,
                 fault::drop_cause_name(cause));
    }
  }

  /// Accounting for a substrate's ground-truth fallback: hook + a trace
  /// event so churn runs report how often routing bypassed the protocol.
  /// Const because the lookup paths that need it are const; the metrics
  /// hook keeps the count.
  void record_oracle_fallback(NodeIndex node) const {
    if (metrics_ != nullptr) {
      metrics_->on_oracle_fallback(node);
    }
    if (trace_ != nullptr) {
      obs::TraceRecord record;
      record.event = obs::TraceEventKind::kOracleFallback;
      record.at_us = sim_.now().count_micros();
      record.node = node;
      trace_->record(record);
    }
  }

  /// Accounting for a successful dead-destination detour (the metrics hook
  /// keeps the count).
  void record_detour(NodeIndex around, const Message& msg) {
    if (metrics_ != nullptr) {
      metrics_->on_detour(around, msg);
    }
  }

  /// Schedules `fn(msg)` after `delay` — the hot path of every substrate:
  /// each overlay hop parks the in-flight envelope inside an event closure.
  /// The Message lives in a free-list slot and the closure captures only a
  /// 24-byte handle, keeping the whole capture inside EventFn's inline
  /// buffer, so steady-state hops allocate nothing.
  template <typename Fn>
  void schedule_msg(sim::Duration delay, Message msg, Fn fn) {
    sim_.schedule_after(delay, [fn = std::move(fn),
                                p = msg_pool_.make(std::move(msg))]() mutable {
      fn(std::move(*p));
    });
  }

  /// Per-transmission latency: the constant hop latency plus any jitter the
  /// fault model injects. Substrates use this wherever they simulate a hop.
  sim::Duration transmission_latency() {
    if (fault_model_ != nullptr) {
      return hop_latency_ + fault_model_->sample_jitter();
    }
    return hop_latency_;
  }

  void notify_transit(NodeIndex via, const Message& msg) {
    if (metrics_ != nullptr) {
      metrics_->on_transit(via, msg);
    }
    if (trace_ != nullptr) {
      emit_trace(obs::TraceEventKind::kTransit, via, msg, nullptr);
    }
  }

 private:
  void forward_range_copies(NodeIndex at, const Message& msg);
  void emit_trace(obs::TraceEventKind event, NodeIndex node,
                  const Message& msg, const char* drop_cause);

  sim::Simulator& sim_;
  common::IdSpace space_;
  sim::Duration hop_latency_;
  DeliverFn deliver_;
  MetricsHook* metrics_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  std::uint64_t last_trace_id_ = 0;
  std::shared_ptr<fault::LinkFaultModel> fault_model_;
  std::array<std::uint64_t, static_cast<std::size_t>(fault::DropCause::kCount)>
      drops_by_cause_{};
  sim::ObjectPool<Message> msg_pool_;
};

}  // namespace sdsi::routing
