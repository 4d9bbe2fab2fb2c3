// Deterministic single-threaded discrete-event simulator.
//
// This is our stand-in for the MIT Chord simulator's replay loop: it executes
// timed events on all nodes in the system. Events scheduled for the same
// instant run in scheduling order (a monotone sequence number breaks ties),
// which makes whole simulations bit-reproducible.
//
// The kernel is a calendar queue. Time is divided into 2^kBucketBits-
// microsecond buckets on a wheel of kMinBuckets to kMaxBuckets buckets,
// sized to its load; each bucket is a small binary heap of 24-byte refs
// ordered by (when, seq), and events beyond the wheel span sit in an
// overflow store that is re-partitioned as the window advances. Event
// closures live in a free-list slot pool, periodic tasks reschedule in
// place (same slot, fresh sequence number), and cancellation is a
// generation-counter bump that is purged lazily — steady-state scheduling
// performs no heap allocation and no O(log total-pending) sift over fat
// entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace sdsi::sim {

class Simulator;

/// Cancellation handle for periodic tasks (and one-shot events). Destroying
/// the handle does NOT cancel; call cancel(). A handle may outlive the
/// Simulator that issued it: cancel()/active() degrade to no-ops once the
/// Simulator is gone (the handle watches a per-simulator liveness token).
class TaskHandle {
 public:
  TaskHandle() = default;

  void cancel() noexcept;
  bool active() const noexcept;

 private:
  friend class Simulator;
  TaskHandle(const std::shared_ptr<Simulator>& sim, std::uint32_t slot,
             std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  // Pooled slot + generation. The weak_ptr tracks the Simulator's
  // non-owning liveness token, so it expires with the Simulator and a stale
  // handle never dereferences a dangling pointer.
  std::weak_ptr<Simulator> sim_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `when` (>= now).
  TaskHandle schedule_at(SimTime when, EventFn fn);

  /// Schedules `fn` after `delay` from now.
  TaskHandle schedule_after(Duration delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs `fn` every `period`, first at `first`, until the handle is
  /// cancelled or the simulation ends.
  TaskHandle schedule_periodic(SimTime first, Duration period, EventFn fn);

  /// Executes events until the queue is empty or `horizon` is passed. Events
  /// stamped exactly at `horizon` still run. Returns the number executed.
  std::uint64_t run_until(SimTime horizon);

  /// Convenience: run_until(now() + span).
  std::uint64_t run_for(Duration span) { return run_until(now_ + span); }

  /// Drains the queue completely (use only with workloads that terminate).
  std::uint64_t run_all();

  /// Executes the single next event. Returns false if the queue is empty.
  bool step();

  std::uint64_t executed_events() const noexcept { return executed_; }

  /// Number of scheduled events that will still run. Cancelled entries are
  /// excluded at once (their refs are purged lazily).
  std::size_t pending_events() const noexcept { return live_events_; }

  /// Buckets on the timer wheel: 0 until the first schedule, then
  /// kMinBuckets, doubling up to kMaxBuckets while more than
  /// kEventsPerBucket live events per bucket are pending.
  std::size_t wheel_buckets() const noexcept { return buckets_.size(); }

  /// Test hook: invoked as probe(when, seq) immediately before each live
  /// event executes. The scheduler tests fold it into an execution-order
  /// digest; benches time event bodies with it.
  void set_execution_probe(std::function<void(SimTime, SeqNo)> probe) {
    probe_ = std::move(probe);
  }

 private:
  friend class TaskHandle;

  // 2^kBucketBits microseconds per bucket. A full wheel of kMaxBuckets
  // spans ~2.1 simulated seconds before events spill to the overflow store.
  // Tuned empirically at 10k nodes: narrow buckets keep each per-bucket
  // heap to a few dozen refs (shallow sifts), and 8192 headers (~192 KB)
  // stay cache-resident. Longer-dated timers (soft-state refreshes, query
  // expiries) sit in the overflow store, which is scanned only once per
  // half-wheel advance — measured noise next to the per-event win. A
  // lightly loaded clock (one socket node's timers) keeps a small wheel:
  // it starts at kMinBuckets (~1.5 KB) and doubles while it holds more
  // than kEventsPerBucket live events per bucket.
  static constexpr unsigned kBucketBits = 8;  // 256 us buckets
  static constexpr std::size_t kMinBuckets = 64;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 13;
  static constexpr std::size_t kEventsPerBucket = 8;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // Hot fields first: execute_ref reads gen, then period, then the EventFn
  // ops pointer — keeping them at the front puts the whole dispatch read
  // on the slot's first cache line.
  struct Slot {
    std::uint32_t gen = 0;       // bumps on cancel/release; handles compare
    std::int64_t period_us = 0;  // 0 => one-shot
    EventFn fn;
  };

  struct Ref {
    std::int64_t when_us;
    SeqNo seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool ref_after(const Ref& a, const Ref& b) noexcept {
    if (a.when_us != b.when_us) {
      return a.when_us > b.when_us;
    }
    return a.seq > b.seq;
  }

  // Slots live in fixed 256-entry chunks, so a slot's address never moves:
  // the run loop can invoke the stored EventFn in place while the body
  // schedules new events (appending a chunk does not relocate existing
  // slots), with no move-out/move-back pair per dispatch.
  static constexpr unsigned kSlotChunkBits = 8;
  static constexpr std::uint32_t kSlotChunkMask =
      (std::uint32_t{1} << kSlotChunkBits) - 1;

  Slot& slot_at(std::uint32_t i) noexcept {
    return slot_chunks_[i >> kSlotChunkBits][i & kSlotChunkMask];
  }
  const Slot& slot_at(std::uint32_t i) const noexcept {
    return slot_chunks_[i >> kSlotChunkBits][i & kSlotChunkMask];
  }

  std::uint32_t acquire_slot(EventFn fn, std::int64_t period_us);
  void cancel_slot(std::uint32_t slot, std::uint32_t gen) noexcept;
  bool slot_active(std::uint32_t slot, std::uint32_t gen) const noexcept {
    return slot < slot_count_ && slot_at(slot).gen == gen;
  }

  /// The current wheel size, as a bucket-index distance.
  std::int64_t wheel_span() const noexcept {
    return static_cast<std::int64_t>(buckets_.size());
  }
  std::vector<Ref>& bucket_of(std::int64_t bucket) noexcept {
    return buckets_[static_cast<std::size_t>(bucket) & (buckets_.size() - 1)];
  }

  void insert_ref(const Ref& ref);
  /// Doubles the wheel while it holds more than kEventsPerBucket live
  /// events per bucket, up to kMaxBuckets, and re-files the wheel's refs.
  /// Runs only at a bucket boundary (ready_cursor), so no caller holds a
  /// bucket reference across it.
  void grow_wheel();
  /// Moves overflow events whose bucket is now < new_end onto the wheel and
  /// advances the wheel window. No-op if the window would not grow.
  void pull_overflow(std::int64_t new_end);
  /// Evacuates wheel refs with bucket >= new_end into the overflow store and
  /// clamps the window to new_end. Called on a cursor rewind that would
  /// otherwise leave the window wider than the wheel, where two live
  /// logical buckets would alias one physical bucket and drain out of order.
  void shrink_window(std::int64_t new_end);
  /// Points cur_bucket_ at a drainable window: grows the wheel when it is
  /// overloaded, jumps to the earliest overflow event when the wheel is
  /// empty and keeps at least half the wheel ahead of the cursor. Returns
  /// false once nothing <= horizon_us is pending.
  bool ready_cursor(std::int64_t horizon_us);
  /// Pops the earliest ref with when <= horizon_us. Returns false if none.
  bool pop_ref(std::int64_t horizon_us, Ref& out);
  /// Drops every cancelled ref still parked in the wheel/overflow.
  void purge_stale();
  /// Runs one popped ref: skips it if stale, otherwise executes (and
  /// reschedules periodics). Returns 1 if an event executed, else 0.
  std::uint64_t execute_ref(const Ref& ref);

  /// Executes every event with when <= horizon_us; returns how many ran.
  std::uint64_t drain(std::int64_t horizon_us);

  std::vector<std::vector<Ref>> buckets_;
  std::vector<Ref> overflow_;
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::uint32_t slot_count_ = 0;  // slots handed out across all chunks
  std::vector<std::uint32_t> free_slots_;
  std::int64_t cur_bucket_ = 0;   // next bucket to drain (absolute index)
  // Refs with bucket >= wheel_end_ overflow.
  std::int64_t wheel_end_ = 0;
  std::size_t wheel_refs_ = 0;    // refs currently parked on the wheel
  std::size_t live_events_ = 0;   // scheduled and not cancelled
  std::size_t stale_refs_ = 0;    // cancelled refs awaiting lazy purge
  std::uint32_t executing_slot_ = kNoSlot;

  SimTime now_;
  SeqNo next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::function<void(SimTime, SeqNo)> probe_;

  // Non-owning liveness token handed to TaskHandles (one
  // allocation per Simulator, not per event). Declared last so it is the
  // first member destroyed: every outstanding handle goes inert before the
  // slot pool and wheel tear down.
  std::shared_ptr<Simulator> live_token_{this, [](Simulator*) {}};
};

inline void TaskHandle::cancel() noexcept {
  if (const auto sim = sim_.lock()) {
    sim->cancel_slot(slot_, gen_);
  }
}

inline bool TaskHandle::active() const noexcept {
  const auto sim = sim_.lock();
  return sim != nullptr && sim->slot_active(slot_, gen_);
}

}  // namespace sdsi::sim
