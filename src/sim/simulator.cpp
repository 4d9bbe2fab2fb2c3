#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace sdsi::sim {
namespace {

constexpr std::int64_t kNoHorizon = std::numeric_limits<std::int64_t>::max();

}  // namespace

TaskHandle Simulator::schedule_at(SimTime when, EventFn fn) {
  SDSI_CHECK(when >= now_);
  SDSI_CHECK(fn != nullptr);
  const std::uint32_t slot = acquire_slot(std::move(fn), 0);
  const std::uint32_t gen = slot_at(slot).gen;
  insert_ref(Ref{when.count_micros(), next_seq_++, slot, gen});
  ++live_events_;
  return TaskHandle(live_token_, slot, gen);
}

TaskHandle Simulator::schedule_periodic(SimTime first, Duration period,
                                        EventFn fn) {
  SDSI_CHECK(period > Duration());
  const std::uint32_t slot = acquire_slot(std::move(fn), period.count_micros());
  const std::uint32_t gen = slot_at(slot).gen;
  insert_ref(Ref{first.count_micros(), next_seq_++, slot, gen});
  ++live_events_;
  return TaskHandle(live_token_, slot, gen);
}

std::uint32_t Simulator::acquire_slot(EventFn fn, std::int64_t period_us) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slot_count_++;
    if ((slot >> kSlotChunkBits) == slot_chunks_.size()) {
      slot_chunks_.push_back(
          std::make_unique<Slot[]>(std::size_t{1} << kSlotChunkBits));
      // cancel_slot (noexcept) and execute_ref return slots via push_back;
      // reserving the free list to full slot capacity whenever a chunk is
      // carved keeps those release paths allocation-free (and bad_alloc
      // cannot escape a noexcept frame into std::terminate).
      free_slots_.reserve(slot_chunks_.size() << kSlotChunkBits);
    }
  }
  Slot& s = slot_at(slot);
  s.fn = std::move(fn);
  s.period_us = period_us;
  // s.gen persists across reuse: it bumps on cancel/release, so refs and
  // handles from a slot's previous life never match.
  return slot;
}

void Simulator::cancel_slot(std::uint32_t slot, std::uint32_t gen) noexcept {
  if (slot >= slot_count_ || slot_at(slot).gen != gen) {
    return;  // already ran, cancelled, or recycled
  }
  Slot& s = slot_at(slot);
  ++s.gen;
  if (slot == executing_slot_) {
    // Self-cancel from inside the event body: the run loop owns the slot
    // right now and will release it when the body returns.
    return;
  }
  // The wheel/overflow still holds a ref to this slot; it is now stale and
  // gets dropped lazily (or by purge_stale below). The slot itself can be
  // recycled immediately — the generation bump keeps old refs inert.
  s.fn = nullptr;
  free_slots_.push_back(slot);
  --live_events_;
  ++stale_refs_;
  if (stale_refs_ > 64 && stale_refs_ > live_events_) {
    purge_stale();
  }
}

void Simulator::insert_ref(const Ref& ref) {
  if (buckets_.empty()) {
    buckets_.resize(kMinBuckets);  // a clock that never schedules skips it
  }
  const std::int64_t b = ref.when_us >> kBucketBits;
  if (wheel_refs_ == 0 && overflow_.empty()) {
    // Nothing pending anywhere: re-anchor the window at the new event. This
    // also heals a cursor parked far out by a drained stale ref (stale pops
    // advance cur_bucket_ without advancing now_), which would otherwise
    // force the rewind path below on the next schedule-at-now.
    cur_bucket_ = b;
    wheel_end_ = b + wheel_span();
  } else if (b >= wheel_end_) {
    overflow_.push_back(ref);
    return;
  } else if (b < cur_bucket_) {
    // An event landed behind the drain cursor (scheduled for "now" while the
    // cursor had advanced through empty buckets). Rewind — and restore the
    // window invariant wheel_end_ - cur_bucket_ <= wheel_span(), otherwise
    // two live logical buckets (b and b + wheel_span()) alias one physical
    // bucket and the per-bucket drain runs them out of order.
    cur_bucket_ = b;
    const std::int64_t max_end = b + wheel_span();
    if (wheel_end_ > max_end) {
      shrink_window(max_end);
    }
  }
  auto& bucket = bucket_of(b);
  bucket.push_back(ref);
  std::push_heap(bucket.begin(), bucket.end(), &ref_after);
  ++wheel_refs_;
}

void Simulator::shrink_window(std::int64_t new_end) {
  // Rare rewind path (never hit by steady-state schedule-at-now traffic):
  // O(wheel) sweep moving every ref whose logical bucket no longer fits the
  // clamped window back to the overflow store; pull_overflow re-admits them
  // as the cursor advances.
  for (auto& bucket : buckets_) {
    const std::size_t size = bucket.size();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < size; ++i) {
      if ((bucket[i].when_us >> kBucketBits) >= new_end) {
        overflow_.push_back(bucket[i]);
      } else {
        bucket[keep++] = bucket[i];
      }
    }
    if (keep != size) {
      wheel_refs_ -= size - keep;
      bucket.resize(keep);
      std::make_heap(bucket.begin(), bucket.end(), &ref_after);
    }
  }
  wheel_end_ = new_end;
}

void Simulator::pull_overflow(std::int64_t new_end) {
  if (new_end <= wheel_end_) {
    return;
  }
  wheel_end_ = new_end;
  std::size_t keep = 0;
  for (Ref& ref : overflow_) {
    if ((ref.when_us >> kBucketBits) < new_end) {
      insert_ref(ref);
    } else {
      overflow_[keep++] = ref;
    }
  }
  overflow_.resize(keep);
}

void Simulator::grow_wheel() {
  std::size_t size = buckets_.size();
  while (size < kMaxBuckets && live_events_ > kEventsPerBucket * size) {
    size *= 2;
  }
  if (size == buckets_.size()) {
    return;
  }
  // The window spans at most the old wheel, so it fits the new one; each
  // ref moves to its logical bucket's new physical slot.
  std::vector<std::vector<Ref>> old(size);
  old.swap(buckets_);
  for (const std::vector<Ref>& bucket : old) {
    for (const Ref& ref : bucket) {
      std::vector<Ref>& target = bucket_of(ref.when_us >> kBucketBits);
      target.push_back(ref);
      std::push_heap(target.begin(), target.end(), &ref_after);
    }
  }
}

bool Simulator::ready_cursor(std::int64_t horizon_us) {
  if (buckets_.size() < kMaxBuckets &&
      live_events_ > kEventsPerBucket * buckets_.size()) {
    grow_wheel();
  }
  if (wheel_refs_ == 0) {
    if (overflow_.empty()) {
      return false;
    }
    // Wheel drained: jump the window straight to the earliest far-future
    // event instead of scanning empty buckets toward it.
    std::int64_t min_bucket = std::numeric_limits<std::int64_t>::max();
    for (const Ref& ref : overflow_) {
      min_bucket = std::min(min_bucket, ref.when_us >> kBucketBits);
    }
    if ((min_bucket << kBucketBits) > horizon_us) {
      return false;
    }
    cur_bucket_ = min_bucket;
    wheel_end_ = min_bucket;  // window restarts at the jump target
    pull_overflow(min_bucket + wheel_span());
    return true;
  }
  // Keep at least half the wheel ahead of the cursor so newly pulled
  // overflow events never alias onto a not-yet-drained physical bucket.
  if (wheel_end_ - cur_bucket_ < wheel_span() / 2) {
    pull_overflow(cur_bucket_ + wheel_span());
  }
  return true;
}

bool Simulator::pop_ref(std::int64_t horizon_us, Ref& out) {
  while (ready_cursor(horizon_us)) {
    auto& bucket = bucket_of(cur_bucket_);
    if (!bucket.empty()) {
      if (bucket.front().when_us > horizon_us) {
        // Everything in this bucket — and every later bucket — is past the
        // horizon.
        return false;
      }
      std::pop_heap(bucket.begin(), bucket.end(), &ref_after);
      out = bucket.back();
      bucket.pop_back();
      --wheel_refs_;
      if (!bucket.empty()) {
        // The likely next event is this bucket's new front; issue its slot
        // fetch now so it overlaps with executing the popped event.
        __builtin_prefetch(&slot_at(bucket.front().slot));
      }
      return true;
    }
    // Empty bucket: advance, unless the next bucket already starts past the
    // horizon (then nothing <= horizon can exist on the wheel).
    if (((cur_bucket_ + 1) << kBucketBits) > horizon_us) {
      return false;
    }
    ++cur_bucket_;
  }
  return false;
}

void Simulator::purge_stale() {
  const auto is_stale = [this](const Ref& ref) {
    return slot_at(ref.slot).gen != ref.gen;
  };
  for (auto& bucket : buckets_) {
    if (bucket.empty()) {
      continue;
    }
    auto keep_end = std::remove_if(bucket.begin(), bucket.end(), is_stale);
    if (keep_end != bucket.end()) {
      wheel_refs_ -= static_cast<std::size_t>(bucket.end() - keep_end);
      bucket.erase(keep_end, bucket.end());
      std::make_heap(bucket.begin(), bucket.end(), &ref_after);
    }
  }
  auto keep_end = std::remove_if(overflow_.begin(), overflow_.end(), is_stale);
  overflow_.erase(keep_end, overflow_.end());
  stale_refs_ = 0;
}

std::uint64_t Simulator::execute_ref(const Ref& ref) {
  Slot& slot = slot_at(ref.slot);  // chunked storage: address is stable
  if (slot.gen != ref.gen) {
    --stale_refs_;  // cancelled after scheduling; drop silently
    return 0;
  }
  now_ = SimTime::from_micros(ref.when_us);
  --live_events_;
  ++executed_;
  if (probe_) {
    probe_(now_, ref.seq);
  }
  const std::int64_t period_us = slot.period_us;
  // The body runs in place: scheduling from inside it appends a chunk at
  // most, which never relocates existing slots. A self-cancel only bumps
  // slot.gen (cancel_slot defers the release to us via executing_slot_),
  // so the closure we are inside is never destroyed mid-call.
  executing_slot_ = ref.slot;
  slot.fn();
  executing_slot_ = kNoSlot;
  if (period_us > 0 && slot.gen == ref.gen) {
    // Periodic and still live: reschedule in place — same slot, generation
    // and closure, fresh sequence number, no drift (next fire is computed
    // from the scheduled time, not now_).
    insert_ref(Ref{ref.when_us + period_us, next_seq_++, ref.slot, ref.gen});
    ++live_events_;
  } else {
    // One-shot completion, or a periodic that cancelled itself mid-body.
    if (slot.gen == ref.gen) {
      ++slot.gen;  // invalidate outstanding handles
    }
    slot.fn = nullptr;
    free_slots_.push_back(ref.slot);
  }
  return 1;
}

std::uint64_t Simulator::drain(std::int64_t horizon_us) {
  std::uint64_t ran = 0;
  // The window is readied once per bucket, not per event: insertions made
  // while this bucket drains fall back to the overflow store if they land
  // past wheel_end_, and get pulled at the next bucket boundary.
  while (ready_cursor(horizon_us)) {
    const std::int64_t cur = cur_bucket_;
    auto& bucket = bucket_of(cur);
    // Tight per-bucket drain: the vector<Ref> object itself never moves
    // (buckets_ is fixed-size), and an event body that schedules new work
    // either pushes into this same bucket (push_heap keeps the order), a
    // later bucket/overflow, or rewinds cur_bucket_ — checked after each
    // event. Hoisting the wheel/window checks out of the per-event path is
    // worth a measurable slice of the dispatch budget at 10k+ nodes.
    while (!bucket.empty() && bucket.front().when_us <= horizon_us) {
      std::pop_heap(bucket.begin(), bucket.end(), &ref_after);
      const Ref ref = bucket.back();
      bucket.pop_back();
      --wheel_refs_;
      if (!bucket.empty()) {
        // The likely next event is this bucket's new front; issue its slot
        // fetch now so it overlaps with executing the popped event.
        __builtin_prefetch(&slot_at(bucket.front().slot));
      }
      ran += execute_ref(ref);
      if (cur_bucket_ != cur) {
        break;  // an insert landed behind the cursor and rewound it
      }
    }
    if (cur_bucket_ != cur) {
      continue;
    }
    if (!bucket.empty()) {
      // front > horizon, and every later bucket starts even further out.
      return ran;
    }
    // Bucket drained: advance, unless the next bucket already starts past
    // the horizon (then nothing <= horizon can exist on the wheel).
    if (((cur + 1) << kBucketBits) > horizon_us) {
      return ran;
    }
    ++cur_bucket_;
  }
  return ran;
}

std::uint64_t Simulator::run_until(SimTime horizon) {
  const std::uint64_t ran = drain(horizon.count_micros());
  if (now_ < horizon) {
    now_ = horizon;
  }
  return ran;
}

std::uint64_t Simulator::run_all() { return drain(kNoHorizon); }

bool Simulator::step() {
  Ref ref;
  while (pop_ref(kNoHorizon, ref)) {
    if (execute_ref(ref) != 0) {
      return true;
    }
  }
  return false;
}

}  // namespace sdsi::sim
