// Discrete-event simulator kernel: ordering, ties, periodics, cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace sdsi::sim {
namespace {

Duration ms(std::int64_t v) { return Duration::millis(v); }

TEST(Duration, ConversionsAndArithmetic) {
  EXPECT_EQ(Duration::millis(5).count_micros(), 5000);
  EXPECT_EQ(Duration::seconds(1.5).count_micros(), 1500000);
  EXPECT_DOUBLE_EQ(Duration::micros(2500).as_millis(), 2.5);
  EXPECT_EQ((ms(3) + ms(4)).count_micros(), 7000);
  EXPECT_EQ((ms(10) - ms(4)).count_micros(), 6000);
  EXPECT_EQ((ms(3) * 4).count_micros(), 12000);
  EXPECT_LT(ms(1), ms(2));
}

TEST(SimTime, Arithmetic) {
  const SimTime t = SimTime::zero() + ms(100);
  EXPECT_DOUBLE_EQ(t.as_millis(), 100.0);
  EXPECT_EQ((t - SimTime::zero()).count_micros(), 100000);
  EXPECT_EQ((t - ms(40)).count_micros(), 60000);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::zero() + ms(30), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::zero() + ms(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::zero() + ms(20), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  const SimTime when = SimTime::zero() + ms(5);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(when, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.schedule_after(ms(42), [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(seen.as_millis(), 42.0);
  EXPECT_DOUBLE_EQ(sim.now().as_millis(), 42.0);
}

TEST(Simulator, RunUntilStopsAtHorizonInclusive) {
  Simulator sim;
  int ran = 0;
  sim.schedule_after(ms(10), [&] { ++ran; });
  sim.schedule_after(ms(20), [&] { ++ran; });
  sim.schedule_after(ms(21), [&] { ++ran; });
  const std::uint64_t executed = sim.run_until(SimTime::zero() + ms(20));
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(ran, 2);
  // Clock lands exactly on the horizon even if no event sits there.
  EXPECT_DOUBLE_EQ(sim.now().as_millis(), 20.0);
  sim.run_all();
  EXPECT_EQ(ran, 3);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  sim.schedule_after(ms(1), [&] {
    ++depth;
    sim.schedule_after(ms(1), [&] {
      ++depth;
      sim.schedule_after(ms(1), [&] { ++depth; });
    });
  });
  sim.run_all();
  EXPECT_EQ(depth, 3);
}

TEST(Simulator, CancelledEventDoesNotRun) {
  Simulator sim;
  int ran = 0;
  TaskHandle handle = sim.schedule_after(ms(10), [&] { ++ran; });
  handle.cancel();
  sim.run_all();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, PeriodicFiresAtFixedPeriod) {
  Simulator sim;
  std::vector<double> fire_times;
  TaskHandle handle = sim.schedule_periodic(
      SimTime::zero() + ms(10), ms(10),
      [&] { fire_times.push_back(sim.now().as_millis()); });
  sim.run_until(SimTime::zero() + ms(45));
  EXPECT_EQ(fire_times, (std::vector<double>{10, 20, 30, 40}));
  handle.cancel();
  sim.run_until(SimTime::zero() + ms(100));
  EXPECT_EQ(fire_times.size(), 4u);
}

TEST(Simulator, PeriodicCanCancelItself) {
  Simulator sim;
  int fires = 0;
  TaskHandle handle;
  handle = sim.schedule_periodic(SimTime::zero() + ms(1), ms(1), [&] {
    ++fires;
    if (fires == 3) {
      handle.cancel();
    }
  });
  sim.run_until(SimTime::zero() + ms(100));
  EXPECT_EQ(fires, 3);
}

TEST(Simulator, PeriodicHasNoDrift) {
  Simulator sim;
  // Fire every 7ms, 1000 times: last firing must be exactly 7000ms.
  int fires = 0;
  double last = 0;
  TaskHandle handle =
      sim.schedule_periodic(SimTime::zero() + ms(7), ms(7), [&] {
        ++fires;
        last = sim.now().as_millis();
      });
  sim.run_until(SimTime::zero() + ms(7000));
  EXPECT_EQ(fires, 1000);
  EXPECT_DOUBLE_EQ(last, 7000.0);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int ran = 0;
  sim.schedule_after(ms(1), [&] { ++ran; });
  sim.schedule_after(ms(2), [&] { ++ran; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StepSkipsCancelled) {
  Simulator sim;
  int ran = 0;
  TaskHandle a = sim.schedule_after(ms(1), [&] { ran += 1; });
  sim.schedule_after(ms(2), [&] { ran += 10; });
  a.cancel();
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 10);
}

TEST(Simulator, PendingEventsCount) {
  Simulator sim;
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.schedule_after(ms(1), [] {});
  sim.schedule_after(ms(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run_all();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, HandleActiveReflectsState) {
  Simulator sim;
  TaskHandle handle = sim.schedule_after(ms(1), [] {});
  EXPECT_TRUE(handle.active());
  handle.cancel();
  EXPECT_FALSE(handle.active());
  EXPECT_FALSE(TaskHandle().active());
}

// Regression: cancelled entries used to stay in the queue until their
// deadline and were counted by pending_events(). The kernel now excludes
// them immediately and purges the stale refs lazily.
TEST(Simulator, PendingEventsExcludesCancelled) {
  Simulator sim;
  int ran = 0;
  TaskHandle a = sim.schedule_after(ms(10), [&] { ++ran; });
  TaskHandle b = sim.schedule_after(ms(20), [&] { ++ran; });
  sim.schedule_after(ms(30), [&] { ++ran; });
  EXPECT_EQ(sim.pending_events(), 3u);
  a.cancel();
  b.cancel();
  // Deadlines have not passed, yet the cancelled pair no longer counts.
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run_all(), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelledPeriodicStopsCountingImmediately) {
  Simulator sim;
  int fires = 0;
  TaskHandle handle =
      sim.schedule_periodic(SimTime::zero() + ms(5), ms(5), [&] { ++fires; });
  EXPECT_EQ(sim.pending_events(), 1u);
  handle.cancel();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until(SimTime::zero() + ms(100));
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, MassCancellationIsPurgedNotLeaked) {
  Simulator sim;
  int ran = 0;
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(sim.schedule_after(ms(10 + i), [&] { ++ran; }));
  }
  TaskHandle live = sim.schedule_after(ms(2000), [&] { ran += 100; });
  for (TaskHandle& handle : handles) {
    handle.cancel();
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run_all(), 1u);
  EXPECT_EQ(ran, 100);
  EXPECT_FALSE(live.active());
}

TEST(Simulator, StaleHandleCancelDoesNotAffectRecycledSlot) {
  Simulator sim;
  int ran = 0;
  TaskHandle first = sim.schedule_after(ms(1), [&] { ++ran; });
  sim.run_all();
  EXPECT_FALSE(first.active());
  // The new event reuses the released slot; the stale handle's generation
  // no longer matches, so cancelling it must not touch the new occupant.
  TaskHandle second = sim.schedule_after(ms(1), [&] { ran += 10; });
  first.cancel();
  EXPECT_TRUE(second.active());
  sim.run_all();
  EXPECT_EQ(ran, 11);
}

TEST(Simulator, RescheduleBehindParkedCursorKeepsOrder) {
  // Regression: a cancelled far-future one-shot leaves a stale ref that
  // run_all() drains without advancing now(), parking the drain cursor on a
  // far-out bucket. Scheduling at now() then rewinds the cursor; the rewind
  // must also restore the wheel-window invariant, or an event exactly one
  // wheel span ahead aliases onto the same physical bucket as the "now"
  // event and runs before the events between them.
  Simulator sim;
  TaskHandle stale = sim.schedule_after(Duration::seconds(100), [] {});
  stale.cancel();
  EXPECT_EQ(sim.run_all(), 0u);
  EXPECT_DOUBLE_EQ(sim.now().as_seconds(), 0.0);

  std::vector<std::int64_t> order;
  const auto record = [&] { order.push_back(sim.now().count_micros()); };
  sim.schedule_at(sim.now(), record);
  sim.schedule_at(sim.now() + Duration::micros(25600), record);
  // One full span of the smallest and of the largest wheel (buckets times
  // 256 microseconds) ahead: the buckets that alias physically with the
  // "now" bucket.
  sim.schedule_at(sim.now() + Duration::micros(64 * 256), record);
  sim.schedule_at(sim.now() + Duration::micros(8192 * 256), record);
  sim.run_all();
  EXPECT_EQ(order,
            (std::vector<std::int64_t>{0, 64 * 256, 25600, 8192 * 256}));
}

TEST(Simulator, RewindWithLiveWheelRefsEvacuatesAliasedBuckets) {
  // Same parked-cursor setup, but with a LIVE ref already on the wheel at
  // the far-out window when the rewind happens. The rewind must evacuate it
  // (its logical bucket no longer fits the clamped window) so it cannot
  // alias with near-term events, and it must still run last.
  Simulator sim;
  TaskHandle stale = sim.schedule_after(Duration::seconds(100), [] {});
  stale.cancel();
  EXPECT_EQ(sim.run_all(), 0u);

  std::vector<int> order;
  // Lands on the wheel around the parked cursor (bucket ~390625).
  sim.schedule_at(SimTime::zero() + Duration::seconds(100),
                  [&] { order.push_back(4); });
  // Rewinds the cursor to bucket 0.
  sim.schedule_at(SimTime::zero(), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::zero() + Duration::micros(25600),
                  [&] { order.push_back(2); });
  sim.schedule_at(SimTime::zero() + Duration::micros(8192 * 256),
                  [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(sim.now().as_seconds(), 100.0);
}

TEST(TaskHandle, OutlivingSimulatorIsInert) {
  // cancel()/active() on a handle whose Simulator is gone must be safe
  // no-ops (the handle checks a per-simulator liveness token), not UB.
  TaskHandle handle;
  {
    Simulator sim;
    handle = sim.schedule_after(ms(5), [] {});
    EXPECT_TRUE(handle.active());
  }
  EXPECT_FALSE(handle.active());
  handle.cancel();  // must not touch the destroyed Simulator
}

TEST(Simulator, FarFutureEventsCrossOverflowWindow) {
  // Events beyond the wheel span park in the overflow store and must still
  // execute in exact (when, seq) order as the window advances to them.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::zero() + Duration::seconds(300), [&] {
    order.push_back(3);
  });
  sim.schedule_at(SimTime::zero() + Duration::seconds(300), [&] {
    order.push_back(4);
  });
  sim.schedule_at(SimTime::zero() + Duration::seconds(100), [&] {
    order.push_back(2);
  });
  sim.schedule_at(SimTime::zero() + ms(1), [&] { order.push_back(1); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(sim.now().as_seconds(), 300.0);
}

// Property test of the kernel against an executable model. Each seed runs a
// random program that mixes one-shots scheduled inside and outside event
// bodies (at now() too), periodic tasks that cancel themselves or are
// cancelled by other events, cancels of pending events and of stale
// handles, events past the full wheel's ~2.1 s span, and, at the start of
// every other epoch, a cancelled far-future event that parks the drain
// cursor so the next schedule takes the rewind path. The execution probe
// and the event bodies check every dispatch against the model.
class KernelModel {
 public:
  struct Stats {
    std::uint64_t executed = 0;
    std::uint64_t pending_cancels = 0;
    std::uint64_t stale_cancels = 0;
    std::uint64_t self_cancels = 0;
    std::uint64_t periodic_cancels_by_others = 0;
    std::uint64_t far_events_run = 0;
    std::uint64_t parks = 0;
    std::vector<std::size_t> wheel_buckets;  // after each epoch
  };

  /// `bursts[e]` one-shots are scheduled at once in epoch e (none past the
  /// list's end), half the time from inside an event body.
  explicit KernelModel(std::uint64_t seed, std::vector<std::size_t> bursts = {})
      : rng_(seed, 17), bursts_(std::move(bursts)) {
    sim_.set_execution_probe(
        [this](SimTime when, SeqNo seq) { on_probe(when, seq); });
  }

  void run(int epochs) {
    for (int epoch = 0; epoch < epochs; ++epoch) {
      const auto e = static_cast<std::size_t>(epoch);
      run_epoch(epoch % 2 == 1, e < bursts_.size() ? bursts_[e] : 0);
      stats_.wheel_buckets.push_back(sim_.wheel_buckets());
    }
  }

  const Stats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::size_t kEpochBudget = 700;  // one-shots per epoch
  static constexpr std::int64_t kWheelSpanUs = 8192 * 256;
  static constexpr std::size_t kNone = ~std::size_t{0};

  struct Task {
    TaskHandle handle;
    SimTime first;
    Duration period;  // zero => one-shot
    std::uint64_t self_cancel_after = 0;  // periodic; 0 => never
    std::uint64_t fires = 0;
    bool cancelled = false;
    bool past_wheel = false;  // scheduled beyond the wheel span
  };

  bool live(const Task& task) const noexcept {
    return !task.cancelled &&
           (task.period > Duration() || task.fires == 0);
  }

  std::uint32_t below(std::uint32_t bound) { return rng_.bounded(bound); }

  Duration random_delay() {
    const std::uint32_t pick = below(100);
    if (pick < 15) {
      return Duration();  // at now()
    }
    if (pick < 65) {
      return ms(below(50));  // whole ms: plenty of same-instant ties
    }
    if (pick < 85) {
      return Duration::micros(below(2000000));
    }
    if (pick < 97) {
      return Duration::micros(kWheelSpanUs + below(8000000));  // overflow
    }
    return Duration::seconds(100 + below(100));
  }

  std::size_t schedule_one_shot(Duration delay) {
    const std::size_t id = tasks_.size();
    tasks_.push_back(Task{{}, sim_.now() + delay, Duration(), 0, 0, false,
                          delay.count_micros() >= kWheelSpanUs});
    tasks_[id].handle =
        sim_.schedule_at(tasks_[id].first, [this, id] { on_one_shot(id); });
    ++live_;
    ++created_;
    return id;
  }

  void start_periodic() {
    const std::size_t id = tasks_.size();
    const Duration period = ms(5 + below(400));
    const std::uint64_t self_cancel_after = below(2) == 0 ? 1 + below(25) : 0;
    tasks_.push_back(Task{{}, sim_.now() + ms(below(300)), period,
                          self_cancel_after, 0, false, false});
    tasks_[id].handle = sim_.schedule_periodic(
        tasks_[id].first, period, [this, id] { on_periodic(id); });
    ++live_;
  }

  /// Cancels task `id` through its handle and updates the model: a live
  /// task stops counting, a stale handle (already run or cancelled) must
  /// report inactive and change nothing.
  void cancel(std::size_t id) {
    Task& task = tasks_[id];
    if (id == executing_ && task.period == Duration()) {
      // A one-shot's handle stays active until its body returns; cancelling
      // it from inside that body changes nothing.
      task.handle.cancel();
      EXPECT_EQ(sim_.pending_events(), pending_now());
      return;
    }
    if (!live(task)) {
      EXPECT_FALSE(task.handle.active());
      task.handle.cancel();
      ++stats_.stale_cancels;
      EXPECT_EQ(sim_.pending_events(), pending_now());
      return;
    }
    EXPECT_TRUE(task.handle.active());
    if (task.period > Duration()) {
      // Every firing due before now() already ran.
      EXPECT_GE(task.first + task.period * static_cast<std::int64_t>(
                                               task.fires),
                sim_.now());
    }
    task.handle.cancel();
    mark_cancelled(id);
    ++stats_.pending_cancels;
    EXPECT_FALSE(task.handle.active());
    EXPECT_EQ(sim_.pending_events(), pending_now());
  }

  /// Cancels a random task, half the time a recent one (likely still
  /// pending), otherwise any (likely a stale handle).
  void cancel_random() {
    const auto size = static_cast<std::uint32_t>(tasks_.size());
    if (size == 0) {
      return;
    }
    const std::uint32_t span = below(2) == 0 ? std::min(size, 32u) : size;
    cancel(size - 1 - below(span));
  }

  void cancel_random_periodic() {
    for (int attempt = 0; attempt < 8 && !tasks_.empty(); ++attempt) {
      const std::size_t id = below(static_cast<std::uint32_t>(tasks_.size()));
      if (tasks_[id].period > Duration() && live(tasks_[id])) {
        cancel(id);
        ++stats_.periodic_cancels_by_others;
        return;
      }
    }
  }

  void mark_cancelled(std::size_t id) {
    tasks_[id].cancelled = true;
    retire(id);
  }
  /// Takes a finished or cancelled task out of the live count.
  void retire(std::size_t id) {
    --live_;
    if (id == executing_) {
      executing_counted_ = false;
    }
  }

  /// Events the simulator should report pending: the model's live tasks,
  /// minus the one whose body is running while the model still counts it
  /// (the kernel counts a periodic again only once it reschedules).
  std::size_t pending_now() const noexcept {
    return live_ - (executing_counted_ ? 1 : 0);
  }

  void on_probe(SimTime when, SeqNo seq) {
    if (have_last_) {
      EXPECT_TRUE(when > last_when_ || (when == last_when_ && seq > last_seq_))
          << "(when, seq) must increase strictly";
    }
    have_last_ = true;
    last_when_ = when;
    last_seq_ = seq;
    EXPECT_EQ(sim_.now(), when);
    EXPECT_FALSE(probed_) << "two probes without a body in between";
    probed_ = true;
    EXPECT_EQ(sim_.pending_events() + 1, live_);
    ++stats_.executed;
  }

  void random_body_ops() {
    const std::uint32_t pick = below(100);
    if (pick < 60 && created_ < kEpochBudget) {
      schedule_one_shot(random_delay());
      if (below(3) == 0 && created_ < kEpochBudget) {
        schedule_one_shot(Duration());
      }
    } else if (pick < 75) {
      cancel_random();
    } else if (pick < 80) {
      cancel_random_periodic();
    } else if (pick < 83 && created_ < kEpochBudget) {
      start_periodic();
    }
  }

  /// Opens a body: pairs it with its probe and marks it executing.
  void enter(std::size_t id) {
    EXPECT_TRUE(probed_) << "body ran without its probe";
    probed_ = false;
    executing_ = id;
    executing_counted_ = true;
  }
  void leave() {
    executing_ = kNone;
    executing_counted_ = false;
  }

  /// Schedules `count` one-shots at random delays outside the epoch's
  /// one-shot budget.
  void burst(std::size_t count) {
    const std::size_t created = created_;
    for (std::size_t i = 0; i < count; ++i) {
      schedule_one_shot(random_delay());
    }
    created_ = created;
  }

  void on_one_shot(std::size_t id) {
    enter(id);
    Task& task = tasks_[id];
    EXPECT_FALSE(task.cancelled) << "cancelled one-shot ran";
    EXPECT_EQ(task.fires, 0u) << "one-shot ran twice";
    EXPECT_EQ(sim_.now(), task.first);
    ++task.fires;
    retire(id);
    if (task.past_wheel) {
      ++stats_.far_events_run;
    }
    if (pending_burst_ > 0) {
      const std::size_t count = pending_burst_;
      pending_burst_ = 0;
      burst(count);
    }
    random_body_ops();
    leave();
  }

  void on_periodic(std::size_t id) {
    enter(id);
    Task& task = tasks_[id];
    EXPECT_FALSE(task.cancelled) << "cancelled periodic fired";
    EXPECT_EQ(sim_.now(), task.first + task.period * static_cast<std::int64_t>(
                                                        task.fires));
    ++task.fires;
    if (task.fires == task.self_cancel_after) {
      task.handle.cancel();
      mark_cancelled(id);
      ++stats_.self_cancels;
    } else if (below(10) == 0) {
      random_body_ops();
    }
    leave();
  }

  void run_epoch(bool park, std::size_t burst_size) {
    created_ = 0;
    if (park) {
      // Nothing is pending, so this schedule re-anchors the cursor at the
      // far bucket; cancelling leaves its stale ref there, and the next
      // nearer schedule must rewind the cursor and shrink the window.
      EXPECT_EQ(sim_.pending_events(), 0u);
      cancel(schedule_one_shot(Duration::seconds(50 + below(100))));
      ++stats_.parks;
    }
    for (int i = 0; i < 20; ++i) {
      schedule_one_shot(random_delay());
    }
    for (int i = 0; i < 4; ++i) {
      start_periodic();
    }
    if (burst_size > 0 && below(2) == 0) {
      burst(burst_size);
    } else {
      pending_burst_ = burst_size;  // the next one-shot body schedules it
    }
    for (int slice = 0; slice < 40; ++slice) {
      const std::uint32_t pick = below(10);
      if (pick < 7) {
        sim_.run_until(sim_.now() + Duration::micros(below(3000000)));
      } else if (pick < 9) {
        for (std::uint32_t i = below(20); i > 0; --i) {
          sim_.step();
        }
      } else {
        sim_.run_until(sim_.now());
      }
      EXPECT_EQ(sim_.pending_events(), live_);
      for (std::uint32_t i = below(4); i > 0; --i) {
        random_body_ops();
      }
    }
    for (std::size_t id = 0; id < tasks_.size(); ++id) {
      if (tasks_[id].period > Duration() && live(tasks_[id])) {
        cancel(id);
      }
    }
    sim_.run_all();
    EXPECT_EQ(live_, 0u);
    EXPECT_EQ(sim_.pending_events(), 0u);
    for (const Task& task : tasks_) {
      if (task.period == Duration()) {
        EXPECT_EQ(task.fires, task.cancelled ? 0u : 1u);
      }
    }
  }

  Simulator sim_;
  common::Pcg32 rng_;
  std::vector<std::size_t> bursts_;
  std::size_t pending_burst_ = 0;
  std::vector<Task> tasks_;
  std::size_t live_ = 0;
  std::size_t created_ = 0;
  bool probed_ = false;
  std::size_t executing_ = kNone;
  bool executing_counted_ = false;
  bool have_last_ = false;
  SimTime last_when_;
  SeqNo last_seq_ = 0;
  Stats stats_;
};

TEST(SimulatorProperty, RandomProgramsMatchTheModel) {
  KernelModel::Stats total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    KernelModel model(seed);
    model.run(4);
    const KernelModel::Stats& stats = model.stats();
    EXPECT_GT(stats.executed, 2000u);
    total.pending_cancels += stats.pending_cancels;
    total.stale_cancels += stats.stale_cancels;
    total.self_cancels += stats.self_cancels;
    total.periodic_cancels_by_others += stats.periodic_cancels_by_others;
    total.far_events_run += stats.far_events_run;
    total.parks += stats.parks;
  }
  // Every operation the property covers really happened.
  EXPECT_GT(total.pending_cancels, 0u);
  EXPECT_GT(total.stale_cancels, 0u);
  EXPECT_GT(total.self_cancels, 0u);
  EXPECT_GT(total.periodic_cancels_by_others, 0u);
  EXPECT_GT(total.far_events_run, 0u);
  EXPECT_GT(total.parks, 0u);
}

TEST(SimulatorProperty, WheelGrowthUnderBurstsMatchesTheModel) {
  // Bursts of 600, 5,000 and 48,000 pending one-shots grow the wheel from
  // 64 buckets through every doubling to 8,192 (more than 8 live events per
  // bucket), between runs or in the middle of a drain, while the model
  // checks every dispatch.
  std::size_t grown_partway = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    KernelModel model(seed, {600, 5000, 48000});
    model.run(4);
    const KernelModel::Stats& stats = model.stats();
    EXPECT_GT(stats.executed, 53000u);
    ASSERT_EQ(stats.wheel_buckets.size(), 4u);
    EXPECT_GT(stats.wheel_buckets[0], 64u);
    EXPECT_TRUE(std::is_sorted(stats.wheel_buckets.begin(),
                               stats.wheel_buckets.end()))
        << "the wheel never shrinks";
    EXPECT_EQ(stats.wheel_buckets.back(), 8192u)
        << ::testing::PrintToString(stats.wheel_buckets);
    if (stats.wheel_buckets[1] < 8192u) {
      ++grown_partway;
    }
  }
  EXPECT_GT(grown_partway, 0u) << "the wheel took sizes between the bounds";
}

}  // namespace
}  // namespace sdsi::sim
