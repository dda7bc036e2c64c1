// Discrete-event simulator kernel: ordering, ties, periodics, cancellation,
// and a differential replay against the reference binary-heap kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "bench/reference_heap.hpp"
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
// deadline and were counted by pending_events(). The calendar backend now
// excludes them immediately and purges the stale refs lazily.
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
  // One full wheel span (kNumBuckets << kBucketBits microseconds) ahead:
  // the bucket that aliases physically with the "now" bucket.
  sim.schedule_at(sim.now() + Duration::micros(8192 * 256), record);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 25600, 8192 * 256}));
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

// ---------------------------------------------------------------------------
// Kernel differential test: one seeded random schedule replayed on the
// calendar queue and on the reference binary-heap kernel must execute the
// identical (when, seq, event-id) stream and agree on executed_events(),
// pending_events() and now() after every step of the schedule.

struct Executed {
  std::int64_t when_us = 0;
  SeqNo seq = 0;
  int id = -1;  // which scheduled event ran (filled in by its body)
  bool operator==(const Executed&) const = default;
};

struct Checkpoint {
  std::uint64_t executed = 0;
  std::size_t pending = 0;
  std::int64_t now_us = 0;
  bool operator==(const Checkpoint&) const = default;
};

template <typename Sched>
class RandomSchedule {
 public:
  explicit RandomSchedule(std::uint64_t seed) : rng_(seed) {
    sim_.set_execution_probe([this](SimTime when, SeqNo seq) {
      trace_.push_back(Executed{when.count_micros(), seq, -1});
    });
  }

  void run() {
    for (int phase = 0; phase < 6; ++phase) {
      for (int i = 0; i < 60; ++i) {
        one_shot(draw_delay());
      }
      for (int i = 0; i < 16; ++i) {
        periodic(draw_delay());
      }
      for (int round = 0; round < 60; ++round) {
        const std::uint64_t r = next(10);
        if (r < 6) {
          // run_until in uneven steps, zero-length ones included.
          const auto span = static_cast<std::int64_t>(next(3000000));
          sim_.run_until(sim_.now() + Duration::micros(span));
        } else if (r < 9) {
          for (std::uint64_t k = next(20); k > 0; --k) {
            sim_.step();
          }
        } else {
          // Outside the run loop: cancels, and a burst of same-instant ties.
          for (std::uint64_t k = next(4); k > 0; --k) {
            handles_[next(handles_.size())].cancel();
          }
          const Duration d = draw_delay();
          for (int k = 0; k < 3; ++k) {
            one_shot(d);
          }
        }
        checkpoint();
      }
      // Cancel everything (periodics included) and drain the stale entries:
      // the calendar's cursor parks on the last stale ref while now() stays.
      for (Handle& handle : handles_) {
        handle.cancel();
      }
      sim_.run_all();
      checkpoint();
      // Re-anchor the empty wheel far out, then schedule at now() and
      // between: the cursor rewind with a live far ref (shrink_window).
      one_shot(Duration::seconds(5));
      one_shot(Duration());
      one_shot(Duration::micros(25600));
      one_shot(Duration::micros(8192 * 256));
      checkpoint();
    }
    sim_.run_all();
    checkpoint();
  }

  const std::vector<Executed>& trace() const { return trace_; }
  const std::vector<Checkpoint>& checkpoints() const { return checkpoints_; }

 private:
  using Handle = decltype(std::declval<Sched&>().schedule_at(SimTime(),
                                                             EventFn()));

  std::uint64_t next(std::uint64_t bound) {
    // splitmix64: identical draws on both kernels as long as the bodies run
    // in the same order.
    std::uint64_t z = (rng_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) % bound;
  }

  /// Same instant, sub-bucket, within the ~2.1 s wheel span, or beyond it.
  Duration draw_delay() {
    const std::uint64_t r = next(100);
    if (r < 15) {
      return Duration();
    }
    if (r < 55) {
      return Duration::micros(static_cast<std::int64_t>(next(5000)));
    }
    if (r < 85) {
      return Duration::micros(static_cast<std::int64_t>(next(1000000)));
    }
    return Duration::micros(2200000 + static_cast<std::int64_t>(next(8000000)));
  }

  void one_shot(Duration delay) {
    const int id = static_cast<int>(handles_.size());
    handles_.push_back(
        sim_.schedule_after(delay, [this, id] { body(id, false); }));
  }

  void periodic(Duration first) {
    const int id = static_cast<int>(handles_.size());
    const Duration period =
        Duration::micros(1000 + static_cast<std::int64_t>(next(400000)));
    handles_.push_back(sim_.schedule_periodic(
        sim_.now() + first, period, [this, id] { body(id, true); }));
  }

  void body(int id, bool is_periodic) {
    trace_.back().id = id;
    const std::uint64_t r = next(100);
    if (r < 30) {
      one_shot(draw_delay());  // a zero delay schedules at now()
    } else if (r < 40) {
      handles_[next(handles_.size())].cancel();
    } else if (r < 42) {
      handles_[static_cast<std::size_t>(id)].cancel();  // self-cancel
    } else if (r < 44 && is_periodic) {
      periodic(draw_delay());
    }
  }

  void checkpoint() {
    checkpoints_.push_back(Checkpoint{sim_.executed_events(),
                                      sim_.pending_events(),
                                      sim_.now().count_micros()});
  }

  Sched sim_;
  std::uint64_t rng_;
  std::vector<Handle> handles_;
  std::vector<Executed> trace_;
  std::vector<Checkpoint> checkpoints_;
};

TEST(SimulatorDifferential, MatchesReferenceHeapOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    RandomSchedule<Simulator> calendar(seed);
    RandomSchedule<bench::ReferenceHeap> heap(seed);
    calendar.run();
    heap.run();

    const std::vector<Executed>& got = calendar.trace();
    const std::vector<Executed>& want = heap.trace();
    // The schedule must be big enough to mean something.
    ASSERT_GT(want.size(), 10000u);
    ASSERT_EQ(got.size(), want.size());
    const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin());
    ASSERT_TRUE(g == got.end())
        << "event " << (g - got.begin()) << ": calendar ran (" << g->when_us
        << " us, seq " << g->seq << ", id " << g->id << "), reference ran ("
        << w->when_us << " us, seq " << w->seq << ", id " << w->id << ")";
    EXPECT_TRUE(calendar.checkpoints() == heap.checkpoints());
    for (std::size_t i = 1; i < got.size(); ++i) {
      ASSERT_TRUE(std::pair(got[i - 1].when_us, got[i - 1].seq) <
                  std::pair(got[i].when_us, got[i].seq))
          << "event " << i;
    }
  }
}

}  // namespace
}  // namespace sdsi::sim
