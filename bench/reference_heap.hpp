// Reference event scheduler: the binary-heap kernel that sim::Simulator ran
// on before its calendar queue. No library or tool links it; two users keep
// it alive:
//
//  - bench_scale's kernel hold-model runs it as the `backend=heap` baseline
//    of the scheduler_speedup row, so it deliberately keeps the old cost
//    profile: one global binary heap of fat entries, a heap-allocated
//    liveness flag per event, the event body parked behind a shared_ptr in
//    a std::function, and a periodic wrapper whose re-arm closure outgrows
//    the std::function small buffer (one allocation per firing).
//  - tests/test_sim.cpp replays seeded random schedules on it and on
//    sim::Simulator and compares the executed (when, seq) streams.
//
// The observable semantics match sim::Simulator: events run in (when, seq)
// order; a sequence number is drawn at every schedule and at every periodic
// re-arm (after the body returns); a cancelled event neither runs nor moves
// now(); pending_events() counts live events only. (Unlike a
// sim::TaskHandle, a handle here stays active() after its one-shot ran.)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace sdsi::bench {

class ReferenceHeap {
 public:
  /// Cancellation handle: a shared liveness flag, so it may outlive the
  /// scheduler.
  class Handle {
   public:
    Handle() = default;
    void cancel() noexcept {
      if (alive_) {
        *alive_ = false;
      }
    }
    bool active() const noexcept { return alive_ && *alive_; }

   private:
    friend class ReferenceHeap;
    explicit Handle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
    std::shared_ptr<bool> alive_;
  };

  ReferenceHeap() = default;
  ReferenceHeap(const ReferenceHeap&) = delete;
  ReferenceHeap& operator=(const ReferenceHeap&) = delete;

  sim::SimTime now() const noexcept { return now_; }

  Handle schedule_at(sim::SimTime when, sim::EventFn fn) {
    SDSI_CHECK(when >= now_);
    SDSI_CHECK(fn != nullptr);
    auto alive = std::make_shared<bool>(true);
    // EventFn is move-only and std::function requires copyable: park the
    // body behind a shared_ptr. The wrapper's 16-byte capture fits the
    // std::function small buffer, so the body itself is the per-event
    // allocation (plus the liveness flag).
    push(Entry{when, next_seq_++, alive,
               [body = std::make_shared<sim::EventFn>(std::move(fn))] {
                 (*body)();
               }});
    return Handle(std::move(alive));
  }

  Handle schedule_after(sim::Duration delay, sim::EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs `fn` every `period`, first at `first`, until cancelled.
  Handle schedule_periodic(sim::SimTime first, sim::Duration period,
                           sim::EventFn fn) {
    SDSI_CHECK(period > sim::Duration());
    auto alive = std::make_shared<bool>(true);
    // The wrapper re-arms itself after the body while the flag stays true.
    auto body = std::make_shared<sim::EventFn>(std::move(fn));
    auto tick = std::make_shared<std::function<void(sim::SimTime)>>();
    *tick = [this, period, alive, body,
             tick_weak = std::weak_ptr<std::function<void(sim::SimTime)>>(
                 tick)](sim::SimTime scheduled) {
      (*body)();
      if (!*alive) {  // the body may cancel its own task
        return;
      }
      if (auto self = tick_weak.lock()) {
        const sim::SimTime next = scheduled + period;
        push(Entry{next, next_seq_++, alive,
                   [self, next] { (*self)(next); }});
      }
    };
    push(Entry{first, next_seq_++, alive, [tick, first] { (*tick)(first); }});
    return Handle(std::move(alive));
  }

  /// Executes live events with when <= horizon, then advances now() to the
  /// horizon. Returns the number executed.
  std::uint64_t run_until(sim::SimTime horizon) {
    std::uint64_t ran = 0;
    while (!heap_.empty() && heap_.front().when <= horizon) {
      ran += execute(pop());
    }
    if (now_ < horizon) {
      now_ = horizon;
    }
    return ran;
  }

  std::uint64_t run_all() {
    std::uint64_t ran = 0;
    while (!heap_.empty()) {
      ran += execute(pop());
    }
    return ran;
  }

  /// Executes the single next live event. Returns false if none is left.
  bool step() {
    while (!heap_.empty()) {
      if (execute(pop()) != 0) {
        return true;
      }
    }
    return false;
  }

  std::uint64_t executed_events() const noexcept { return executed_; }

  /// Live events still queued. A cancelled entry stays in the heap until
  /// its deadline but is not counted (an O(pending) scan; not a hot path).
  std::size_t pending_events() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(heap_.begin(), heap_.end(),
                      [](const Entry& e) { return *e.alive; }));
  }

  /// Invoked as probe(when, seq) immediately before each live event runs.
  void set_execution_probe(std::function<void(sim::SimTime, SeqNo)> probe) {
    probe_ = std::move(probe);
  }

 private:
  struct Entry {
    sim::SimTime when;
    SeqNo seq;
    std::shared_ptr<bool> alive;
    std::function<void()> fn;
  };

  static bool later(const Entry& a, const Entry& b) noexcept {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }

  void push(Entry entry) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), &later);
  }

  Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), &later);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    return entry;
  }

  std::uint64_t execute(Entry entry) {
    if (!*entry.alive) {
      return 0;  // cancelled; dropped without running or moving now()
    }
    now_ = entry.when;
    ++executed_;
    if (probe_) {
      probe_(now_, entry.seq);
    }
    entry.fn();
    return 1;
  }

  std::vector<Entry> heap_;
  sim::SimTime now_;
  SeqNo next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::function<void(sim::SimTime, SeqNo)> probe_;
};

}  // namespace sdsi::bench
