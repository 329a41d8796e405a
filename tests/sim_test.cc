// Tests for the discrete-event simulator core: time/FIFO ordering of the key
// heap (near and far timestamps, reentrant schedules, restored queues), clock
// semantics, and the merged EventSource stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace coldstart::sim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, NowAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.ScheduleAt(42, [&] { seen = sim.now(); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, 42);
}

TEST(SimulatorTest, HandlersCanScheduleMore) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      sim.ScheduleAfter(10, chain);
    }
  };
  sim.ScheduleAt(0, chain);
  sim.RunToCompletion();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  sim.ScheduleAt(30, [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(20), 2u);  // Events at exactly `until` fire.
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 100);  // Clock advances to the requested horizon.
}

TEST(SimulatorTest, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.ScheduleAt(2, [&] { ++fired; });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, SchedulingInPastDies) {
  Simulator sim;
  sim.ScheduleAt(100, [] {});
  sim.RunToCompletion();
  EXPECT_DEATH(sim.ScheduleAt(50, [] {}), "CHECK");
}

TEST(SimulatorTest, EventCountAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.ScheduleAt(i, [] {});
  }
  sim.RunToCompletion();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(SimulatorTest, ForEachPendingVisitsEveryQueuedKey) {
  Simulator sim;
  sim.ScheduleAt(30, [] {});
  sim.ScheduleAt(10, [] {});
  sim.ScheduleAt(20, [] {});
  sim.RunUntil(15);
  std::vector<std::pair<SimTime, uint64_t>> keys;
  sim.ForEachPending([&keys](SimTime t, uint64_t seq, const InlineHandler& h) {
    EXPECT_TRUE(static_cast<bool>(h));
    keys.emplace_back(t, seq);
  });
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<std::pair<SimTime, uint64_t>>{{20, 2}, {30, 0}}));
}

// --- (time, seq) ordering across time gaps, reentrancy and restore. ---

TEST(SimulatorTest, StoppedRunLeavesClockAtLastEvent) {
  Simulator sim;
  sim.ScheduleAt(10, [&] { sim.Stop(); });
  sim.RunUntil(1000);
  // The queue is empty and Stop() was honored: the clock must not jump to 1000.
  EXPECT_EQ(sim.now(), 10);
  // A fresh run without Stop() does advance to the horizon.
  EXPECT_EQ(sim.RunUntil(1000), 0u);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(SimulatorTest, SameTimeFifoAcrossWheelLevels) {
  // Events at one far timestamp are pushed at different moments: from far
  // ahead, after a partial run, and just before the timestamp. The key heap
  // orders equal times by insertion seq, so they fire FIFO.
  Simulator sim;
  const SimTime t = 10 * kMinute;
  std::vector<int> order;
  sim.ScheduleAt(t, [&] { order.push_back(0); });        // Pushed 10 minutes ahead.
  sim.RunUntil(8 * kMinute);                             // Now 2 minutes before t.
  sim.ScheduleAt(t, [&] { order.push_back(1); });
  sim.RunUntil(t - 100 * kMillisecond);                  // Now 100 ms before t.
  sim.ScheduleAt(t, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorTest, MixedHorizonsFireInTimeOrder) {
  Simulator sim;
  std::vector<SimTime> fire_times;
  const std::vector<SimTime> times = {
      3 * kHour,  500,  kDay, 2 * kMinute, 90 * kSecond, 1,
      5 * kHour,  kDay, 999,  kMinute,     kSecond,      kHour + 1,
  };
  for (const SimTime t : times) {
    sim.ScheduleAt(t, [&fire_times, &sim] { fire_times.push_back(sim.now()); });
  }
  sim.RunToCompletion();
  std::vector<SimTime> expected = times;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fire_times, expected);
}

TEST(SimulatorTest, ScheduleIntoCursorGapPreservesOrder) {
  // RunUntil stops at its limit and leaves a far event on the heap; events
  // scheduled afterwards between now and that far event must still fire
  // first, in insertion order.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(kHour, [&] { order.push_back(1); });  // Far event, left queued.
  sim.RunUntil(1000);
  EXPECT_EQ(sim.now(), 1000);
  sim.ScheduleAt(2000, [&] { order.push_back(0); });  // Before the far event.
  sim.ScheduleAt(2000, [&] { order.push_back(10); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1}));
  EXPECT_EQ(sim.now(), kHour);
}

TEST(SimulatorTest, RandomScheduleMatchesStableSortOrder) {
  // The queue must reproduce exactly the (time, insertion seq) total order of a
  // stable sort, across near and far timestamps.
  Simulator sim;
  Rng rng(2024);
  std::vector<std::pair<SimTime, int>> scheduled;
  std::vector<int> fired;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    // Spread over ~6 minutes: sub-second neighbours and minute-scale gaps.
    const SimTime t = static_cast<SimTime>(rng.NextBounded(6 * kMinute));
    scheduled.push_back({t, i});
    sim.ScheduleAt(t, [&fired, i] { fired.push_back(i); });
  }
  sim.RunToCompletion();
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(fired.size(), scheduled.size());
  for (size_t i = 0; i < scheduled.size(); ++i) {
    EXPECT_EQ(fired[i], scheduled[i].second) << "position " << i;
  }
}

// Records every key queued on `sim` so a run can be checked against the stable
// sort of those keys. Handlers draw on a shared budget to schedule further
// events at now(), just after it, or minutes later while they run.
class KeyOrderReference {
 public:
  explicit KeyOrderReference(int reentrant_budget) : budget_(reentrant_budget) {}

  Simulator& sim() { return sim_; }
  Rng& rng() { return rng_; }

  // Queues a new event at `t` through ScheduleAt.
  void Schedule(SimTime t) {
    const int id = Record(t, sim_.next_seq());
    sim_.ScheduleAt(t, [this, id] { Fire(id); });
  }
  // Re-queues an event under an explicit checkpointed key.
  void Restore(SimTime t, uint64_t seq) {
    const int id = Record(t, seq);
    sim_.RestoreEvent(t, seq, [this, id] { Fire(id); });
  }

  // Every event fired, in (time, seq) order: the stable sort by time of the
  // keys listed in seq order.
  void ExpectStableSortOrder() {
    std::sort(keys_.begin(), keys_.end(), [](const Entry& a, const Entry& b) {
      return a.seq < b.seq;
    });
    std::stable_sort(keys_.begin(), keys_.end(), [](const Entry& a, const Entry& b) {
      return a.time < b.time;
    });
    ASSERT_EQ(fired_.size(), keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) {
      EXPECT_EQ(fired_[i], keys_[i].id) << "position " << i;
    }
  }

 private:
  struct Entry {
    SimTime time;
    uint64_t seq;
    int id;
  };

  int Record(SimTime t, uint64_t seq) {
    const int id = static_cast<int>(keys_.size());
    keys_.push_back({t, seq, id});
    return id;
  }

  void Fire(int id) {
    fired_.push_back(id);
    while (budget_ > 0 && rng_.NextBounded(3) != 0) {
      --budget_;
      switch (rng_.NextBounded(3)) {
        case 0:
          Schedule(sim_.now());
          break;
        case 1:
          Schedule(sim_.now() + static_cast<SimTime>(rng_.NextBounded(kMillisecond)));
          break;
        default:
          Schedule(sim_.now() + static_cast<SimTime>(rng_.NextBounded(10)) * kMinute);
          break;
      }
    }
  }

  Simulator sim_;
  Rng rng_{77};
  std::vector<Entry> keys_;
  std::vector<int> fired_;
  int budget_;
};

TEST(SimulatorTest, ReentrantAndRestoredSchedulesMatchStableSortOrder) {
  // Coarse 100 ms timestamps make same-time ties common.
  {
    // Handlers schedule at and after now() while they run.
    KeyOrderReference ref(/*reentrant_budget=*/4000);
    for (int i = 0; i < 2000; ++i) {
      ref.Schedule(static_cast<SimTime>(ref.rng().NextBounded(3600)) * 100 * kMillisecond);
    }
    ref.sim().RunToCompletion();
    ref.ExpectStableSortOrder();
  }
  {
    // A checkpointed queue restored in shuffled seq order, then run with the
    // same reentrant schedules.
    KeyOrderReference ref(/*reentrant_budget=*/4000);
    const uint64_t restored = 3000;
    ref.sim().RestoreClock(kHour, restored, /*events_processed=*/0);
    std::vector<uint64_t> seqs(restored);
    for (uint64_t i = 0; i < restored; ++i) {
      seqs[i] = i;
    }
    for (uint64_t i = restored - 1; i > 0; --i) {
      std::swap(seqs[i], seqs[ref.rng().NextBounded(i + 1)]);
    }
    for (const uint64_t seq : seqs) {
      ref.Restore(kHour + static_cast<SimTime>(ref.rng().NextBounded(3600)) *
                              100 * kMillisecond,
                  seq);
    }
    ASSERT_EQ(ref.sim().pending_events(), restored);
    ref.sim().RunToCompletion();
    ref.ExpectStableSortOrder();
  }
}

TEST(SimulatorTest, HandlersSchedulingAtNowRunThisSweep) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(100, [&] {
    order.push_back(0);
    sim.ScheduleAt(100, [&] { order.push_back(2); });  // Same timestamp, later seq.
  });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 100);
}

// --- EventSource merging. ---

// A stream of `count` events at fixed `stride` spacing, opened with a reserved
// seq range like the platform's arrival cursor.
class TestSource : public EventSource {
 public:
  TestSource(Simulator& sim, SimTime start, SimTime stride, int count,
             std::vector<int>* log)
      : sim_(sim), start_(start), stride_(stride), count_(count), log_(log) {}

  void Reserve() { seq_base_ = sim_.ReserveSeqRange(static_cast<uint64_t>(count_)); }

  bool Head(SimTime* time, uint64_t* seq) override {
    if (next_ == count_) {
      return false;
    }
    *time = start_ + stride_ * next_;
    *seq = seq_base_ + static_cast<uint64_t>(next_);
    return true;
  }

  void RunHead() override {
    log_->push_back(1000 + next_);
    ++next_;
  }

 private:
  Simulator& sim_;
  SimTime start_;
  SimTime stride_;
  int count_;
  std::vector<int>* log_;
  uint64_t seq_base_ = 0;
  int next_ = 0;
};

TEST(EventSourceTest, StreamInterleavesWithQueueByTime) {
  Simulator sim;
  std::vector<int> log;
  TestSource source(sim, 10, 20, 3, &log);  // Heads at 10, 30, 50.
  source.Reserve();
  sim.AttachSource(&source);
  sim.ScheduleAt(5, [&] { log.push_back(0); });
  sim.ScheduleAt(20, [&] { log.push_back(1); });
  sim.ScheduleAt(40, [&] { log.push_back(2); });
  sim.ScheduleAt(60, [&] { log.push_back(3); });
  sim.RunToCompletion();
  EXPECT_EQ(log, (std::vector<int>{0, 1000, 1, 1001, 2, 1002, 3}));
  EXPECT_EQ(sim.events_processed(), 7u);
  sim.AttachSource(nullptr);
}

TEST(EventSourceTest, SameTimeTieBreaksBySeq) {
  // A queued event scheduled before the stream reserves its range outranks the
  // stream head at the same timestamp; one scheduled after does not.
  Simulator sim;
  std::vector<int> log;
  sim.ScheduleAt(10, [&] { log.push_back(0); });  // seq 0 < stream seqs.
  TestSource source(sim, 10, 10, 2, &log);        // Heads at 10, 20.
  source.Reserve();                               // seqs 1, 2.
  sim.AttachSource(&source);
  sim.ScheduleAt(10, [&] { log.push_back(1); });  // seq 3 > stream head seq.
  sim.ScheduleAt(20, [&] { log.push_back(2); });  // seq 4 > second head.
  sim.RunToCompletion();
  EXPECT_EQ(log, (std::vector<int>{0, 1000, 1, 1001, 2}));
  sim.AttachSource(nullptr);
}

TEST(EventSourceTest, RunUntilHonorsStreamBoundary) {
  Simulator sim;
  std::vector<int> log;
  TestSource source(sim, 100, 100, 3, &log);  // Heads at 100, 200, 300.
  source.Reserve();
  sim.AttachSource(&source);
  EXPECT_EQ(sim.RunUntil(200), 2u);  // Heads at 100 and 200 fire; 300 waits.
  EXPECT_EQ(sim.now(), 200);
  EXPECT_EQ(log, (std::vector<int>{1000, 1001}));
  sim.RunToCompletion();
  EXPECT_EQ(log, (std::vector<int>{1000, 1001, 1002}));
  sim.AttachSource(nullptr);
}

}  // namespace
}  // namespace coldstart::sim
