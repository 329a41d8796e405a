#include "sim/simulator.h"

#include <limits>
#include <memory>

namespace coldstart::sim {

uint64_t Simulator::RunLoop(SimTime until) {
  uint64_t processed = 0;
  while (!stop_requested_) {
    SimTime source_time = 0;
    uint64_t source_seq = 0;
    const bool have_source =
        source_ != nullptr && source_->Head(&source_time, &source_seq);
    SimTime queue_time = 0;
    uint64_t queue_seq = 0;
    const bool have_queued = queue_.Peek(&queue_time, &queue_seq);
    if (!have_source && !have_queued) {
      break;
    }
    // Ties break on seq: reserved stream seqs interleave with queued ones.
    const bool source_first =
        have_source && (!have_queued || source_time < queue_time ||
                        (source_time == queue_time && source_seq < queue_seq));
    const SimTime next = source_first ? source_time : queue_time;
    if (next > until) {
      break;
    }
    now_ = next;
    if (source_first) {
      source_->RunHead();
    } else {
      queue_.RunNext();
    }
    ++processed;
    ++events_processed_;
  }
  return processed;
}

uint64_t Simulator::RunUntil(SimTime until) {
  stop_requested_ = false;
  const uint64_t processed = RunLoop(until);
  // A stopped run leaves the clock at the last processed event; otherwise the clock
  // advances to the requested horizon even when the queue drained early.
  if (!stop_requested_ && now_ < until) {
    now_ = until;
  }
  return processed;
}

uint64_t Simulator::RunToCompletion() {
  stop_requested_ = false;
  return RunLoop(std::numeric_limits<SimTime>::max());
}

void SchedulePeriodic(Simulator& sim, SimTime start, SimDuration period, SimTime end,
                      std::function<void(int64_t)> fn) {
  COLDSTART_CHECK_GT(period, 0);
  if (start >= end) {
    return;
  }
  // A small heap state carries the tick index through the self-rescheduling closure.
  struct State {
    Simulator* sim;
    SimDuration period;
    SimTime end;
    int64_t index;
    std::function<void(int64_t)> fn;
  };
  auto state = std::make_shared<State>(State{&sim, period, end, 0, std::move(fn)});
  // Self-rescheduling functor (a recursive lambda in struct form); the shared_ptr
  // fits the handler's inline buffer.
  struct Recur {
    std::shared_ptr<State> s;
    void operator()() const {
      s->fn(s->index);
      ++s->index;
      const SimTime next = s->sim->now() + s->period;
      if (next < s->end) {
        s->sim->ScheduleAt(next, Recur{s});
      }
    }
  };
  sim.ScheduleAt(start, Recur{state});
}

}  // namespace coldstart::sim
