// The simulator's event queue: a 4-ary min-heap of (time, seq) keys.
//
// Ordering keys are 24-byte PODs, kept apart from the handlers so every
// comparison and swap touches only the flat key array. Handlers live in
// fixed-size chunks addressed by slot index: a handler is placed once on Push
// and run in place by RunNext, so it is never relocated through its indirect
// move. A slot returns to the free list only after its handler returns, so a
// handler that schedules new events never sees its own slot move or get reused.
#ifndef COLDSTART_SIM_EVENT_QUEUE_H_
#define COLDSTART_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_handler.h"
#include "common/sim_time.h"

namespace coldstart::sim {

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  size_t size() const { return keys_.size(); }

  // Queues `fn` under the key (t, seq); keys must be unique.
  void Push(SimTime t, uint64_t seq, InlineHandler&& fn);

  // Fills (time, seq) of the earliest event; returns false when empty.
  bool Peek(SimTime* time, uint64_t* seq) const;

  // Removes the earliest event and invokes its handler in place. The queue
  // must not be empty.
  void RunNext();

  // Calls f(time, seq, handler) for every queued event, in heap order (not
  // key order). Read-only: checkpoint writers inspect pending handlers.
  template <typename F>
  void ForEach(F&& f) const {
    for (const Key& key : keys_) {
      f(key.time, key.seq, Slot(key.slot));
    }
  }

 private:
  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;  // Index of the handler's chunk slot.
  };
  static constexpr int kChunkBits = 8;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;
  struct Chunk {
    InlineHandler slots[kChunkSize];
  };

  static bool Before(const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  InlineHandler& Slot(uint32_t index) {
    return chunks_[index >> kChunkBits]->slots[index & (kChunkSize - 1)];
  }
  const InlineHandler& Slot(uint32_t index) const {
    return chunks_[index >> kChunkBits]->slots[index & (kChunkSize - 1)];
  }
  uint32_t AcquireSlot();

  std::vector<Key> keys_;  // 4-ary min-heap by (time, seq).
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<uint32_t> free_slots_;
  uint32_t slot_count_ = 0;  // Slots handed out from chunks_ so far.
};

}  // namespace coldstart::sim

#endif  // COLDSTART_SIM_EVENT_QUEUE_H_
