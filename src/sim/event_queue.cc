#include "sim/event_queue.h"

#include <utility>

#include "common/check.h"

namespace coldstart::sim {

uint32_t EventQueue::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if ((slot_count_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Chunk>());
  }
  return slot_count_++;
}

void EventQueue::Push(SimTime t, uint64_t seq, InlineHandler&& fn) {
  const uint32_t slot = AcquireSlot();
  Slot(slot) = std::move(fn);
  const Key key{t, seq, slot};
  // Sift the hole up from the new leaf.
  size_t i = keys_.size();
  keys_.push_back(key);
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Before(key, keys_[parent])) {
      break;
    }
    keys_[i] = keys_[parent];
    i = parent;
  }
  keys_[i] = key;
}

bool EventQueue::Peek(SimTime* time, uint64_t* seq) const {
  if (keys_.empty()) {
    return false;
  }
  *time = keys_.front().time;
  *seq = keys_.front().seq;
  return true;
}

void EventQueue::RunNext() {
  COLDSTART_CHECK(!keys_.empty());
  const uint32_t slot = keys_.front().slot;
  // Sift the last key down from the root hole.
  const Key last = keys_.back();
  keys_.pop_back();
  const size_t n = keys_.size();
  if (n > 0) {
    size_t i = 0;
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) {
        break;
      }
      const size_t end = first + 4 < n ? first + 4 : n;
      size_t best = first;
      for (size_t c = first + 1; c < end; ++c) {
        if (Before(keys_[c], keys_[best])) {
          best = c;
        }
      }
      if (!Before(keys_[best], last)) {
        break;
      }
      keys_[i] = keys_[best];
      i = best;
    }
    keys_[i] = last;
  }
  // The slot stays taken while its handler runs; pushes it makes land elsewhere.
  InlineHandler& fn = Slot(slot);
  fn();
  fn = InlineHandler();
  free_slots_.push_back(slot);
}

}  // namespace coldstart::sim
