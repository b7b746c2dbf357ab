#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace cronets::sim {

class EventQueue;

/// Handle to a scheduled event; allows O(1) logical cancellation.
/// Cancelled events stay in the heap but are skipped when popped.
///
/// A handle is a (queue, slot, generation) triple into the queue's event
/// arena: when the event fires or is cancelled its slot's generation is
/// bumped, so stale handles become inert (pending() false, cancel() no-op).
/// Handles must not outlive their EventQueue.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if this handle refers to an event that has not fired or been
  /// cancelled yet.
  bool pending() const;

  /// Cancel the event. Safe to call on empty or already-fired handles.
  void cancel();

 private:
  friend class EventQueue;
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint32_t gen)
      : queue_(q), slot_(slot), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Priority queue of timed callbacks. FIFO among events with equal time.
///
/// Storage is an arena of generation-counted 48-byte slots recycled through
/// a free list. A callback that fits the slot's 32-byte inline buffer (every
/// broker, route-plane, chaos and workload callback does) is constructed in
/// place; a larger one (the packet-carrying lambdas of net::Link and
/// net::Host) falls back to one heap allocation. Pending events sit in a
/// 4-ary min-heap of 24-byte POD entries keyed on (time, schedule
/// sequence): the sequence is unique, so the key is a strict total order
/// and the fire order does not depend on the heap's shape. Slot chunks are
/// allocated once and reused for the lifetime of the queue, so steady-state
/// schedule/cancel/fire cycles of inline callbacks perform no allocations.
class EventQueue {
 public:
  /// Callables up to this size (and with fundamental alignment) run from
  /// the slot itself; larger ones fall back to one heap allocation.
  static constexpr std::size_t kInlineBytes = 32;

  /// True when schedule() stores an `F` in its slot without allocating.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t);

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  ~EventQueue() {
    for (std::uint32_t i = 0; i < slot_count_; ++i) {
      Slot& s = slot(i);
      if (s.manage != nullptr) s.manage(Op::kDestroy, s.storage);
    }
  }

  template <typename F>
  EventHandle schedule(Time at, F&& cb) {
    const std::uint32_t idx = acquire_slot();
    Slot& s = slot(idx);
    s.emplace(std::forward<F>(cb));
    heap_push(Entry{at, next_seq_++, idx, s.gen});
    return EventHandle{this, idx, s.gen};
  }

  /// True when no live (non-cancelled) event remains.
  bool empty() {
    drop_stale();
    return heap_.empty();
  }

  /// Earliest live event time; Time::max() when empty.
  Time next_time() {
    drop_stale();
    return heap_.empty() ? Time::max() : heap_.front().at;
  }

  /// Pop and run the earliest live event. Returns false when empty.
  bool run_next(Time* fired_at = nullptr) {
    drop_stale();
    if (heap_.empty()) return false;
    const Entry e = heap_.front();  // POD — no callback copied off the heap
    heap_pop();
    Slot& s = slot(e.slot);
    // Invalidate handles before running (pending() flips, and a cancel()
    // from inside the callback is a harmless no-op), but keep the slot off
    // the free list until the callback returns so reentrant schedule()
    // calls cannot reuse its storage.
    ++s.gen;
    if (fired_at) *fired_at = e.at;
    s.manage(Op::kRun, s.storage);
    s.manage = nullptr;
    free_slot(e.slot);
    return true;
  }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kSlotsPerChunk = 1024;
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;
  static constexpr std::size_t kArity = 4;

  /// kRun invokes the stored callable and then destroys it; kDestroy only
  /// destroys it.
  enum class Op { kRun, kDestroy };

  struct Slot {
    void (*manage)(Op, void*) = nullptr;  // non-null iff a callback is stored
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoFreeSlot;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];

    template <typename F>
    void emplace(F&& cb) {
      using Fn = std::decay_t<F>;
      if constexpr (stores_inline<Fn>) {
        ::new (static_cast<void*>(storage)) Fn(std::forward<F>(cb));
        manage = [](Op op, void* p) {
          Fn* fn = std::launder(reinterpret_cast<Fn*>(p));
          if (op == Op::kRun) (*fn)();
          fn->~Fn();
        };
      } else {
        ::new (static_cast<void*>(storage)) Fn*(new Fn(std::forward<F>(cb)));
        manage = [](Op op, void* p) {
          Fn* fn = *std::launder(reinterpret_cast<Fn**>(p));
          if (op == Op::kRun) (*fn)();
          delete fn;
        };
      }
    }
  };
  static_assert(sizeof(Slot) == 48, "slot: manager, gen, free link, inline buffer");

  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  // Sift-up with a hole: parents that sort after `e` move down one level
  // each, and `e` is written once, at its final position.
  void heap_push(const Entry& e) {
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  // Remove the root: the last entry fills the hole, which sinks past every
  // smallest child that sorts before it.
  void heap_pop() {
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  Slot& slot(std::uint32_t idx) {
    return chunks_[idx / kSlotsPerChunk][idx % kSlotsPerChunk];
  }
  const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx / kSlotsPerChunk][idx % kSlotsPerChunk];
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoFreeSlot) {
      const std::uint32_t idx = free_head_;
      free_head_ = slot(idx).next_free;
      return idx;
    }
    if (slot_count_ == chunks_.size() * kSlotsPerChunk) {
      chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
    }
    return slot_count_++;
  }

  void free_slot(std::uint32_t idx) {
    Slot& s = slot(idx);
    s.next_free = free_head_;
    free_head_ = idx;
  }

  bool live(std::uint32_t idx, std::uint32_t gen) const {
    return idx < slot_count_ && slot(idx).gen == gen &&
           slot(idx).manage != nullptr;
  }

  void cancel(std::uint32_t idx, std::uint32_t gen) {
    if (!live(idx, gen)) return;
    Slot& s = slot(idx);
    ++s.gen;  // stale heap entry is dropped when it reaches the top
    s.manage(Op::kDestroy, s.storage);
    s.manage = nullptr;
    free_slot(idx);
  }

  void drop_stale() {
    while (!heap_.empty() && slot(heap_.front().slot).gen != heap_.front().gen) {
      heap_pop();
    }
  }

  // Chunked so slot addresses stay stable while callbacks run and schedule
  // more events; chunks are never returned until destruction.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::vector<Entry> heap_;  // 4-ary min-heap under before()
  std::uint64_t next_seq_ = 0;
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->live(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel(slot_, gen_);
}

}  // namespace cronets::sim
