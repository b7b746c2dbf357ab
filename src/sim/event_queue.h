#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace cronets::sim {

class EventQueue;

/// Handle to a scheduled event; allows O(1) logical cancellation.
/// Cancelled events stay queued but are skipped when they reach the front.
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
/// net::Host) falls back to one heap allocation. Slot chunks are allocated
/// once and reused for the lifetime of the queue, so steady-state
/// schedule/cancel/fire cycles of inline callbacks allocate no slots; the
/// far tier below allocates per bucket (its entries grow as it fills and
/// are freed once it has fired), not per event.
///
/// Pending events sit in two tiers over time buckets of kBucketNs, one of
/// which is loaded at a time:
///  - The near tier is a 4-ary min-heap of 24-byte (time, schedule
///    sequence, slot, generation) entries holding every event due no later
///    than the end of the loaded bucket.
///  - A later event appends a 16-byte (time, slot, generation) entry to a
///    ring of kRingBuckets buckets, unsorted; one beyond the ring's horizon
///    goes to an overflow list that moves into the ring once the ring
///    reaches it.
/// Session departures, far ahead and rarely cancelled, live in the far
/// tier. Packet timers are mostly near, but not all: a TCP retransmission
/// timer (at least rto_min, 200 ms) re-armed on every ACK always lands
/// far, as does any short timer that crosses the loaded bucket's end. In
/// BM_TcpBulkTransferSimSecond 22% of schedules go far and 84% of the far
/// entries are cancelled re-arms by the time their bucket loads; in
/// core::PacketLab runs it is 7-9% and 36-55%. Those stale entries are
/// sorted with the rest and skipped at the front of the run.
/// When the heap and the loaded run are both exhausted, the next non-empty
/// bucket is stably sorted by time and becomes the run, which each pop
/// merges with the heap. Equal times stay FIFO without a stored sequence:
/// a bucket's entries arrive in schedule order (migrated overflow entries,
/// all scheduled before the bucket came within the horizon, go in front of
/// its direct appends), and every heap entry was scheduled after the run
/// was loaded, so the run wins ties. Cancelled entries of either tier are
/// dropped when they reach the front, by the slot generation check.
class EventQueue {
 public:
  /// Callables up to this size (and with fundamental alignment) run from
  /// the slot itself; larger ones fall back to one heap allocation.
  static constexpr std::size_t kInlineBytes = 32;

  /// Far-tier buckets are kBucketNs (~67 ms) wide; the ring of
  /// kRingBuckets reaches ~18 simulated minutes past the loaded bucket.
  /// Of the widths 2^24-2^30 ns, BM_EventQueueChurnPending reads within
  /// noise from 2^24 to 2^28 and slower at 2^30 with 10^7 pending.
  /// BM_TcpBulkTransferSimSecond reads faster with narrower buckets (a
  /// smaller near heap), but 2^24 raised churn_direct's peak RSS by 1.5%
  /// with no throughput gain shown there.
  static constexpr int kBucketShift = 26;
  static constexpr std::int64_t kBucketNs = std::int64_t{1} << kBucketShift;
  static constexpr std::int64_t kRingBuckets = std::int64_t{1} << 14;

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
    const std::int64_t b = bucket_of(at);
    if (b <= loaded_) {
      heap_push(NearEntry{at, next_seq_++, idx, s.gen});
    } else {
      far_push(b, FarEntry{at, idx, s.gen});
    }
    return EventHandle{this, idx, s.gen};
  }

  /// True when no live (non-cancelled) event remains.
  bool empty() { return settle() == Tier::kNone; }

  /// Earliest live event time; Time::max() when empty.
  Time next_time() {
    switch (settle()) {
      case Tier::kNear:
        return heap_.front().at;
      case Tier::kRun:
        return run_[run_pos_].at;
      case Tier::kNone:
        break;
    }
    return Time::max();
  }

  /// Pop and run the earliest live event. Returns false when empty.
  // Forced inline: left to itself GCC calls it out of line from a
  // translation unit with several event loops, which made each near-tier
  // event 5-15% dearer in BM_EventQueueScheduleRun and BM_EventQueueChurn.
  [[gnu::always_inline]] bool run_next(Time* fired_at = nullptr) {
    Time at;
    std::uint32_t idx = 0;
    switch (settle()) {
      case Tier::kNone:
        return false;
      case Tier::kNear:
        at = heap_.front().at;  // POD — no callback copied off the heap
        idx = heap_.front().slot;
        heap_pop();
        break;
      case Tier::kRun:
        at = run_[run_pos_].at;
        idx = run_[run_pos_].slot;
        ++run_pos_;
        // The run is sorted, so the slot it fires a few pops from now is
        // known: fetch it while this callback runs.
        if (run_pos_ + kPrefetchAhead < run_.size()) {
          __builtin_prefetch(&slot(run_[run_pos_ + kPrefetchAhead].slot), 1);
        }
        break;
    }
    Slot& s = slot(idx);
    // Invalidate handles before running (pending() flips, and a cancel()
    // from inside the callback is a harmless no-op), but keep the slot off
    // the free list until the callback returns so reentrant schedule()
    // calls cannot reuse its storage.
    ++s.gen;
    if (fired_at) *fired_at = at;
    s.manage(Op::kRun, s.storage);
    s.manage = nullptr;
    free_slot(idx);
    return true;
  }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kSlotsPerChunk = 1024;
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;
  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kPrefetchAhead = 4;
  static constexpr std::int64_t kNoBucket = std::numeric_limits<std::int64_t>::max();

  /// kRun invokes the stored callable and then destroys it; kDestroy only
  /// destroys it.
  enum class Op { kRun, kDestroy };

  /// Which tier holds the earliest live event.
  enum class Tier { kNone, kNear, kRun };

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

  struct NearEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  struct FarEntry {
    Time at;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static_assert(sizeof(FarEntry) == 16, "far entry: time, slot, gen");

  static std::int64_t bucket_of(Time at) { return at.ns() >> kBucketShift; }

  static bool before(const NearEntry& a, const NearEntry& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  // Sift-up with a hole: parents that sort after `e` move down one level
  // each, and `e` is written once, at its final position.
  void heap_push(const NearEntry& e) {
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
    const NearEntry last = heap_.back();
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

  std::vector<FarEntry>& ring_bucket(std::int64_t b) {
    return ring_[static_cast<std::size_t>(b & (kRingBuckets - 1))];
  }

  // Appends to bucket `b` (> loaded_): the ring covers the kRingBuckets
  // buckets after the loaded one, the overflow everything later.
  void far_push(std::int64_t b, const FarEntry& e) {
    if (!ring_) ring_ = std::make_unique<std::vector<FarEntry>[]>(kRingBuckets);
    if (b - loaded_ > kRingBuckets) {
      overflow_.push_back(e);
      if (b < overflow_min_) overflow_min_ = b;
      return;
    }
    ring_bucket(b).push_back(e);
    ++ring_count_;
  }

  // Drops cancelled entries off the front of both tiers, loading the next
  // far bucket when both are exhausted, and names the tier whose front is
  // the earliest live event. The run wins ties: every heap entry was
  // scheduled after the run was loaded.
  Tier settle() {
    for (;;) {
      while (!heap_.empty() && stale(heap_.front().slot, heap_.front().gen)) {
        heap_pop();
      }
      if (run_pos_ == run_.size()) {
        if (!heap_.empty()) return Tier::kNear;
        if (!load_next_bucket()) return Tier::kNone;
      } else if (stale(run_[run_pos_].slot, run_[run_pos_].gen)) {
        ++run_pos_;
      } else {
        return heap_.empty() || run_[run_pos_].at <= heap_.front().at ? Tier::kRun
                                                                      : Tier::kNear;
      }
    }
  }

  // Makes the earliest non-empty far bucket the run, stably sorted by time
  // alone; false when the far tier is empty. The overflow is migrated first
  // when its earliest bucket is due no later than the ring's. Runs once per
  // bucket, so it stays out of line and off the per-event path.
  [[gnu::noinline]] bool load_next_bucket() {
    if (ring_count_ == 0 && overflow_.empty()) return false;
    std::int64_t b = ring_count_ > 0 ? loaded_ + 1 : overflow_min_;
    while (b < overflow_min_ && ring_bucket(b).empty()) ++b;
    loaded_ = b;
    run_pos_ = 0;
    // Taken, not swapped: a swap would park the spent run's capacity in a
    // bucket that stays nearly empty for the ring's whole turn.
    run_ = std::exchange(ring_bucket(b), {});
    ring_count_ -= run_.size();
    if (b == overflow_min_) migrate_overflow();
    std::stable_sort(run_.begin(), run_.end(),
                     [](const FarEntry& x, const FarEntry& y) { return x.at < y.at; });
    return true;
  }

  // Moves every overflow entry now within the ring's horizon of the loaded
  // bucket into its bucket (the loaded one into the run), in front of the
  // entries already there: they were scheduled before their bucket came
  // within the horizon, so before any direct append to it. The overflow is
  // in schedule order, and both moves keep that order.
  void migrate_overflow() {
    std::vector<FarEntry> due;
    std::size_t kept = 0;
    overflow_min_ = kNoBucket;
    for (const FarEntry& e : overflow_) {
      const std::int64_t b = bucket_of(e.at);
      if (b - loaded_ <= kRingBuckets) {
        due.push_back(e);
      } else {
        overflow_[kept++] = e;
        if (b < overflow_min_) overflow_min_ = b;
      }
    }
    overflow_.resize(kept);
    std::stable_sort(due.begin(), due.end(), [](const FarEntry& x, const FarEntry& y) {
      return bucket_of(x.at) < bucket_of(y.at);
    });
    for (std::size_t i = 0; i < due.size();) {
      const std::int64_t b = bucket_of(due[i].at);
      std::size_t j = i + 1;
      while (j < due.size() && bucket_of(due[j].at) == b) ++j;
      std::vector<FarEntry>& dst = b == loaded_ ? run_ : ring_bucket(b);
      dst.insert(dst.begin(), due.begin() + static_cast<std::ptrdiff_t>(i),
                 due.begin() + static_cast<std::ptrdiff_t>(j));
      if (b != loaded_) ring_count_ += j - i;
      i = j;
    }
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

  bool stale(std::uint32_t idx, std::uint32_t gen) const {
    return slot(idx).gen != gen;
  }

  void cancel(std::uint32_t idx, std::uint32_t gen) {
    if (!live(idx, gen)) return;
    Slot& s = slot(idx);
    ++s.gen;  // the stale tier entry is dropped when it reaches the front
    s.manage(Op::kDestroy, s.storage);
    s.manage = nullptr;
    free_slot(idx);
  }

  // Chunked so slot addresses stay stable while callbacks run and schedule
  // more events; chunks are never returned until destruction.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::uint64_t next_seq_ = 0;

  // Near tier: 4-ary min-heap under before().
  std::vector<NearEntry> heap_;
  // The loaded bucket's far entries sorted by time; run_pos_ is its front.
  std::vector<FarEntry> run_;
  std::size_t run_pos_ = 0;
  std::int64_t loaded_ = 0;  // the loaded bucket: bucket_of(at) <= loaded_ is near
  // Far tier: buckets loaded_ + 1 .. loaded_ + kRingBuckets, allocated on
  // the first far schedule, then the overflow beyond them. A queue that
  // never schedules past its loaded bucket never allocates the ring, but a
  // packet-level Simulator does at its first RTO arm. Allocating and
  // freeing the ring's 384 KB of bucket headers costs ~40 us in a tight
  // loop, ~0.1 ms after a 1 s TCP transfer and ~0.4 ms for the first queue
  // of a process: 0.1-0.6% of a 1 s TCP transfer or a PacketLab run.
  std::unique_ptr<std::vector<FarEntry>[]> ring_;
  std::size_t ring_count_ = 0;  // entries in ring_, cancelled ones included
  std::vector<FarEntry> overflow_;
  std::int64_t overflow_min_ = kNoBucket;  // earliest bucket in overflow_
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->live(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel(slot_, gen_);
}

}  // namespace cronets::sim
