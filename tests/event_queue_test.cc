// The arena-backed event queue's contract under churn: randomized
// interleaved schedule/cancel/fire checked against a reference model,
// handle inertness across slot recycling, FIFO order at equal timestamps
// with cancels punched into the run, heap fallback for oversized callbacks,
// reentrant cancel/schedule from inside a firing callback, exact fire order
// with >= 10^5 events pending and across the near heap, the far bucket
// ring and its overflow, and exactly-once lifetimes of callables on both
// sides of the inline-storage boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace cronets::sim {
namespace {

TEST(EventQueueArena, RandomizedStressAgainstReferenceModel) {
  std::mt19937_64 rng(12345);
  EventQueue q;

  // Reference model: one record per schedule call, parallel to `handles`.
  struct RefEv {
    std::int64_t at_ns;
    long seq;
    bool live;
  };
  std::vector<RefEv> ref;
  std::vector<EventHandle> handles;
  std::vector<std::size_t> fired;  // indices, in actual firing order
  long seq = 0;

  auto expected_next = [&]() -> std::ptrdiff_t {
    std::ptrdiff_t best = -1;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (!ref[i].live) continue;
      if (best < 0 || ref[i].at_ns < ref[best].at_ns ||
          (ref[i].at_ns == ref[best].at_ns && ref[i].seq < ref[best].seq)) {
        best = static_cast<std::ptrdiff_t>(i);
      }
    }
    return best;
  };

  auto fire_one = [&]() {
    const std::ptrdiff_t want = expected_next();
    Time at{};
    const bool ran = q.run_next(&at);
    if (want < 0) {
      EXPECT_FALSE(ran);
      return;
    }
    ASSERT_TRUE(ran);
    ASSERT_FALSE(fired.empty());
    EXPECT_EQ(static_cast<std::ptrdiff_t>(fired.back()), want);
    EXPECT_EQ(at.ns(), ref[want].at_ns);
    ref[want].live = false;
    EXPECT_FALSE(handles[want].pending());
  };

  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t op = rng() % 100;
    if (op < 55) {
      // Deliberately small time range so equal timestamps (FIFO ties) are
      // common.
      const Time at = Time::microseconds(static_cast<std::int64_t>(rng() % 64));
      const std::size_t idx = handles.size();
      handles.push_back(q.schedule(at, [&fired, idx] { fired.push_back(idx); }));
      ref.push_back(RefEv{at.ns(), seq++, true});
      EXPECT_TRUE(handles[idx].pending());
    } else if (op < 80 && !handles.empty()) {
      const std::size_t k = rng() % handles.size();
      EXPECT_EQ(handles[k].pending(), ref[k].live);
      handles[k].cancel();
      ref[k].live = false;
      EXPECT_FALSE(handles[k].pending());
    } else {
      fire_one();
    }
  }
  while (expected_next() >= 0 || !q.empty()) fire_one();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueArena, RecycledSlotLeavesOldHandleInert) {
  EventQueue q;
  int first = 0, second = 0;
  EventHandle a = q.schedule(Time::seconds(1), [&] { ++first; });
  ASSERT_TRUE(q.run_next());
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(a.pending());

  // The freed slot is recycled for the next schedule; the stale handle must
  // neither report pending nor cancel the new occupant.
  EventHandle b = q.schedule(Time::seconds(2), [&] { ++second; });
  EXPECT_FALSE(a.pending());
  a.cancel();
  EXPECT_TRUE(b.pending());
  ASSERT_TRUE(q.run_next());
  EXPECT_EQ(second, 1);

  // Same inertness after a cancel-then-reuse cycle, across many
  // generations of the same arena slots.
  for (int round = 0; round < 100; ++round) {
    int fired = 0;
    EventHandle dead = q.schedule(Time::seconds(3), [&] { ++fired; });
    dead.cancel();
    EventHandle live = q.schedule(Time::seconds(3), [&] { ++fired; });
    dead.cancel();  // stale: must not touch `live`
    EXPECT_FALSE(dead.pending());
    EXPECT_TRUE(live.pending());
    ASSERT_TRUE(q.run_next());
    EXPECT_EQ(fired, 1);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueArena, FifoAtEqualTimesWithInterleavedCancels) {
  EventQueue q;
  const Time at = Time::milliseconds(5);
  std::vector<int> fired;
  std::vector<EventHandle> hs;
  for (int i = 0; i < 100; ++i) {
    hs.push_back(q.schedule(at, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 3) hs[i].cancel();
  while (q.run_next()) {
  }
  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(fired, expected);  // schedule order among survivors
}

TEST(EventQueueArena, OversizedCallbackFallsBackToHeap) {
  EventQueue q;
  // Payload larger than the inline slot storage: forces the heap path for
  // both the fire and the cancel/destroy branches.
  struct Big {
    std::array<std::uint8_t, 512> bytes;
    std::shared_ptr<int> tracker;
  };
  Big big;
  for (std::size_t i = 0; i < big.bytes.size(); ++i) {
    big.bytes[i] = static_cast<std::uint8_t>(i * 7);
  }
  big.tracker = std::make_shared<int>(0);
  std::weak_ptr<int> alive = big.tracker;

  bool payload_intact = false;
  EventHandle h = q.schedule(Time::seconds(1), [big, &payload_intact] {
    bool ok = true;
    for (std::size_t i = 0; i < big.bytes.size(); ++i) {
      ok = ok && big.bytes[i] == static_cast<std::uint8_t>(i * 7);
    }
    payload_intact = ok;
  });
  EventHandle cancelled = q.schedule(Time::seconds(2), [big] { (void)big; });
  big.tracker.reset();
  EXPECT_FALSE(alive.expired());  // captured copies keep it alive

  cancelled.cancel();  // destroy path for a heap-stored callback
  ASSERT_TRUE(q.run_next());
  EXPECT_TRUE(payload_intact);
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(alive.expired());  // both captured copies destroyed
}

TEST(EventQueueArena, ReentrantCancelAndScheduleFromCallback) {
  EventQueue q;
  int cancelled_fired = 0, chained_fired = 0;
  EventHandle victim = q.schedule(Time::seconds(2), [&] { ++cancelled_fired; });
  EventHandle self;
  self = q.schedule(Time::seconds(1), [&] {
    // Cancelling our own (currently firing) handle must be a no-op...
    EXPECT_FALSE(self.pending());
    self.cancel();
    // ...cancelling a still-pending peer must stick...
    victim.cancel();
    // ...and scheduling from inside a callback must work, including when it
    // recycles the victim's just-freed slot.
    q.schedule(Time::seconds(3), [&] { ++chained_fired; });
  });
  while (q.run_next()) {
  }
  EXPECT_EQ(cancelled_fired, 0);
  EXPECT_EQ(chained_fired, 1);
  EXPECT_TRUE(q.empty());
}

/// Drives the queue with many events pending and checks each fire against
/// a reference ordered by (time, schedule sequence). Fired callbacks
/// schedule follow-ups of their own, up to `span_ns` later: a span inside
/// one far-tier bucket keeps nearly every event in the near heap, longer
/// ones spread events over the bucket ring and, past its horizon, the
/// overflow.
class DeepHeapHarness {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (time ns, sequence)

  DeepHeapHarness(std::uint64_t seed, std::int64_t span_ns)
      : rng_(seed), span_ns_(span_ns) {}

  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }
  std::int64_t draw_span() {
    return static_cast<std::int64_t>(draw(static_cast<std::uint64_t>(span_ns_)));
  }
  std::size_t pending() const { return ref_.size(); }
  std::size_t scheduled() const { return handles_.size(); }
  std::int64_t last_fired_ns() const { return last_fired_ns_; }
  bool queue_empty() { return q_.empty(); }

  void schedule(std::int64_t at_ns) {
    const std::size_t id = keys_.size();
    keys_.emplace_back(at_ns, next_seq_++);
    ref_.emplace(keys_.back(), id);
    handles_.push_back(q_.schedule(Time{at_ns}, [this, id] { on_fire(id); }));
  }

  /// Cancels event `id`, live or stale. True iff its handle's pending()
  /// matched the reference before the cancel and reads false after it.
  bool cancel(std::size_t id) {
    const bool was_live = ref_.erase(keys_[id]) == 1;
    const bool agreed = handles_[id].pending() == was_live;
    handles_[id].cancel();
    return agreed && !handles_[id].pending();
  }

  /// Time of the earliest pending event, by the reference; std::nullopt
  /// when none is pending.
  std::optional<std::int64_t> earliest_ns() const {
    if (ref_.empty()) return std::nullopt;
    return ref_.begin()->first.first;
  }

  /// Peeks at the queue without firing. True iff next_time() is the
  /// reference's earliest time (Time::max() when none is pending).
  bool peek_agrees() {
    const std::optional<std::int64_t> want = earliest_ns();
    return q_.next_time() == (want ? Time{*want} : Time::max());
  }

  /// Fires one event. True iff it is the reference's (time, sequence)
  /// minimum, reported at its own time.
  bool fire_next() {
    if (ref_.empty()) return !q_.run_next();
    const auto [key, id] = *ref_.begin();
    ref_.erase(ref_.begin());
    fired_ = kNone;
    Time at{};
    if (!q_.run_next(&at)) return false;
    last_fired_ns_ = at.ns();
    return fired_ == id && at.ns() == key.first;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  void on_fire(std::size_t id) {
    fired_ = id;
    // One fire in eight schedules from inside its own callback: at its own
    // instant (behind every equal-time event) or later.
    const std::uint64_t r = draw(16);
    if (r == 0) schedule(keys_[id].first);
    if (r == 1) schedule(keys_[id].first + draw_span());
  }

  EventQueue q_;
  std::mt19937_64 rng_;
  std::int64_t span_ns_;
  std::map<Key, std::size_t> ref_;  // live events: (time, sequence) -> id
  std::vector<Key> keys_;           // by event id
  std::vector<EventHandle> handles_;
  std::uint64_t next_seq_ = 0;
  std::int64_t last_fired_ns_ = 0;
  std::size_t fired_ = kNone;
};

// >= 10^5 events pending within 1 ms: every sift walks >= 8 levels of the
// near tier's 4-ary heap.
TEST(EventQueueArena, DeepHeapFiresInExactReferenceOrder) {
  constexpr std::size_t kPending = 100'000;
  DeepHeapHarness h(0x5eed, 1'000'000);
  for (std::size_t i = 0; i < kPending; ++i) h.schedule(h.draw_span());
  for (int step = 0; step < 100'000; ++step) {
    const std::uint64_t op = h.draw(100);
    const std::int64_t last = h.last_fired_ns();
    if (h.pending() <= kPending || op < 40) {
      const std::uint64_t kind = h.draw(16);
      if (kind == 0) {
        // A burst at one timestamp: FIFO among 32 equal times.
        const std::int64_t at = last + h.draw_span();
        for (int b = 0; b < 32; ++b) h.schedule(at);
      } else if (kind == 1) {
        // Earlier than the last fired event.
        h.schedule(std::max<std::int64_t>(
            0, last - 1 - static_cast<std::int64_t>(h.draw(1000))));
      } else {
        h.schedule(last + h.draw_span());
      }
    } else if (op < 60) {
      ASSERT_TRUE(h.cancel(h.draw(h.scheduled()))) << "cancel at step " << step;
    } else {
      ASSERT_TRUE(h.fire_next()) << "fire at step " << step;
    }
    ASSERT_GE(h.pending(), kPending);
  }
  while (h.pending() > 0) ASSERT_TRUE(h.fire_next());
  EXPECT_TRUE(h.queue_empty());
}

// The same reference check with spans from 1 us to four ring horizons, so
// events cross from the far tier's buckets into the near heap and from the
// overflow into the ring. Besides plain schedules, cancels and fires it
// adds equal-time bursts on a bucket edge; a next_time() peek (which loads
// the next bucket when both tiers' fronts are spent) followed at once by
// schedules at or before the peeked time, the way run_until(deadline)
// peeks and then its caller schedules; and cancels followed by a schedule
// that reuses the freed slot, leaving a stale entry beside a live one.
TEST(EventQueueArena, TiersFireInExactReferenceOrder) {
  constexpr std::int64_t kBucket = EventQueue::kBucketNs;
  constexpr std::int64_t kHorizon = EventQueue::kBucketNs * EventQueue::kRingBuckets;
  constexpr std::size_t kPending = 20'000;
  for (const std::int64_t span :
       {std::int64_t{1'000}, kBucket / 3, kBucket * 5, kHorizon / 7, kHorizon + kBucket,
        kHorizon * 4}) {
    SCOPED_TRACE(testing::Message() << "span " << span << " ns");
    DeepHeapHarness h(0x71e5 ^ static_cast<std::uint64_t>(span), span);
    for (std::size_t i = 0; i < kPending; ++i) h.schedule(h.draw_span());
    for (int step = 0; step < 60'000; ++step) {
      const std::uint64_t op = h.draw(100);
      const std::int64_t last = h.last_fired_ns();
      if (h.pending() <= kPending || op < 40) {
        const std::uint64_t kind = h.draw(16);
        if (kind == 0) {
          // 32 equal times on the first bucket edge past a random point,
          // or one tick before it.
          const std::int64_t edge = ((last + h.draw_span()) / kBucket + 1) * kBucket;
          const std::int64_t at = edge - static_cast<std::int64_t>(h.draw(2));
          for (int b = 0; b < 32; ++b) h.schedule(at);
        } else if (kind == 1) {
          // Earlier than the last fired event.
          h.schedule(std::max<std::int64_t>(
              0, last - 1 - static_cast<std::int64_t>(h.draw(1000))));
        } else if (kind == 2) {
          ASSERT_TRUE(h.peek_agrees()) << "peek at step " << step;
          const std::optional<std::int64_t> next = h.earliest_ns();
          if (next) {
            h.schedule(*next);  // ties with the front, behind it
            const std::int64_t lo = std::min(last, *next);
            h.schedule(lo + static_cast<std::int64_t>(
                                h.draw(static_cast<std::uint64_t>(*next - lo) + 1)));
          }
        } else {
          h.schedule(last + h.draw_span());
        }
      } else if (op < 60) {
        const std::size_t id = h.draw(h.scheduled());
        ASSERT_TRUE(h.cancel(id)) << "cancel at step " << step;
        if (op < 50) h.schedule(last + h.draw_span());  // reuses the freed slot
      } else {
        ASSERT_TRUE(h.fire_next()) << "fire at step " << step;
      }
      ASSERT_GE(h.pending(), kPending);
    }
    while (h.pending() > 0) ASSERT_TRUE(h.fire_next());
    EXPECT_TRUE(h.queue_empty());
    EXPECT_GT(h.last_fired_ns(), 2 * span) << "the run must outlast its span";
  }
}

/// A callable of exactly N bytes (alignment 1) that counts its live
/// instances, copies, moves and runs, and checks its payload on each run.
template <std::size_t N>
struct SizedCallable {
  static inline int live = 0;
  static inline int copies = 0;
  static inline int moves = 0;
  static inline int runs = 0;
  static inline int corrupt_runs = 0;

  std::array<unsigned char, N> bytes;

  SizedCallable() {
    for (std::size_t i = 0; i < N; ++i) bytes[i] = pattern(i);
    ++live;
  }
  SizedCallable(const SizedCallable& o) : bytes(o.bytes) {
    ++live;
    ++copies;
  }
  SizedCallable(SizedCallable&& o) noexcept : bytes(o.bytes) {
    ++live;
    ++moves;
  }
  SizedCallable& operator=(const SizedCallable&) = delete;
  ~SizedCallable() { --live; }

  void operator()() {
    ++runs;
    for (std::size_t i = 0; i < N; ++i) {
      if (bytes[i] != pattern(i)) {
        ++corrupt_runs;
        return;
      }
    }
  }

  static unsigned char pattern(std::size_t i) {
    return static_cast<unsigned char>(i * 7 + 1);
  }
};

/// One callable fires, one is cancelled (twice), one is still pending when
/// the queue dies: each is moved into the queue once, never copied, runs at
/// most once and is destroyed exactly once.
template <std::size_t N>
void expect_exactly_once_lifetimes() {
  using F = SizedCallable<N>;
  F::live = F::copies = F::moves = F::runs = F::corrupt_runs = 0;
  {
    EventQueue q;
    EventHandle fired = q.schedule(Time::seconds(1), F{});
    EventHandle cancelled = q.schedule(Time::seconds(2), F{});
    q.schedule(Time::seconds(3), F{});
    EXPECT_EQ(F::moves, 3);
    EXPECT_EQ(F::copies, 0);
    EXPECT_EQ(F::live, 3);  // the temporaries are gone, the queue's copies live

    cancelled.cancel();
    EXPECT_EQ(F::live, 2);
    cancelled.cancel();  // stale: destroys nothing
    EXPECT_EQ(F::live, 2);

    ASSERT_TRUE(q.run_next());
    EXPECT_FALSE(fired.pending());
    EXPECT_EQ(F::runs, 1);
    EXPECT_EQ(F::live, 1);
  }
  EXPECT_EQ(F::live, 0);  // the pending one died with the queue
  EXPECT_EQ(F::runs, 1);
  EXPECT_EQ(F::moves, 3);
  EXPECT_EQ(F::corrupt_runs, 0);
}

TEST(EventQueueArena, InlineBoundaryCallablesLiveExactlyOnce) {
  constexpr std::size_t kInline = EventQueue::kInlineBytes;
  static_assert(sizeof(SizedCallable<kInline>) == kInline);
  static_assert(sizeof(SizedCallable<kInline + 1>) == kInline + 1);
  static_assert(EventQueue::stores_inline<SizedCallable<kInline>>);
  static_assert(!EventQueue::stores_inline<SizedCallable<kInline + 1>>);
  expect_exactly_once_lifetimes<kInline>();
  expect_exactly_once_lifetimes<kInline + 1>();
}

}  // namespace
}  // namespace cronets::sim
