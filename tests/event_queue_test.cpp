#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

namespace ntier::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::millis(30), [&] { order.push_back(3); });
  q.push(SimTime::millis(10), [&] { order.push_back(1); });
  q.push(SimTime::millis(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.push(SimTime::millis(5), [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReflectsEarliestLiveEvent) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::max());
  const EventId early = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  EXPECT_EQ(q.next_time(), SimTime::millis(1));
  EXPECT_TRUE(q.cancel(early));
  EXPECT_EQ(q.next_time(), SimTime::millis(2));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.push(SimTime::millis(1), [&] { ++fired; });
  q.push(SimTime::millis(2), [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  const EventId id = q.push(SimTime::millis(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel

  const EventId id2 = q.push(SimTime::millis(1), [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id2));  // already fired
  EXPECT_FALSE(q.cancel(999999));  // never existed
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyInterleavedCancellations) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(q.push(SimTime::micros(i), [] {}));
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop();
    ++fired;
  }
  EXPECT_EQ(fired, 500u);
}

TEST(EventQueue, StaleIdCannotCancelSlotReuse) {
  // After an event fires (or is cancelled) its id must never resolve again,
  // even when the internal slot is reused by a later push.
  EventQueue q;
  const EventId old1 = q.push(SimTime::millis(1), [] {});
  const EventId old2 = q.push(SimTime::millis(2), [] {});
  q.pop().fn();               // fires old1, releasing its slot
  EXPECT_TRUE(q.cancel(old2));  // releases old2's slot too
  int fired = 0;
  std::vector<EventId> fresh;
  for (int i = 0; i < 4; ++i)
    fresh.push_back(q.push(SimTime::millis(10 + i), [&] { ++fired; }));
  // The stale ids must not touch the reused slots' new occupants.
  EXPECT_FALSE(q.cancel(old1));
  EXPECT_FALSE(q.cancel(old2));
  EXPECT_EQ(q.size(), 4u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 4);
  for (EventId id : fresh) EXPECT_FALSE(q.cancel(id));  // all fired
}

TEST(EventQueue, FifoTieOrderSurvivesCancellations) {
  // Cancel every other simultaneous event; the survivors must still fire in
  // their original scheduling order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(q.push(SimTime::millis(7), [&order, i] { order.push_back(i); }));
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i + 1 < order.size(); ++i)
    EXPECT_LT(order[i], order[i + 1]);
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], static_cast<int>(2 * i + 1));
}

TEST(EventQueue, CancelledBacklogDrainsToEmpty) {
  // Cancelling everything must leave the queue observably empty and
  // next_time() at max, with no dead nodes resurfacing on later pushes.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 5000; ++i)
    ids.push_back(q.push(SimTime::micros(i % 50), [] {}));
  for (EventId id : ids) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), SimTime::max());
  int fired = 0;
  q.push(SimTime::millis(1), [&] { ++fired; });
  EXPECT_EQ(q.next_time(), SimTime::millis(1));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RandomInterleavingMatchesReferenceModel) {
  // Drive push/cancel/pop at scale against a std::multimap reference and
  // require identical fire sequences: the heap, wheel and overflow levels
  // must be observationally equivalent to the obvious implementation.
  // Delays run from 0 ns to 60 s past the last fired time, with exact ties,
  // some pushes into the past and a few beyond the wheel's reach, so events
  // enter every level and cross every hand-off. Cancels pick a uniformly
  // random live event, wherever it sits.
  EventQueue q;
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (t, seq)
  std::multimap<Key, std::pair<int, EventId>> ref;    // -> (payload, id)
  std::map<EventId, decltype(ref)::iterator> live;
  std::vector<EventId> cancel_pool;  // may hold fired ids; dropped lazily
  std::mt19937_64 rnd(2024);
  std::vector<int> got, want;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  std::size_t peak = 0;
  int payload = 0;
  const auto draw_time = [&]() -> std::int64_t {
    const auto kind = rnd() % 100;
    if (kind < 10 && !ref.empty()) {  // exact tie with a pending event
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rnd() % std::min<std::size_t>(ref.size(), 64)));
      return it->first.first;
    }
    if (kind < 15) return static_cast<std::int64_t>(rnd() % 1'000'000);  // maybe past
    if (kind < 20) return now;
    if (kind < 60) return now + static_cast<std::int64_t>(rnd() % 1'000'000);  // < 1 ms
    if (kind < 80) return now + static_cast<std::int64_t>(rnd() % 100'000'000);  // < 100 ms
    if (kind < 97) return now + static_cast<std::int64_t>(rnd() % 60'000'000'001);  // <= 60 s
    return now + static_cast<std::int64_t>(rnd() % 300'000'000'000);  // past the wheel
  };
  const auto fire_front = [&] {
    auto fired = q.pop();
    fired.fn();
    const auto front = ref.begin();
    EXPECT_EQ(fired.at, SimTime::nanos(front->first.first));
    now = front->first.first;
    want.push_back(front->second.first);
    live.erase(front->second.second);  // a fired event is not cancellable
    ref.erase(front);
  };
  for (int step = 0; step < 200'000; ++step) {
    const auto roll = rnd() % 100;
    if (roll < 52 || q.empty()) {
      const std::int64_t t = draw_time();
      const int p = payload++;
      const EventId id = q.push(SimTime::nanos(t), [&got, p] { got.push_back(p); });
      live.emplace(id, ref.emplace(Key{t, seq++}, std::make_pair(p, id)));
      cancel_pool.push_back(id);
    } else if (roll < 67 && !live.empty()) {
      auto it = live.end();
      while (it == live.end()) {  // ids are never reused, so stale ones miss
        const std::size_t i = rnd() % cancel_pool.size();
        it = live.find(cancel_pool[i]);
        cancel_pool[i] = cancel_pool.back();
        cancel_pool.pop_back();
      }
      EXPECT_TRUE(q.cancel(it->first));
      EXPECT_FALSE(q.cancel(it->first));  // idempotent
      ref.erase(it->second);
      live.erase(it);
    } else {
      ASSERT_FALSE(ref.empty());
      EXPECT_EQ(q.next_time(), SimTime::nanos(ref.begin()->first.first));
      fire_front();
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(got.back(), want.back());
    }
    ASSERT_EQ(q.size(), ref.size());
    peak = std::max(peak, ref.size());
  }
  EXPECT_GT(peak, 5000u);  // deep enough that the wheel holds thousands
  while (!q.empty()) fire_front();
  EXPECT_EQ(got, want);
  EXPECT_EQ(q.next_time(), SimTime::max());
}

// The kernel's bucket edges are multiples of 2^22 ns, its wheel periods
// multiples of 2^32 ns, and its wheel reaches 15 periods (~64 s) ahead. The
// cases below straddle those edges; they stay valid, if less pointed, under
// other constants.
constexpr std::int64_t kBucketNs = std::int64_t{1} << 22;
constexpr std::int64_t kPeriodNs = std::int64_t{1} << 32;

/// Pops everything, recording (time, payload) of each fired event.
std::vector<std::pair<std::int64_t, int>> drain(EventQueue& q, std::vector<int>& log) {
  std::vector<std::pair<std::int64_t, int>> out;
  while (!q.empty()) {
    auto f = q.pop();
    f.fn();
    out.emplace_back(f.at.ns(), log.back());
  }
  return out;
}

TEST(EventQueue, BucketAndPeriodEdgesKeepTimeOrder) {
  EventQueue q;
  std::vector<int> log;
  std::vector<std::int64_t> times;
  for (const std::int64_t edge :
       {kBucketNs, 2 * kBucketNs, 7 * kBucketNs, kPeriodNs, 3 * kPeriodNs,
        15 * kPeriodNs, 16 * kPeriodNs, 40 * kPeriodNs}) {
    times.push_back(edge);
    times.push_back(edge - 1);
    times.push_back(edge + 1);
  }
  // Push in reverse so insertion order disagrees with time order.
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const int p = static_cast<int>(*it % 1'000'003);
    q.push(SimTime::nanos(*it), [&log, p] { log.push_back(p); });
  }
  const auto fired = drain(q, log);
  ASSERT_EQ(fired.size(), times.size());
  std::sort(times.begin(), times.end());
  for (std::size_t i = 0; i < times.size(); ++i) EXPECT_EQ(fired[i].first, times[i]);
}

TEST(EventQueue, LoneEventAtTheWheelsReachIsFound) {
  // A single event just inside, at and just past the wheel's reach, with
  // nothing earlier to turn the wheel towards it.
  for (std::int64_t periods = 14; periods <= 17; ++periods) {
    for (const std::int64_t t : {periods * kPeriodNs - 1, periods * kPeriodNs}) {
      EventQueue q;
      int fired = 0;
      q.push(SimTime::nanos(t), [&fired] { ++fired; });
      EXPECT_EQ(q.next_time(), SimTime::nanos(t)) << t;
      q.pop().fn();
      EXPECT_EQ(fired, 1);
      EXPECT_TRUE(q.empty());
    }
  }
}

TEST(EventQueue, EqualTimesStayFifoAcrossEveryHandOff) {
  // Events at one instant T are pushed while T sits in overflow, on a coarse
  // list, in a fine bucket and finally before the horizon (in the heap).
  // They must still fire in push order.
  EventQueue q;
  std::vector<int> order;
  const SimTime t = SimTime::nanos(23 * kPeriodNs + 5 * kBucketNs + 17);
  int next = 0;
  const auto push_at_t = [&] {
    const int p = next++;
    q.push(t, [&order, p] { order.push_back(p); });
  };
  const auto advance_to = [&](SimTime when) {
    q.push(when, [] {});
    ASSERT_EQ(q.next_time(), when);
    q.pop().fn();
  };
  push_at_t();  // overflow: 23 periods ahead
  push_at_t();
  advance_to(SimTime::nanos(11 * kPeriodNs));  // T now on a coarse list
  push_at_t();
  advance_to(SimTime::nanos(23 * kPeriodNs));  // T's period: fine bucket
  push_at_t();
  advance_to(t - SimTime::nanos(1));  // T's bucket handed to the heap
  push_at_t();
  push_at_t();
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_EQ(f.at, t);
    f.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, FarEventsBeyondTheWheelAndHorizonJumps) {
  EventQueue q;
  std::vector<int> log;
  q.push(SimTime::seconds(1000), [&log] { log.push_back(1); });
  q.push(SimTime::seconds(300), [&log] { log.push_back(0); });
  EXPECT_EQ(q.next_time(), SimTime::seconds(300));
  auto fired = drain(q, log);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1].first, SimTime::seconds(1000).ns());
  EXPECT_EQ(q.next_time(), SimTime::max());

  // Drained to empty with the horizon far ahead: later pushes before it,
  // inside the wheel and beyond it must all still come out in order.
  q.push(SimTime::seconds(5000), [&log] { log.push_back(4); });
  q.push(SimTime::seconds(1000) + SimTime::nanos(1), [&log] { log.push_back(3); });
  q.push(SimTime::seconds(500), [&log] { log.push_back(2); });
  q.push(SimTime::seconds(1010), [&log] { log.push_back(5); });
  EXPECT_EQ(q.next_time(), SimTime::seconds(500));
  fired = drain(q, log);
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0].second, 2);
  EXPECT_EQ(fired[1].second, 3);
  EXPECT_EQ(fired[2].second, 5);
  EXPECT_EQ(fired[3].second, 4);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledFarEventsNeverFire) {
  EventQueue q;
  int fired = 0;
  std::vector<EventId> far;
  // Spread over a fine bucket, coarse lists and overflow.
  for (int i = 0; i < 3000; ++i)
    far.push_back(q.push(SimTime::millis(5 + 37 * i), [&fired] { ++fired; }));
  EXPECT_EQ(q.size(), 3000u);
  for (EventId id : far) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), SimTime::max());

  // Only cancelled far nodes behind one live event: the queue reports just
  // that event, and nothing else resurfaces after it.
  for (int i = 0; i < 3000; ++i)
    far.push_back(q.push(SimTime::millis(90'000 + 41 * i), [&fired] { ++fired; }));
  q.push(SimTime::millis(1), [&fired] { fired += 100; });
  for (std::size_t i = 3000; i < far.size(); ++i) q.cancel(far[i]);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), SimTime::millis(1));
  q.pop().fn();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), SimTime::max());
  EXPECT_EQ(fired, 100);

  // A cancelled overflow event must not hide a live one behind it.
  const EventId gone = q.push(SimTime::seconds(1000), [&fired] { ++fired; });
  q.push(SimTime::seconds(2000), [&fired] { fired += 10; });
  EXPECT_TRUE(q.cancel(gone));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2000));
  q.pop().fn();
  EXPECT_EQ(fired, 110);
}

TEST(EventQueue, TimesAtAndNearMaxFireInOrder) {
  EventQueue q;
  std::vector<int> log;
  const std::int64_t max = SimTime::max().ns();
  q.push(SimTime::max(), [&log] { log.push_back(3); });
  q.push(SimTime::nanos(max - 1), [&log] { log.push_back(2); });
  q.push(SimTime::nanos(max - kPeriodNs), [&log] { log.push_back(1); });
  q.push(SimTime::zero(), [&log] { log.push_back(0); });
  const auto fired = drain(q, log);
  ASSERT_EQ(fired.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)].second, i);
  EXPECT_EQ(fired[3].first, max);

  // The horizon now sits at the end of time; pushes there still work.
  q.push(SimTime::max(), [&log] { log.push_back(5); });
  q.push(SimTime::nanos(max - 1), [&log] { log.push_back(4); });
  EXPECT_EQ(q.next_time(), SimTime::nanos(max - 1));
  const auto again = drain(q, log);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].second, 4);
  EXPECT_EQ(again[1].second, 5);
}

TEST(EventQueue, TotalScheduledCountsEveryPush) {
  EventQueue q;
  EXPECT_EQ(q.total_scheduled(), 0u);
  const EventId a = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  q.cancel(a);
  q.pop();
  q.push(SimTime::millis(3), [] {});
  EXPECT_EQ(q.total_scheduled(), 3u);  // cancels/pops don't rewind it
}

}  // namespace
}  // namespace ntier::sim
