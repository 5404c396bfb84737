/** Unit tests for the per-node discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <tuple>
#include <vector>

#include "base/inline_vec.hh"
#include "base/random.hh"
#include "sim/event_queue.hh"

using namespace aqsim;
using sim::EventQueue;
using sim::Priority;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTick(), maxTick);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, RunsEventsInTickOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (q.runOne()) {}
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByInsertionSequence)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (q.runOne()) {}
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PriorityBeatsInsertionOrderAtSameTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); }, Priority::Default);
    q.schedule(5, [&] { order.push_back(0); }, Priority::Delivery);
    q.schedule(5, [&] { order.push_back(2); }, Priority::Late);
    while (q.runOne()) {}
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, NowAdvancesToEventTick)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(42, [&] { seen = q.now(); });
    q.runOne();
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(q.now(), 42u);
}

TEST(EventQueue, ScheduleInIsRelativeToNow)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(10, [&] {
        q.scheduleIn(5, [&] { seen = q.now(); });
    });
    while (q.runOne()) {}
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, RunUntilExecutesInclusiveAndAdvancesNow)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.schedule(21, [&] { ++count; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.nextTick(), 21u);
}

TEST(EventQueue, RunUntilHonorsEventsScheduledDuringExecution)
{
    EventQueue q;
    std::vector<Tick> ticks;
    q.schedule(10, [&] {
        ticks.push_back(q.now());
        q.scheduleIn(5, [&] { ticks.push_back(q.now()); });
    });
    q.runUntil(100);
    EXPECT_EQ(ticks, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, DescheduleCancelsPendingEvent)
{
    EventQueue q;
    bool ran = false;
    auto id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.deschedule(id));
    EXPECT_TRUE(q.empty());
    q.runUntil(100);
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.numCancelled(), 1u);
}

TEST(EventQueue, DescheduleTwiceReturnsFalse)
{
    EventQueue q;
    auto id = q.schedule(10, [] {});
    EXPECT_TRUE(q.deschedule(id));
    EXPECT_FALSE(q.deschedule(id));
}

TEST(EventQueue, DescheduleDoesNotDisturbOtherEvents)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    auto id = q.schedule(15, [&] { order.push_back(99); });
    q.schedule(20, [&] { order.push_back(2); });
    q.deschedule(id);
    while (q.runOne()) {}
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, FastForwardAdvancesWithoutRunning)
{
    EventQueue q;
    bool ran = false;
    q.schedule(100, [&] { ran = true; });
    q.fastForwardTo(100);
    EXPECT_EQ(q.now(), 100u);
    EXPECT_FALSE(ran);
    // Event at exactly now is still runnable.
    EXPECT_TRUE(q.runOne());
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CountersTrackLifecycle)
{
    EventQueue q;
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    auto id = q.schedule(3, [] {});
    q.deschedule(id);
    q.runUntil(10);
    EXPECT_EQ(q.numScheduled(), 3u);
    EXPECT_EQ(q.numExecuted(), 2u);
    EXPECT_EQ(q.numCancelled(), 1u);
    EXPECT_EQ(q.pendingCount(), 0u);
}

TEST(EventQueue, SchedulingAtNowIsAllowed)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runOne();
    bool ran = false;
    q.schedule(10, [&] { ran = true; });
    q.runOne();
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runOne();
    EXPECT_DEATH(q.schedule(5, [] {}), "assertion");
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    for (Tick t = 1000; t > 0; --t) {
        q.schedule(t * 7 % 997 + 1, [&, t] {
            (void)t;
            if (q.now() < last)
                monotonic = false;
            last = q.now();
        });
    }
    while (q.runOne()) {}
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.numExecuted(), 1000u);
}

TEST(EventQueue, RecordsStayPutWhileACallbackGrowsTheSlab)
{
    // The running callback lives in its slab record. Scheduling five
    // chunks' worth of events (8 records per chunk) from inside it
    // adds chunks under that record, which must not move: the
    // callback then reads and writes its own captures.
    static constexpr int numNew = 40;
    static constexpr std::array<Priority, 3> prios = {
        Priority::Late, Priority::Delivery, Priority::Default};
    struct Fired
    {
        Tick when;
        int prio;
        int index;
    };
    struct Log
    {
        std::vector<EventQueue::EventId> ids;
        std::vector<Fired> fired;
        std::array<std::uint64_t, 4> marker{};
    } log;

    EventQueue q;
    q.schedule(1, [&q, &log,
                   marker = std::array<std::uint64_t, 4>{1, 2, 3, 4}]()
                  mutable {
        for (int i = 0; i < numNew; ++i) {
            const Priority prio = prios[i % prios.size()];
            log.ids.push_back(q.schedule(
                q.now() + 1 + static_cast<Tick>(i % 5),
                [&q, &log, prio, i] {
                    log.fired.push_back(
                        {q.now(), static_cast<int>(prio), i});
                },
                prio));
        }
        for (std::uint64_t &m : marker)
            m *= 10;
        log.marker = marker;
    });
    ASSERT_TRUE(q.runOne());
    EXPECT_EQ(log.marker,
              (std::array<std::uint64_t, 4>{10, 20, 30, 40}));
    ASSERT_EQ(log.ids.size(), static_cast<std::size_t>(numNew));

    std::vector<Fired> expected;
    for (int i = 0; i < numNew; ++i) {
        if (i % 2 == 1) {
            EXPECT_TRUE(q.deschedule(log.ids[i]));
            continue;
        }
        expected.push_back(
            {2 + static_cast<Tick>(i % 5),
             static_cast<int>(prios[i % prios.size()]), i});
    }
    // Scheduled in index order, so index order is sequence order.
    const auto key = [](const Fired &f) {
        return std::tie(f.when, f.prio, f.index);
    };
    std::sort(expected.begin(), expected.end(),
              [&](const Fired &a, const Fired &b) {
                  return key(a) < key(b);
              });

    while (q.runOne()) {}
    ASSERT_EQ(log.fired.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(key(log.fired[k]), key(expected[k])) << "event " << k;
    }
    EXPECT_EQ(q.numExecuted(), 1u + expected.size());
    EXPECT_EQ(q.numCancelled(), static_cast<std::uint64_t>(numNew / 2));
}

TEST(EventQueue, CallbackSchedulingPastTheInlineCapacityKeepsOrderAndHandles)
{
    // A queue holds its first heap entries and event records inside
    // the object. A running callback that schedules 64 events spills
    // both (the heap to a heap block, the slab to overflow chunks)
    // while earlier handles are cancelled at random; the survivors
    // must fire in (tick, prio, seq) order, and every handle still
    // live must be accepted by deschedule().
    static constexpr int numNew = 64;
    static constexpr std::array<Priority, 3> prios = {
        Priority::Default, Priority::Late, Priority::Delivery};
    struct Fired
    {
        Tick when;
        int prio;
        int index;
    };
    const auto key = [](const Fired &f) {
        return std::tie(f.when, f.prio, f.index);
    };

    EventQueue q;
    Rng rng(31);
    std::vector<EventQueue::EventId> ids(numNew);
    std::vector<bool> live(numNew, false);
    std::vector<Fired> scheduled(numNew);
    std::vector<Fired> fired;
    q.schedule(1, [&] {
        for (int i = 0; i < numNew; ++i) {
            const Priority prio = prios[rng.uniformInt(prios.size())];
            const Tick when = q.now() + 1 + rng.uniformInt(6);
            ids[i] = q.schedule(
                when,
                [&fired, &q, prio, i] {
                    fired.push_back({q.now(), static_cast<int>(prio), i});
                },
                prio);
            scheduled[i] = {when, static_cast<int>(prio), i};
            live[i] = true;
            // Cancel an earlier (or this) event now and then.
            if (rng.uniformInt(3) == 0) {
                const auto victim = static_cast<int>(
                    rng.uniformInt(static_cast<std::uint64_t>(i) + 1));
                EXPECT_EQ(q.deschedule(ids[victim]),
                          static_cast<bool>(live[victim]));
                live[victim] = false;
            }
        }
    });
    ASSERT_TRUE(q.runOne());

    // Every live handle deschedules: cancel every other survivor, and
    // let the rest run.
    std::vector<Fired> expected;
    bool cancel = false;
    for (int i = 0; i < numNew; ++i) {
        if (!live[i]) {
            EXPECT_FALSE(q.deschedule(ids[i])) << "event " << i;
            continue;
        }
        if ((cancel = !cancel)) {
            EXPECT_TRUE(q.deschedule(ids[i])) << "event " << i;
            EXPECT_FALSE(q.deschedule(ids[i])) << "event " << i;
        } else {
            expected.push_back(scheduled[i]);
        }
    }
    ASSERT_GT(expected.size(), 8u);
    std::sort(expected.begin(), expected.end(),
              [&](const Fired &a, const Fired &b) {
                  return key(a) < key(b);
              });
    EXPECT_EQ(q.pendingCount(), expected.size());

    while (q.runOne()) {}
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k)
        EXPECT_EQ(key(fired[k]), key(expected[k])) << "event " << k;
    for (const EventQueue::EventId id : ids)
        EXPECT_FALSE(q.deschedule(id));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.numScheduled(), 1u + numNew);
    EXPECT_EQ(q.numExecuted() + q.numCancelled(), 1u + numNew);
}

TEST(EventQueue, CancelHeavyChurnStillDropsStaleHeads)
{
    // Timeout-style churn across the inline/spilled boundary: each
    // round schedules a window of events and cancels all but one,
    // including the earliest ones, so the heap's head is a cancelled
    // entry that nextTick(), empty() and runOne() must skip.
    EventQueue q;
    std::vector<Tick> ran;
    Tick base = 0;
    for (int round = 0; round < 200; ++round) {
        const int window = 1 + round % 11;
        std::vector<EventQueue::EventId> ids;
        for (int i = 0; i < window; ++i)
            ids.push_back(q.schedule(base + 10 + static_cast<Tick>(i),
                                     [&] { ran.push_back(q.now()); }));
        const int keep = round % window;
        for (int i = 0; i < window; ++i) {
            if (i != keep) {
                ASSERT_TRUE(q.deschedule(ids[i]));
            }
        }
        ASSERT_EQ(q.pendingCount(), 1u);
        ASSERT_EQ(q.nextTick(), base + 10 + static_cast<Tick>(keep));
        ASSERT_TRUE(q.runOne());
        ASSERT_EQ(ran.back(), base + 10 + static_cast<Tick>(keep));
        ASSERT_TRUE(q.empty());
        ASSERT_EQ(q.nextTick(), maxTick);
        base = q.now();
    }
    // Cancel everything: the whole heap is stale and must drain.
    std::vector<EventQueue::EventId> ids;
    for (int i = 0; i < 40; ++i)
        ids.push_back(q.schedule(q.now() + 1 + static_cast<Tick>(i % 7),
                                 [&] { ran.push_back(q.now()); }));
    for (const EventQueue::EventId id : ids)
        ASSERT_TRUE(q.deschedule(id));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTick(), maxTick);
    EXPECT_FALSE(q.runOne());
    EXPECT_EQ(ran.size(), 200u);
}

TEST(InlineVec, SpillsToTheHeapAndKeepsItsElements)
{
    base::InlineVec<std::uint64_t, 2> v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.capacity(), 2u);
    v.push_back(10);
    v.push_back(11);
    EXPECT_FALSE(v.spilled());
    // The third push spills, doubling; pushing an element of the
    // vector itself must read it before the move.
    v.push_back(v.front());
    EXPECT_TRUE(v.spilled());
    EXPECT_EQ(v.capacity(), 4u);
    for (std::uint64_t i = 0; i < 13; ++i)
        v.push_back(v[i] + 100);
    EXPECT_EQ(v.capacity(), 16u);
    ASSERT_EQ(v.size(), 16u);
    EXPECT_EQ(v[0], 10u);
    EXPECT_EQ(v[1], 11u);
    EXPECT_EQ(v[2], 10u);
    for (std::size_t i = 3; i < v.size(); ++i)
        EXPECT_EQ(v[i], v[i - 3] + 100) << "element " << i;
    v.pop_back();
    EXPECT_EQ(v.back(), v[14]);
    EXPECT_EQ(v.size(), 15u);
    // Popping to empty keeps the heap block for reuse.
    while (!v.empty())
        v.pop_back();
    EXPECT_TRUE(v.spilled());
    v.push_back(7);
    EXPECT_EQ(v.front(), 7u);
}
