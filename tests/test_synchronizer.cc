/** Tests for the quantum-barrier synchronizer bookkeeping. */

#include <gtest/gtest.h>

#include "core/synchronizer.hh"
#include "net/network_controller.hh"
#include "stats/stats.hh"
#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::core;

namespace
{

class NullScheduler : public net::DeliveryScheduler
{
  public:
    Tick
    place(const net::Packet &pkt, net::DeliveryKind &kind) override
    {
        kind = net::DeliveryKind::OnTime;
        return pkt.idealArrival;
    }
};

struct SyncFixture : public ::testing::Test
{
    SyncFixture() : root("cluster"), controller(2, {}, root)
    {
        controller.setScheduler(&scheduler);
    }

    void
    injectOne()
    {
        net::Packet pkt = test::frame(0, 1, 100, 0);
        controller.inject(pkt);
    }

    stats::Group root;
    NullScheduler scheduler;
    net::NetworkController controller;
};

} // namespace

TEST_F(SyncFixture, BeginOpensFirstWindowAtZero)
{
    FixedQuantumPolicy policy(microseconds(10));
    Synchronizer sync(policy, controller, root, false);
    sync.begin();
    EXPECT_EQ(sync.quantumStart(), 0u);
    EXPECT_EQ(sync.quantumEnd(), microseconds(10));
    EXPECT_EQ(sync.quantumLength(), microseconds(10));
}

TEST_F(SyncFixture, CompleteAdvancesWindowContiguously)
{
    FixedQuantumPolicy policy(microseconds(10));
    Synchronizer sync(policy, controller, root, false);
    sync.begin();
    sync.completeQuantum(1000.0);
    EXPECT_EQ(sync.quantumStart(), microseconds(10));
    EXPECT_EQ(sync.quantumEnd(), microseconds(20));
    sync.completeQuantum(1000.0);
    EXPECT_EQ(sync.quantumStart(), microseconds(20));
    EXPECT_EQ(sync.numQuanta(), 2u);
}

TEST_F(SyncFixture, FeedsPacketCountToPolicy)
{
    AdaptiveQuantumPolicy policy({});
    Synchronizer sync(policy, controller, root, false);
    sync.begin();
    EXPECT_EQ(sync.quantumLength(), microseconds(1));

    // Silent quantum: quantum grows.
    sync.completeQuantum(1.0);
    const Tick grown = sync.quantumLength();
    EXPECT_GT(grown, microseconds(1));

    // Grow further, then traffic collapses it.
    for (int i = 0; i < 500; ++i)
        sync.completeQuantum(1.0);
    const Tick big = sync.quantumLength();
    EXPECT_GT(big, microseconds(100));
    injectOne();
    sync.completeQuantum(1.0);
    EXPECT_LT(sync.quantumLength(), big);
}

TEST_F(SyncFixture, PacketCounterResetsEachQuantum)
{
    AdaptiveQuantumPolicy policy({});
    Synchronizer sync(policy, controller, root, false);
    sync.begin();
    injectOne();
    EXPECT_EQ(controller.packetsThisQuantum(), 1u);
    sync.completeQuantum(1.0);
    EXPECT_EQ(controller.packetsThisQuantum(), 0u);
}

TEST_F(SyncFixture, TimelineRecordsWhenEnabled)
{
    FixedQuantumPolicy policy(microseconds(5));
    Synchronizer sync(policy, controller, root, true);
    sync.begin();
    injectOne();
    injectOne();
    sync.completeQuantum(777.0);
    sync.completeQuantum(888.0);
    const auto &timeline = sync.stats().timeline();
    ASSERT_EQ(timeline.size(), 2u);
    EXPECT_EQ(timeline[0].start, 0u);
    EXPECT_EQ(timeline[0].length, microseconds(5));
    EXPECT_EQ(timeline[0].packets, 2u);
    EXPECT_DOUBLE_EQ(timeline[0].hostNs, 777.0);
    EXPECT_EQ(timeline[1].packets, 0u);
}

TEST_F(SyncFixture, TimelineNotRecordedWhenDisabled)
{
    FixedQuantumPolicy policy(microseconds(5));
    Synchronizer sync(policy, controller, root, false);
    sync.begin();
    sync.completeQuantum(1.0);
    EXPECT_TRUE(sync.stats().timeline().empty());
    EXPECT_EQ(sync.numQuanta(), 1u);
}

TEST_F(SyncFixture, ConservativeOnlyForFixedPolicyWithinT)
{
    FixedQuantumPolicy safe(microseconds(1));
    Synchronizer s1(safe, controller, root, false);
    EXPECT_TRUE(s1.conservative());

    FixedQuantumPolicy unsafe(microseconds(100));
    Synchronizer s2(unsafe, controller, root, false);
    EXPECT_FALSE(s2.conservative());

    AdaptiveQuantumPolicy adaptive({});
    Synchronizer s3(adaptive, controller, root, false);
    EXPECT_FALSE(s3.conservative());
}

TEST_F(SyncFixture, MeanQuantumLengthAggregates)
{
    AdaptiveQuantumPolicy policy({});
    Synchronizer sync(policy, controller, root, false);
    sync.begin();
    Tick total = 0;
    for (int i = 0; i < 10; ++i) {
        total += sync.quantumLength();
        sync.completeQuantum(1.0);
    }
    EXPECT_DOUBLE_EQ(sync.stats().meanQuantumLength(),
                     static_cast<double>(total) / 10.0);
}

TEST_F(SyncFixture, StragglerDeltaRecordedPerQuantum)
{
    // Scheduler that marks everything a straggler.
    class LateScheduler : public net::DeliveryScheduler
    {
      public:
        Tick
        place(const net::Packet &pkt,
              net::DeliveryKind &kind) override
        {
            kind = net::DeliveryKind::Straggler;
            return pkt.idealArrival + 10;
        }
    };
    LateScheduler late;
    controller.setScheduler(&late);

    FixedQuantumPolicy policy(microseconds(5));
    Synchronizer sync(policy, controller, root, true);
    sync.begin();
    injectOne();
    sync.completeQuantum(1.0);
    injectOne();
    injectOne();
    sync.completeQuantum(1.0);
    const auto &timeline = sync.stats().timeline();
    ASSERT_EQ(timeline.size(), 2u);
    EXPECT_EQ(timeline[0].stragglers, 1u);
    EXPECT_EQ(timeline[1].stragglers, 2u);
}
