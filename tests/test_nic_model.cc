/** Tests for the NIC transmit/receive model. */

#include <gtest/gtest.h>

#include <vector>

#include "net/network_controller.hh"
#include "node/nic_model.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"
#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::net;
using namespace aqsim::node;

namespace
{

class CaptureScheduler : public DeliveryScheduler
{
  public:
    Tick
    place(const Packet &pkt, DeliveryKind &kind) override
    {
        kind = DeliveryKind::OnTime;
        packets.push_back(test::copyOf(pkt));
        return pkt.idealArrival;
    }

    std::vector<test::FrameCopy> packets;
};

struct NicFixture : public ::testing::Test
{
    NicFixture()
        : root("cluster"), controller(2, NetworkParams{}, root),
          nic(0, queue, controller)
    {
        controller.setScheduler(&scheduler);
    }

    stats::Group root;
    CaptureScheduler scheduler;
    sim::EventQueue queue;
    NetworkController controller;
    NicModel nic;
};

} // namespace

TEST_F(NicFixture, DepartIncludesOverheadSerializationAndLatency)
{
    queue.schedule(1000, [&] { nic.send(1, 9000); });
    queue.runOne();
    ASSERT_EQ(scheduler.packets.size(), 1u);
    const auto &pkt = *scheduler.packets[0];
    EXPECT_EQ(pkt.sendTick, 1000u);
    // 1000 + txOverhead 100 + 9000B at 10B/ns (900) + txLatency 500.
    EXPECT_EQ(pkt.departTick, 1000u + 100u + 900u + 500u);
}

TEST_F(NicFixture, BackToBackFramesQueueOnSerialization)
{
    queue.schedule(0, [&] {
        nic.send(1, 9000);
        nic.send(1, 9000);
    });
    queue.runOne();
    ASSERT_EQ(scheduler.packets.size(), 2u);
    const Tick d0 = scheduler.packets[0]->departTick;
    const Tick d1 = scheduler.packets[1]->departTick;
    // Second frame waits for the first one's serialization slot.
    EXPECT_EQ(d1 - d0, 900u);
    EXPECT_EQ(nic.txBusyUntil(), 100u + 900u + 900u);
}

TEST_F(NicFixture, IdleGapResetsQueueing)
{
    queue.schedule(0, [&] { nic.send(1, 9000); });
    queue.runOne();
    queue.schedule(50000, [&] { nic.send(1, 9000); });
    queue.runOne();
    const Tick d1 = scheduler.packets[1]->departTick;
    EXPECT_EQ(d1, 50000u + 100u + 900u + 500u);
}

TEST_F(NicFixture, DeliverySchedulesRxEventAndInvokesHandler)
{
    std::vector<std::pair<Tick, std::uint32_t>> received;
    nic.setRxHandler([&](const Packet &pkt) {
        received.emplace_back(queue.now(), pkt.bytes);
    });
    const Packet pkt = test::frame(1, 0, 777, 0);
    nic.deliverAt(pkt, 4242);
    queue.runUntil(10000);
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].first, 4242u);
    EXPECT_EQ(received[0].second, 777u);
}

TEST_F(NicFixture, StatsCountFrames)
{
    nic.setRxHandler([](const Packet &) {});
    queue.schedule(0, [&] { nic.send(1, 500); });
    queue.runOne();
    nic.deliverAt(test::frame(1, 0, 200, 0), 100);
    queue.runUntil(1000);
    // The NIC registers nothing per instance: its type's descriptors
    // read the frame counters, in txFrames, txBytes, rxFrames,
    // rxBytes order.
    std::vector<std::uint64_t> values;
    stats::appendValues(nic, NicModel::statDescriptors(), values);
    EXPECT_EQ(values, (std::vector<std::uint64_t>{1, 500, 1, 200}));
}

TEST_F(NicFixture, OversizedFramePanics)
{
    queue.schedule(0, [&] { nic.send(1, 9001); });
    EXPECT_DEATH(queue.runOne(), "assertion");
}

TEST_F(NicFixture, ReceivePoolGrowsToInFlightFramesAndReusesSlots)
{
    // Slots are allocated on demand: a NIC that never receives has
    // allocated none.
    EXPECT_EQ(nic.rxPoolSlots(), 0u);
    std::vector<std::uint32_t> received;
    nic.setRxHandler(
        [&](const Packet &pkt) { received.push_back(pkt.bytes); });
    nic.deliverAt(test::frame(1, 0, 100, 0), 10);
    nic.deliverAt(test::frame(1, 0, 101, 0), 20);
    nic.deliverAt(test::frame(1, 0, 102, 0), 30);
    EXPECT_EQ(nic.rxPoolSlots(), 3u);
    queue.runUntil(100);
    // Freed slots are reused: two more frames in flight add none.
    nic.deliverAt(test::frame(1, 0, 103, 0), 110);
    nic.deliverAt(test::frame(1, 0, 104, 0), 120);
    queue.runUntil(200);
    EXPECT_EQ(nic.rxPoolSlots(), 3u);
    EXPECT_EQ(received,
              (std::vector<std::uint32_t>{100, 101, 102, 103, 104}));
}

TEST_F(NicFixture, HandlerMayDeliverIntoItsOwnPool)
{
    // The delivery event copies its frame out of the pool before the
    // handler runs, so a handler that grows the pool (here: delivers
    // again into the same NIC) still reads the frame it was given.
    std::vector<std::uint32_t> received;
    nic.setRxHandler([&](const Packet &pkt) {
        if (pkt.bytes < 100 + 8)
            nic.deliverAt(test::frame(1, 0, pkt.bytes + 1, 0),
                          queue.now() + 1);
        nic.deliverAt(test::frame(1, 0, 1000, 0), queue.now() + 500);
        received.push_back(pkt.bytes);
    });
    nic.deliverAt(test::frame(1, 0, 100, 0), 10);
    queue.runUntil(20);
    EXPECT_EQ(received,
              (std::vector<std::uint32_t>{100, 101, 102, 103, 104, 105,
                                          106, 107, 108}));
}

TEST_F(NicFixture, FramesPastTheInlineSlotsSpillWhileAHandlerFillsItsPool)
{
    // The first receive slots live in the NIC itself; five frames in
    // flight spill the pool to the heap. The first handler call then
    // delivers five more frames into the pool it is being served from
    // (reusing its own freed slot, then growing the spilled block).
    // Every frame must arrive intact and in tick order.
    std::vector<std::uint32_t> received;
    bool refilled = false;
    nic.setRxHandler([&](const Packet &pkt) {
        if (!refilled) {
            refilled = true;
            for (std::uint32_t i = 0; i < 5; ++i)
                nic.deliverAt(test::frame(1, 0, 300 + i, 0),
                              queue.now() + 100 + i);
        }
        EXPECT_EQ(pkt.src, 1u);
        EXPECT_EQ(pkt.dst, 0u);
        received.push_back(pkt.bytes);
    });
    for (std::uint32_t i = 0; i < 5; ++i)
        nic.deliverAt(test::frame(1, 0, 200 + i, 0), 10 + i);
    EXPECT_EQ(nic.rxPoolSlots(), 5u);
    queue.runUntil(1000);
    EXPECT_EQ(nic.rxPoolSlots(), 9u);
    EXPECT_EQ(received,
              (std::vector<std::uint32_t>{200, 201, 202, 203, 204, 300,
                                          301, 302, 303, 304}));
}
