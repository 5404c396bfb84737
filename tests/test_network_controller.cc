/** Tests for the network controller: routing, timing, accounting. */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "fault/fault_injector.hh"
#include "net/network_controller.hh"
#include "net/topology.hh"
#include "stats/stats.hh"
#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::net;

namespace
{

/** Captures placements so tests can verify controller behaviour. */
class RecordingScheduler : public DeliveryScheduler
{
  public:
    struct Placement
    {
        test::FrameCopy pkt;
        DeliveryKind kind;
        Tick actual;
    };

    /** Next placement behaves as configured. */
    DeliveryKind nextKind = DeliveryKind::OnTime;
    Tick extraLateness = 0;

    Tick
    place(const Packet &pkt, DeliveryKind &kind) override
    {
        kind = nextKind;
        const Tick actual = pkt.idealArrival + extraLateness;
        placements.push_back(Placement{test::copyOf(pkt), kind, actual});
        return actual;
    }

    std::vector<Placement> placements;
};

struct ControllerFixture : public ::testing::Test
{
    ControllerFixture()
        : root("cluster"), controller(4, NetworkParams{}, root)
    {
        controller.setScheduler(&scheduler);
    }

    test::FrameCopy
    makeFrame(NodeId src, NodeId dst, std::uint32_t bytes,
              Tick depart)
    {
        return test::copyOf(test::frame(src, dst, bytes, depart));
    }

    stats::Group root;
    RecordingScheduler scheduler;
    NetworkController controller;
};

} // namespace

TEST_F(ControllerFixture, MinNetworkLatencyMatchesPaperConfig)
{
    // Default NicParams: 500+500 latency + 64B/10GBps serialization.
    const Tick t = controller.minNetworkLatency();
    EXPECT_GE(t, 1000u);
    EXPECT_LE(t, 1010u);
}

TEST_F(ControllerFixture, RoutesUnicastWithIdealArrival)
{
    controller.inject(*makeFrame(0, 1, 9000, 5000));
    ASSERT_EQ(scheduler.placements.size(), 1u);
    const auto &p = scheduler.placements[0];
    // Perfect switch: ideal = depart + rx latency.
    EXPECT_EQ(p.pkt->idealArrival, 5000u + 500u);
    EXPECT_EQ(controller.totalPackets(), 1u);
    EXPECT_EQ(controller.packetsThisQuantum(), 1u);
}

TEST_F(ControllerFixture, AssignsUniqueIds)
{
    controller.inject(*makeFrame(0, 1, 100, 0));
    controller.inject(*makeFrame(1, 2, 100, 0));
    EXPECT_NE(scheduler.placements[0].pkt->id,
              scheduler.placements[1].pkt->id);
}

// A source's ids keep counting across quanta, whichever way its
// routing counters are folded at the boundary: through a lane
// partial (the threaded engine) or straight from the slots (the
// sequential engine, no lanes). The folded idsAssigned total still
// counts every id once.
TEST_F(ControllerFixture, IdsStayUniqueAcrossQuantaThroughALaneFold)
{
    controller.setFoldLanes(1);
    controller.inject(*makeFrame(0, 1, 100, 0));
    controller.foldSource(0, 0);
    controller.beginQuantum();
    controller.inject(*makeFrame(0, 1, 100, 0));
    ASSERT_EQ(scheduler.placements.size(), 2u);
    EXPECT_NE(scheduler.placements[0].pkt->id,
              scheduler.placements[1].pkt->id);
    EXPECT_EQ(controller.snapshotCounters().idsAssigned, 2u);
}

TEST_F(ControllerFixture, IdsStayUniqueAcrossQuantaThroughTheSlotFold)
{
    controller.inject(*makeFrame(0, 1, 100, 0));
    controller.beginQuantum();
    controller.inject(*makeFrame(0, 1, 100, 0));
    ASSERT_EQ(scheduler.placements.size(), 2u);
    EXPECT_NE(scheduler.placements[0].pkt->id,
              scheduler.placements[1].pkt->id);
    EXPECT_EQ(controller.snapshotCounters().idsAssigned, 2u);
}

TEST_F(ControllerFixture, BroadcastReplicatesToAllOthers)
{
    controller.inject(*makeFrame(2, broadcastNode, 100, 0));
    ASSERT_EQ(scheduler.placements.size(), 3u);
    std::vector<NodeId> dsts;
    for (const auto &p : scheduler.placements)
        dsts.push_back(p.pkt->dst);
    EXPECT_EQ(dsts, (std::vector<NodeId>{0, 1, 3}));
    EXPECT_EQ(controller.totalPackets(), 3u);
}

TEST_F(ControllerFixture, QuantumPacketCountResetsAtBeginQuantum)
{
    controller.inject(*makeFrame(0, 1, 100, 0));
    controller.inject(*makeFrame(0, 2, 100, 0));
    EXPECT_EQ(controller.packetsThisQuantum(), 2u);
    controller.beginQuantum();
    EXPECT_EQ(controller.packetsThisQuantum(), 0u);
    EXPECT_EQ(controller.totalPackets(), 2u);
}

TEST_F(ControllerFixture, StragglerAccounting)
{
    scheduler.nextKind = DeliveryKind::Straggler;
    scheduler.extraLateness = 123;
    controller.inject(*makeFrame(0, 1, 100, 0));
    EXPECT_EQ(controller.totalStragglers(), 1u);
    EXPECT_EQ(controller.totalNextQuantum(), 0u);
    EXPECT_EQ(controller.totalLatenessTicks(), 123u);
}

TEST_F(ControllerFixture, NextQuantumCountsAsStragglerToo)
{
    scheduler.nextKind = DeliveryKind::NextQuantum;
    scheduler.extraLateness = 50;
    controller.inject(*makeFrame(0, 1, 100, 0));
    EXPECT_EQ(controller.totalStragglers(), 1u);
    EXPECT_EQ(controller.totalNextQuantum(), 1u);
}

TEST_F(ControllerFixture, OnTimeDeliveriesAreNotStragglers)
{
    controller.inject(*makeFrame(0, 1, 100, 0));
    EXPECT_EQ(controller.totalStragglers(), 0u);
    EXPECT_EQ(controller.totalLatenessTicks(), 0u);
}

TEST_F(ControllerFixture, ObserversSeeEveryPacket)
{
    std::vector<std::pair<NodeId, Tick>> seen;
    controller.addObserver([&](const Packet &pkt, Tick actual) {
        seen.emplace_back(pkt.dst, actual);
    });
    controller.inject(*makeFrame(0, 3, 100, 700));
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].first, 3u);
    EXPECT_EQ(seen[0].second, 700u + 500u);
}

TEST_F(ControllerFixture, ResetClearsCounters)
{
    controller.inject(*makeFrame(0, 1, 100, 0));
    controller.reset();
    EXPECT_EQ(controller.totalPackets(), 0u);
    EXPECT_EQ(controller.packetsThisQuantum(), 0u);
}

TEST_F(ControllerFixture, ResetAlsoClearsTheStatsTree)
{
    scheduler.nextKind = DeliveryKind::Straggler;
    scheduler.extraLateness = 77;
    controller.inject(*makeFrame(0, 1, 100, 0));
    const auto *packets = dynamic_cast<const stats::Scalar *>(
        root.find("network.packets"));
    const auto *stragglers = dynamic_cast<const stats::Scalar *>(
        root.find("network.stragglers"));
    ASSERT_NE(packets, nullptr);
    ASSERT_NE(stragglers, nullptr);
    EXPECT_EQ(packets->value(), 1.0);
    EXPECT_EQ(stragglers->value(), 1.0);
    controller.reset();
    // Scalars and histograms under the controller's group go back to
    // zero along with the raw counters, so a rerun starts clean.
    EXPECT_EQ(packets->value(), 0.0);
    EXPECT_EQ(stragglers->value(), 0.0);
    EXPECT_EQ(controller.totalStragglers(), 0u);
    EXPECT_EQ(controller.totalLatenessTicks(), 0u);
}

TEST_F(ControllerFixture, ResetRestoresTheFaultLayerToo)
{
    fault::FaultParams fp;
    fp.dropRate = 1.0;
    fault::FaultInjector faults(4, fp, Rng(9), root);
    controller.setFaultInjector(&faults);
    controller.inject(*makeFrame(0, 1, 100, 0));
    EXPECT_EQ(controller.totalDropped(), 1u);
    EXPECT_EQ(faults.totalDropped(), 1u);
    const auto *dropped = dynamic_cast<const stats::Scalar *>(
        root.find("faults.dropped"));
    ASSERT_NE(dropped, nullptr);
    EXPECT_EQ(dropped->value(), 1.0);
    controller.reset();
    EXPECT_EQ(controller.totalDropped(), 0u);
    EXPECT_EQ(faults.totalDropped(), 0u);
    EXPECT_EQ(dropped->value(), 0.0);
}

TEST_F(ControllerFixture, StoreAndForwardSwitchDelaysThroughPorts)
{
    // A star with output-port contention is a store-and-forward
    // switch: one hop, then serialization onto the destination port.
    TopologyParams star;
    star.hopLatency = 200;
    star.bytesPerNs = 10.0;
    NetworkParams params;
    params.switchModel = std::make_shared<TopologySwitch>(4, star);
    stats::Group root2("cluster");
    NetworkController ctrl(4, params, root2);
    RecordingScheduler sched;
    ctrl.setScheduler(&sched);

    Packet pkt = test::frame(0, 1, 9000, 0);
    ctrl.inject(pkt);
    // traversal 200 + 9000B at 10 B/ns = 900 + rx latency 500.
    EXPECT_EQ(sched.placements[0].pkt->idealArrival, 200u + 900u + 500u);
    EXPECT_EQ(ctrl.minNetworkLatency(), 500u + 200u + 500u + 7u);
}

namespace
{

/**
 * Thread-safe placement for concurrent injection: the delivery kind
 * and lateness are pure functions of the frame, and each source's
 * placements go to that source's own list (one writer per list).
 */
class PerSourceScheduler : public DeliveryScheduler
{
  public:
    struct Placed
    {
        std::uint64_t id;
        NodeId dst;
        DeliveryKind kind;
        Tick actual;

        bool
        operator==(const Placed &o) const
        {
            return id == o.id && dst == o.dst && kind == o.kind &&
                   actual == o.actual;
        }
    };

    explicit PerSourceScheduler(std::size_t sources) : placed(sources) {}

    Tick
    place(const Packet &pkt, DeliveryKind &kind) override
    {
        const Tick d = pkt.departTick;
        kind = d % 10 == 0  ? DeliveryKind::NextQuantum
               : d % 5 == 0 ? DeliveryKind::Straggler
                            : DeliveryKind::OnTime;
        const Tick actual =
            pkt.idealArrival +
            (kind == DeliveryKind::OnTime ? 0 : 7 + d % 13);
        placed[pkt.src].push_back(Placed{pkt.id, pkt.dst, kind, actual});
        return actual;
    }

    std::vector<std::vector<Placed>> placed;
};

/** Everything one injection run leaves observable. */
struct InjectOutcome
{
    std::vector<std::vector<PerSourceScheduler::Placed>> placed;
    NetworkController::Counters counters;
    std::vector<std::pair<std::string, double>> networkStats;
    std::uint64_t observed = 0;
    std::uint64_t faultDrops = 0;
    std::uint64_t faultDuplicates = 0;
};

/**
 * Inject a fixed per-source frame sequence — unicasts, broadcasts,
 * stragglers, next-quantum deliveries, fault-layer drops and
 * duplicates — from @p threads threads, each owning a disjoint set of
 * sources, then close the quantum.
 */
InjectOutcome
injectFromThreads(std::size_t threads)
{
    constexpr std::size_t sources = 8;
    constexpr Tick frames = 1500;
    stats::Group root("cluster");
    NetworkController ctl(sources, NetworkParams{}, root);
    fault::FaultParams fp;
    fp.dropRate = 0.05;
    fp.duplicateRate = 0.05;
    fault::FaultInjector faults(sources, fp, Rng(11), root);
    ctl.setFaultInjector(&faults);
    PerSourceScheduler sched(sources);
    ctl.setScheduler(&sched);
    InjectOutcome out;
    // Observers run under the controller's shared mutex.
    ctl.addObserver([&out](const Packet &, Tick) { ++out.observed; });

    const auto send = [&ctl](NodeId src) {
        for (Tick i = 1; i <= frames; ++i) {
            const NodeId dst =
                i % 100 == 0
                    ? broadcastNode
                    : static_cast<NodeId>((src + 1 + i % (sources - 1)) %
                                          sources);
            Packet pkt = test::frame(
                src, dst, static_cast<std::uint32_t>(64 + i % 1400), i * 3);
            pkt.departTick = i * 3 + src;
            ctl.inject(pkt);
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&send, t, threads] {
            for (std::size_t src = t; src < sources; src += threads)
                send(static_cast<NodeId>(src));
        });
    }
    for (auto &th : pool)
        th.join();
    ctl.beginQuantum();

    out.placed = sched.placed;
    out.counters = ctl.snapshotCounters();
    for (const auto &group : root.children()) {
        if (group->name() != "network")
            continue;
        for (const auto &stat : group->statList())
            for (const auto &[label, value] : stat->rows())
                out.networkStats.emplace_back(
                    std::string(stat->name()) + label, value);
    }
    out.faultDrops = faults.totalDropped();
    out.faultDuplicates = faults.totalDuplicated();
    return out;
}

} // namespace

TEST(ControllerConcurrency, DisjointSourcesMatchASingleThreadedRun)
{
    const InjectOutcome one = injectFromThreads(1);
    const InjectOutcome four = injectFromThreads(4);

    // The sequence exercised every path it is meant to.
    EXPECT_GT(one.counters.totalStragglers, one.counters.totalNextQuantum);
    EXPECT_GT(one.counters.totalNextQuantum, 0u);
    EXPECT_GT(one.counters.totalDropped, 0u);
    EXPECT_GT(one.faultDuplicates, 0u);

    EXPECT_EQ(four.counters.idsAssigned, one.counters.idsAssigned);
    EXPECT_EQ(four.counters.totalPackets, one.counters.totalPackets);
    EXPECT_EQ(four.counters.totalStragglers,
              one.counters.totalStragglers);
    EXPECT_EQ(four.counters.totalNextQuantum,
              one.counters.totalNextQuantum);
    EXPECT_EQ(four.counters.totalLatenessTicks,
              one.counters.totalLatenessTicks);
    EXPECT_EQ(four.counters.totalDropped, one.counters.totalDropped);
    EXPECT_EQ(four.counters.bytes, one.counters.bytes);
    EXPECT_EQ(four.counters.packetsThisQuantum, 0u);
    EXPECT_EQ(four.networkStats, one.networkStats);
    EXPECT_EQ(four.observed, one.observed);
    EXPECT_EQ(four.observed, one.counters.totalPackets);
    EXPECT_EQ(four.faultDrops, one.faultDrops);
    EXPECT_EQ(four.faultDuplicates, one.faultDuplicates);
    // Every packet id, per source and in order: ids must not depend
    // on how the sources interleave across threads.
    ASSERT_EQ(four.placed.size(), one.placed.size());
    for (std::size_t src = 0; src < one.placed.size(); ++src)
        EXPECT_TRUE(four.placed[src] == one.placed[src])
            << "source " << src;
}

TEST(NicParams, SerializationRoundsUp)
{
    NicParams nic;
    nic.bytesPerNs = 10.0;
    EXPECT_EQ(nic.serialization(9000), 900u);
    EXPECT_EQ(nic.serialization(64), 7u); // 6.4 -> 7
    EXPECT_EQ(nic.serialization(1), 1u);
}

TEST(ControllerDeath, SelfSendIsRejected)
{
    stats::Group root("cluster");
    NetworkController ctrl(2, NetworkParams{}, root);
    RecordingScheduler sched;
    ctrl.setScheduler(&sched);
    Packet pkt = test::frame(0, 0, 100, 0);
    EXPECT_DEATH(ctrl.inject(pkt), "assertion");
}
