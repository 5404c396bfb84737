/**
 * Tests for the fault-injection layer: per-frame decision semantics at
 * the controller, scheduled outage windows, observer behaviour under
 * duplication, and the determinism contract (same seed => bit-identical
 * runs across engines and worker counts).
 */

#include <gtest/gtest.h>

#include <vector>

#include "engine/threaded_engine.hh"
#include "fault/fault_injector.hh"
#include "net/network_controller.hh"
#include "stats/stats.hh"
#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::net;
using aqsim::fault::FaultInjector;
using aqsim::fault::FaultParams;

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

    Tick
    place(const Packet &pkt, DeliveryKind &kind) override
    {
        kind = DeliveryKind::OnTime;
        placements.push_back(
            Placement{test::copyOf(pkt), kind, pkt.idealArrival});
        return pkt.idealArrival;
    }

    std::vector<Placement> placements;
};

/** A 4-node controller with a fault injector interposed. */
struct FaultFixture : public ::testing::Test
{
    explicit FaultFixture() : root("cluster") {}

    void
    attach(const FaultParams &params, std::uint64_t seed = 42)
    {
        controller =
            std::make_unique<NetworkController>(4, NetworkParams{},
                                                root);
        controller->setScheduler(&scheduler);
        faults = std::make_unique<FaultInjector>(4, params, Rng(seed),
                                                 root);
        controller->setFaultInjector(faults.get());
    }

    test::FrameCopy
    makeFrame(NodeId src, NodeId dst, std::uint32_t bytes, Tick depart)
    {
        return test::copyOf(test::frame(src, dst, bytes, depart));
    }

    stats::Group root;
    RecordingScheduler scheduler;
    std::unique_ptr<NetworkController> controller;
    std::unique_ptr<FaultInjector> faults;
};

} // namespace

TEST_F(FaultFixture, DropsCountAsTrafficButAreNeverDelivered)
{
    FaultParams params;
    params.dropRate = 1.0;
    attach(params);
    controller->inject(*makeFrame(0, 1, 100, 0));
    controller->inject(*makeFrame(0, 2, 100, 0));
    EXPECT_TRUE(scheduler.placements.empty());
    EXPECT_EQ(controller->totalDropped(), 2u);
    EXPECT_EQ(faults->totalDropped(), 2u);
    // Dropped frames still feed the adaptive-quantum traffic signal
    // (the controller saw them), but never the delivered count.
    EXPECT_EQ(controller->packetsThisQuantum(), 2u);
    EXPECT_EQ(controller->totalPackets(), 0u);
}

TEST_F(FaultFixture, DuplicateDeliversTwoCopiesAndObserversSeeBoth)
{
    FaultParams params;
    params.duplicateRate = 1.0;
    attach(params);
    std::vector<std::uint64_t> observed_ids;
    controller->addObserver(
        [&](const Packet &pkt, Tick) { observed_ids.push_back(pkt.id); });
    controller->inject(*makeFrame(0, 1, 100, 0));
    ASSERT_EQ(scheduler.placements.size(), 2u);
    // Primary first, copy second, each with its own id; the observer
    // ordering matches the placement ordering exactly.
    EXPECT_EQ(scheduler.placements[0].pkt->dst, 1u);
    EXPECT_EQ(scheduler.placements[1].pkt->dst, 1u);
    EXPECT_NE(scheduler.placements[0].pkt->id,
              scheduler.placements[1].pkt->id);
    ASSERT_EQ(observed_ids.size(), 2u);
    EXPECT_EQ(observed_ids[0], scheduler.placements[0].pkt->id);
    EXPECT_EQ(observed_ids[1], scheduler.placements[1].pkt->id);
    EXPECT_EQ(faults->totalDuplicated(), 1u);
    EXPECT_EQ(controller->totalPackets(), 2u);
}

TEST_F(FaultFixture, CorruptSetsTheFlagWithoutChangingTiming)
{
    FaultParams params;
    params.corruptRate = 1.0;
    attach(params);
    controller->inject(*makeFrame(0, 1, 9000, 5000));
    ASSERT_EQ(scheduler.placements.size(), 1u);
    EXPECT_TRUE(scheduler.placements[0].pkt->corrupted);
    // Perfect switch: ideal = depart + rx latency, unchanged.
    EXPECT_EQ(scheduler.placements[0].pkt->idealArrival, 5000u + 500u);
    EXPECT_EQ(faults->totalCorrupted(), 1u);
}

TEST_F(FaultFixture, JitterOnlyEverAddsLatency)
{
    FaultParams params;
    params.jitterRate = 1.0;
    params.maxJitterTicks = 300;
    attach(params);
    for (int i = 0; i < 20; ++i)
        controller->inject(*makeFrame(0, 1, 100, 1000));
    const Tick base = 1000 + 500; // depart + rx latency
    ASSERT_EQ(scheduler.placements.size(), 20u);
    for (const auto &p : scheduler.placements) {
        EXPECT_GT(p.pkt->idealArrival, base);
        EXPECT_LE(p.pkt->idealArrival, base + 300);
    }
    EXPECT_EQ(faults->totalDelayed(), 20u);
}

TEST_F(FaultFixture, LinkDownWindowDropsBothDirectionsOnlyInWindow)
{
    FaultParams params;
    params.linkDown.push_back({0, 1, 1000, 2000});
    attach(params);
    controller->inject(*makeFrame(0, 1, 100, 1500)); // down, forward
    controller->inject(*makeFrame(1, 0, 100, 1500)); // down, reverse
    controller->inject(*makeFrame(0, 2, 100, 1500)); // other link: fine
    controller->inject(*makeFrame(0, 1, 100, 2000)); // window end: fine
    controller->inject(*makeFrame(0, 1, 100, 999));  // before: fine
    EXPECT_EQ(controller->totalDropped(), 2u);
    EXPECT_EQ(scheduler.placements.size(), 3u);
}

TEST_F(FaultFixture, NodeCrashWindowDropsAllTrafficOfTheNode)
{
    FaultParams params;
    params.nodeCrash.push_back({2, 100, 500});
    attach(params);
    controller->inject(*makeFrame(0, 2, 100, 200)); // to crashed node
    controller->inject(*makeFrame(2, 3, 100, 200)); // from crashed node
    controller->inject(*makeFrame(0, 1, 100, 200)); // unrelated
    controller->inject(*makeFrame(0, 2, 100, 600)); // after recovery
    EXPECT_EQ(controller->totalDropped(), 2u);
    EXPECT_EQ(scheduler.placements.size(), 2u);
}

TEST_F(FaultFixture, NodePauseHoldsArrivalToWindowEnd)
{
    FaultParams params;
    params.nodePause.push_back({1, 0, 10000});
    attach(params);
    controller->inject(*makeFrame(0, 1, 100, 1000));
    ASSERT_EQ(scheduler.placements.size(), 1u);
    // Natural arrival would be 1500; the pause holds it to 10000.
    EXPECT_EQ(scheduler.placements[0].pkt->idealArrival, 10000u);
    // A frame departing after the window is unaffected.
    controller->inject(*makeFrame(0, 1, 100, 20000));
    EXPECT_EQ(scheduler.placements[1].pkt->idealArrival, 20500u);
}

TEST(FaultInjectorUnit, SameSeedGivesIdenticalDecisionSequences)
{
    FaultParams params;
    params.dropRate = 0.3;
    params.duplicateRate = 0.2;
    params.corruptRate = 0.1;
    params.jitterRate = 0.5;
    params.maxJitterTicks = 100;
    stats::Group root_a("a"), root_b("b");
    FaultInjector a(4, params, Rng(7), root_a);
    FaultInjector b(4, params, Rng(7), root_b);
    for (Tick t = 0; t < 500; ++t) {
        const auto da = a.decide(0, 1, t * 10);
        const auto db = b.decide(0, 1, t * 10);
        EXPECT_EQ(da.drop, db.drop);
        EXPECT_EQ(da.corrupt, db.corrupt);
        EXPECT_EQ(da.duplicate, db.duplicate);
        EXPECT_EQ(da.jitter, db.jitter);
        EXPECT_EQ(da.duplicateJitter, db.duplicateJitter);
    }
    EXPECT_EQ(a.totalDropped(), b.totalDropped());
    EXPECT_EQ(a.totalDuplicated(), b.totalDuplicated());
}

TEST(FaultInjectorUnit, LinksHaveIndependentStreams)
{
    FaultParams params;
    params.dropRate = 0.5;
    stats::Group root_a("a"), root_b("b");
    FaultInjector a(4, params, Rng(7), root_a);
    FaultInjector b(4, params, Rng(7), root_b);
    // Interleaving traffic on another link must not perturb the
    // decision sequence of link 0->1.
    std::vector<bool> drops_a, drops_b;
    for (Tick t = 0; t < 200; ++t) {
        drops_a.push_back(a.decide(0, 1, t).drop);
        b.decide(2, 3, t); // extra traffic on an unrelated link
        drops_b.push_back(b.decide(0, 1, t).drop);
    }
    EXPECT_EQ(drops_a, drops_b);
}

TEST(FaultInjectorUnit, ResetReplaysTheExactSameDecisions)
{
    FaultParams params;
    params.dropRate = 0.4;
    params.jitterRate = 0.3;
    params.maxJitterTicks = 50;
    stats::Group root("a");
    FaultInjector inj(2, params, Rng(11), root);
    std::vector<Tick> first;
    for (Tick t = 0; t < 300; ++t) {
        const auto d = inj.decide(0, 1, t);
        first.push_back(d.drop ? maxTick : d.jitter);
    }
    const auto dropped = inj.totalDropped();
    inj.reset();
    EXPECT_EQ(inj.totalDropped(), 0u);
    for (Tick t = 0; t < 300; ++t) {
        const auto d = inj.decide(0, 1, t);
        EXPECT_EQ(first[t], d.drop ? maxTick : d.jitter) << "tick " << t;
    }
    EXPECT_EQ(inj.totalDropped(), dropped);
}

namespace
{

/** A lossy conservative run of the burst workload on either engine. */
engine::RunResult
runFaulty(bool threaded, std::size_t workers, std::uint64_t seed)
{
    auto params = harness::defaultCluster(8, seed);
    params.faults.dropRate = 0.02;
    params.faults.duplicateRate = 0.02;
    params.faults.corruptRate = 0.01;
    params.faults.jitterRate = 0.05;
    params.faults.maxJitterTicks = 200;
    params.mpiParams.reliable = true;
    params.mpiParams.retryTimeout = microseconds(20);
    auto workload = workloads::makeWorkload("burst", 8, 0.1);
    auto policy = core::parsePolicy("fixed:1us");
    engine::EngineOptions options;
    options.numWorkers = workers;
    if (threaded) {
        engine::ThreadedEngine engine(options);
        return engine.run(params, *workload, *policy);
    }
    engine::SequentialEngine engine(options);
    return engine.run(params, *workload, *policy);
}

} // namespace

TEST(FaultDeterminism, ConservativeLossyRunsMatchAcrossEngines)
{
    // The ISSUE acceptance bar: with fault injection and reliable
    // delivery enabled, a same-seed conservative run is bit-identical
    // on the SequentialEngine and on the WorkerPool engine at 1, 2,
    // and 4 workers.
    const auto ref = runFaulty(false, 0, 5);
    EXPECT_GT(ref.droppedFrames, 0u);
    EXPECT_GT(ref.retransmits, 0u);
    for (std::size_t workers : {1ul, 2ul, 4ul}) {
        const auto got = runFaulty(true, workers, 5);
        EXPECT_EQ(got.simTicks, ref.simTicks) << "workers=" << workers;
        EXPECT_EQ(got.packets, ref.packets) << "workers=" << workers;
        EXPECT_EQ(got.finishTicks, ref.finishTicks)
            << "workers=" << workers;
        EXPECT_EQ(got.droppedFrames, ref.droppedFrames)
            << "workers=" << workers;
        EXPECT_EQ(got.retransmits, ref.retransmits)
            << "workers=" << workers;
        EXPECT_EQ(got.stragglers, ref.stragglers)
            << "workers=" << workers;
    }
}

TEST(FaultDeterminism, RerunsWithTheSameSeedAreIdentical)
{
    const auto a = runFaulty(false, 0, 9);
    const auto b = runFaulty(false, 0, 9);
    EXPECT_EQ(a.simTicks, b.simTicks);
    EXPECT_EQ(a.droppedFrames, b.droppedFrames);
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.finishTicks, b.finishTicks);
}

TEST(FaultDeterminism, DifferentSeedsPerturbTheFaultPattern)
{
    const auto a = runFaulty(false, 0, 5);
    const auto b = runFaulty(false, 0, 6);
    // Not a hard physical law, but with hundreds of frames at 2% drop
    // the probability of identical drop counts AND identical finish
    // times under different seeds is negligible.
    EXPECT_TRUE(a.droppedFrames != b.droppedFrames ||
                a.finishTicks != b.finishTicks);
}

TEST(FaultStraggler, DeferToNextQuantumStillCompletesUnderLoss)
{
    // Large quantum + deferred stragglers + loss: every late frame
    // snaps to the next quantum boundary (DeliveryKind::NextQuantum)
    // and the reliable layer still converges.
    auto params = harness::defaultCluster(4, 3);
    params.faults.dropRate = 0.05;
    params.mpiParams.reliable = true;
    params.mpiParams.retryTimeout = microseconds(20);
    auto workload = workloads::makeWorkload("burst", 4, 0.1);
    auto policy = core::parsePolicy("fixed:100us");
    engine::EngineOptions options;
    options.stragglerPolicy = engine::StragglerPolicy::DeferToNextQuantum;
    engine::SequentialEngine engine(options);
    const auto result = engine.run(params, *workload, *policy);
    EXPECT_GT(result.nextQuantumDeliveries, 0u);
    EXPECT_EQ(result.stragglers, result.nextQuantumDeliveries);
    EXPECT_GT(result.droppedFrames, 0u);
    for (Tick t : result.finishTicks)
        EXPECT_GT(t, 0u);
}
