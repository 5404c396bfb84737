/**
 * Tests for the runtime invariant checker: each seeded violation of
 * the paper's safety conditions must be detected, and clean runs of
 * both engines must report zero violations while demonstrably
 * performing checks.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/debug.hh"
#include "check/invariants.hh"
#include "engine/sequential_engine.hh"
#include "engine/threaded_engine.hh"
#include "harness/experiment.hh"
#include "net/network_controller.hh"
#include "stats/stats.hh"
#include "workloads/workload.hh"
#include "test_util.hh"

using namespace aqsim;
using check::DeliveryClass;
using check::Invariant;
using check::InvariantChecker;

namespace
{

/** Enables the checker for one test and restores the off state. */
struct CheckerFixture : public ::testing::Test
{
    CheckerFixture() : checker(InvariantChecker::instance())
    {
        checker.reset();
        checker.setEnabled(true);
    }

    ~CheckerFixture() override
    {
        checker.setEnabled(false);
        checker.setFatal(false);
        checker.reset();
        debug::clearFlags();
    }

    InvariantChecker &checker;
};

/** Scheduler that places deliveries *before* the wire arrival. */
class TimeTravelScheduler : public net::DeliveryScheduler
{
  public:
    Tick
    place(const net::Packet &pkt, net::DeliveryKind &kind) override
    {
        kind = net::DeliveryKind::OnTime;
        return pkt.idealArrival > 100 ? pkt.idealArrival - 100 : 0;
    }
};

} // namespace

TEST_F(CheckerFixture, QuantumBoundViolationDetected)
{
    // A "conservative" run whose quantum exceeds the minimum network
    // latency breaks the paper's Q <= T safety rule (Section 3).
    checker.onRunBegin();
    checker.onQuantumOpen(0, 5000, /*conservative=*/true,
                          /*min_latency=*/1000);
    EXPECT_EQ(checker.violations(Invariant::QuantumBound), 1u);
    EXPECT_EQ(checker.totalViolations(), 1u);

    // The same window under a non-conservative policy is legal.
    checker.reset();
    checker.onRunBegin();
    checker.onQuantumOpen(0, 5000, /*conservative=*/false, 1000);
    EXPECT_EQ(checker.totalViolations(), 0u);
}

TEST_F(CheckerFixture, PastScheduledEventDetected)
{
    checker.onEventScheduled(/*when=*/50, /*now=*/200);
    EXPECT_EQ(checker.violations(Invariant::PastEvent), 1u);

    checker.onTickAdvance(/*from=*/300, /*to=*/250);
    EXPECT_EQ(checker.violations(Invariant::TickMonotonic), 1u);
}

TEST_F(CheckerFixture, PastDeliveryThroughControllerDetected)
{
    // Route a real frame through the controller with a scheduler that
    // claims "on time" but delivers before the wire arrival: the
    // checker must flag the causality violation the controller's own
    // accounting cannot see (its assert passes for OnTime kinds).
    stats::Group root("cluster");
    net::NetworkController controller(2, net::NetworkParams{}, root);
    TimeTravelScheduler scheduler;
    controller.setScheduler(&scheduler);

    net::Packet pkt = test::frame(0, 1, 256, /*depart=*/50'000);
    controller.inject(pkt);

    EXPECT_EQ(checker.violations(Invariant::PastDelivery), 1u);
}

TEST_F(CheckerFixture, StragglerCountMismatchDetected)
{
    checker.onRunBegin();
    checker.onQuantumOpen(0, 1000, false, 2000);
    // Two frames displaced past their ideal arrival...
    checker.onDelivery(DeliveryClass::Straggler, 700, 500);
    checker.onDelivery(DeliveryClass::NextQuantum, 1000, 600);
    // ...but the quantum claims only one was accounted.
    checker.onQuantumComplete(0, 1000, /*claimed_stragglers=*/1);
    EXPECT_EQ(checker.violations(Invariant::StragglerAccounting), 1u);

    // Matching accounting is clean.
    checker.reset();
    checker.onRunBegin();
    checker.onQuantumOpen(0, 1000, false, 2000);
    checker.onDelivery(DeliveryClass::Straggler, 700, 500);
    checker.onQuantumComplete(0, 1000, 1);
    EXPECT_EQ(checker.totalViolations(), 0u);
}

TEST_F(CheckerFixture, QuantumWindowGapDetected)
{
    checker.onRunBegin();
    checker.onQuantumOpen(0, 1000, false, 2000);
    checker.onQuantumComplete(0, 1000, 0);
    // Next window must start exactly at the previous end.
    checker.onQuantumOpen(1500, 2500, false, 2000);
    EXPECT_EQ(checker.violations(Invariant::QuantumMonotonic), 1u);
}

TEST_F(CheckerFixture, ShardMergeViolationsDetected)
{
    checker.onShardMerge(/*strictly_after=*/false,
                         DeliveryClass::OnTime, 100, 50);
    EXPECT_EQ(checker.violations(Invariant::ShardMergeOrder), 1u);

    // An unaccounted delivery behind the receiver is also flagged...
    checker.onShardMerge(true, DeliveryClass::NextQuantum, 40, 90);
    EXPECT_EQ(checker.violations(Invariant::ShardMergeOrder), 2u);

    // ...but an accounted Straggler behind the receiver is legal.
    checker.onShardMerge(true, DeliveryClass::Straggler, 40, 90);
    EXPECT_EQ(checker.violations(Invariant::ShardMergeOrder), 2u);
}

TEST_F(CheckerFixture, ViolationsTraceUnderCheckFlag)
{
    std::string sink;
    debug::captureTo(&sink);
    debug::setFlags("Check");
    checker.onEventScheduled(50, 200);
    debug::captureTo(nullptr);
    EXPECT_NE(sink.find("PastEvent violated"), std::string::npos);
    EXPECT_NE(sink.find("check"), std::string::npos);
}

TEST_F(CheckerFixture, ReportMarksFailedInvariants)
{
    checker.onEventScheduled(50, 200);
    const std::string report = checker.report();
    EXPECT_NE(report.find("FAIL  PastEvent: 1"), std::string::npos);
    EXPECT_NE(report.find("ok    QuantumBound: 0"), std::string::npos);
    EXPECT_NE(report.find("1 violations"), std::string::npos);
}

TEST_F(CheckerFixture, DisabledCheckerCountsNothing)
{
    checker.setEnabled(false);
    checker.onEventScheduled(50, 200);
    checker.onQuantumOpen(0, 5000, true, 1000);
    EXPECT_EQ(checker.totalViolations(), 0u);
    EXPECT_EQ(checker.checksPerformed(), 0u);
}

TEST_F(CheckerFixture, FatalModePanicsOnViolation)
{
    checker.setFatal(true);
    EXPECT_DEATH(checker.onEventScheduled(50, 200),
                 "invariant PastEvent violated");
}

TEST_F(CheckerFixture, CleanSequentialRunReportsZeroViolations)
{
    // Full sequential runs under both a conservative and an adaptive
    // policy: every hook fires and none may trip.
    for (const char *spec : {"fixed:1us", "fixed:500us",
                             "dyn:1.05:0.02:1us:1000us"}) {
        auto wl = workloads::makeWorkload("pingpong", 2, 0.05);
        auto pol = core::parsePolicy(spec);
        auto params = harness::defaultCluster(2, 1);
        engine::SequentialEngine engine;
        auto result = engine.run(params, *wl, *pol);
        EXPECT_GT(result.packets, 0u) << spec;
        EXPECT_EQ(checker.totalViolations(), 0u)
            << spec << "\n" << checker.report();
    }
    EXPECT_GT(checker.checksPerformed(), 0u);
}

TEST_F(CheckerFixture, CleanThreadedRunReportsZeroViolations)
{
    for (const char *spec : {"fixed:1us", "fixed:500us",
                             "dyn:1.05:0.02:1us:1000us"}) {
        auto wl = workloads::makeWorkload("random", 4, 0.05);
        auto pol = core::parsePolicy(spec);
        auto params = harness::defaultCluster(4, 1);
        engine::ThreadedEngine engine;
        auto result = engine.run(params, *wl, *pol);
        EXPECT_GT(result.packets, 0u) << spec;
        EXPECT_EQ(checker.totalViolations(), 0u)
            << spec << "\n" << checker.report();
    }
    EXPECT_GT(checker.checksPerformed(), 0u);
}
