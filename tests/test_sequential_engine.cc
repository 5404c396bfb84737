/** Tests for the deterministic host co-simulation engine. */

#include <gtest/gtest.h>

#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::workloads;
using test::LambdaWorkload;
using test::quietEngine;
using test::runLambda;

namespace
{

engine::RunResult
runNamed(const std::string &workload, std::size_t nodes,
         const std::string &policy, std::uint64_t seed = 1)
{
    harness::ExperimentConfig config;
    config.workload = workload;
    config.numNodes = nodes;
    config.scale = 0.1;
    config.policySpec = policy;
    config.seed = seed;
    return harness::runExperiment(config).result;
}

} // namespace

TEST(SequentialEngine, BitIdenticalReruns)
{
    const auto a = runNamed("nas.cg", 4, "fixed:10us", 7);
    const auto b = runNamed("nas.cg", 4, "fixed:10us", 7);
    EXPECT_EQ(a.simTicks, b.simTicks);
    EXPECT_DOUBLE_EQ(a.hostNs, b.hostNs);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.stragglers, b.stragglers);
    EXPECT_EQ(a.quanta, b.quanta);
    EXPECT_EQ(a.finishTicks, b.finishTicks);
}

TEST(SequentialEngine, DifferentSeedsDifferentHostTimes)
{
    const auto a = runNamed("nas.cg", 4, "fixed:10us", 7);
    const auto b = runNamed("nas.cg", 4, "fixed:10us", 8);
    EXPECT_NE(a.hostNs, b.hostNs);
}

TEST(SequentialEngine, ConservativeQuantumYieldsNoStragglers)
{
    // Q = 1us = T: the paper's safety condition.
    const auto r = runNamed("nas.is", 4, "fixed:1us");
    EXPECT_EQ(r.stragglers, 0u);
    EXPECT_EQ(r.nextQuantumDeliveries, 0u);
    EXPECT_EQ(r.latenessTicks, 0u);
}

TEST(SequentialEngine, SubLatencyQuantumAlsoSafe)
{
    const auto r = runNamed("pingpong", 2, "fixed:500ns");
    EXPECT_EQ(r.stragglers, 0u);
}

TEST(SequentialEngine, LongQuantaProduceStragglers)
{
    const auto r = runNamed("nas.is", 4, "fixed:100us");
    EXPECT_GT(r.stragglers, 0u);
    EXPECT_GT(r.latenessTicks, 0u);
}

TEST(SequentialEngine, QuantaCountMatchesSimTimeOverQuantum)
{
    const auto r = runNamed("pingpong", 2, "fixed:10us");
    // quanta ~ simTicks / 10us (final quantum may be partial).
    const auto expected = r.simTicks / microseconds(10);
    EXPECT_GE(r.quanta, expected);
    EXPECT_LE(r.quanta, expected + 2);
}

TEST(SequentialEngine, HostTimeScalesWithQuantumOverhead)
{
    // The whole point of the paper: small quanta pay per-quantum
    // overhead; 1000us quanta must be dramatically faster than 1us.
    const auto gt = runNamed("nas.ep", 4, "fixed:1us");
    const auto q1000 = runNamed("nas.ep", 4, "fixed:1000us");
    EXPECT_GT(gt.hostNs / q1000.hostNs, 10.0);
}

TEST(SequentialEngine, SlowestNodeSetsThePace)
{
    // Two nodes, one computing 10x the work, no communication. The
    // wall clock must track the slow node's cost (paper Fig. 5).
    auto options = quietEngine();
    auto fast_only = runLambda(
        2,
        [](AppContext &ctx) -> sim::Process {
            if (ctx.rank() == 0)
                co_await ctx.compute(1e6);
            else
                co_await ctx.compute(1e6);
        },
        "fixed:100us", options);
    auto imbalanced = runLambda(
        2,
        [](AppContext &ctx) -> sim::Process {
            if (ctx.rank() == 0)
                co_await ctx.compute(1e7);
            else
                co_await ctx.compute(1e6);
        },
        "fixed:100us", options);
    // The imbalanced cluster takes ~as long as a 1e7 pair would, far
    // longer than the balanced 1e6 pair.
    EXPECT_GT(imbalanced.hostNs, 3.0 * fast_only.hostNs);
}

TEST(SequentialEngine, IdleGuestsAreCheapToSimulate)
{
    // Simulating the same stretch of guest time costs roughly
    // idleFactor as much when the guest is idle as when it computes.
    auto options = quietEngine();
    const Tick span = milliseconds(2);
    auto busy = runLambda(
        2,
        [&](AppContext &ctx) -> sim::Process {
            // 2 ms of computation at 2.6 ops/ns.
            co_await ctx.compute(2.6 * static_cast<double>(span));
        },
        "fixed:1000us", options);
    auto idle = runLambda(
        2,
        [&](AppContext &ctx) -> sim::Process {
            co_await ctx.delay(span); // guest sleeps
        },
        "fixed:1000us", options);
    EXPECT_EQ(busy.simTicks, idle.simTicks);
    // idleFactor default 0.25; allow generous slack for fixed
    // per-quantum overheads shared by both runs.
    EXPECT_LT(idle.hostNs, busy.hostNs * 0.7);
}

TEST(SequentialEngine, AdaptiveQuantumGrowsDuringSilence)
{
    harness::ExperimentConfig config;
    config.workload = "nas.ep";
    config.numNodes = 4;
    config.scale = 1.0; // full-size EP: ~19 ms of silent compute
    config.policySpec = "dyn:1.1:0.02:1us:1000us";
    config.engine.recordTimeline = true;
    auto out = harness::runExperiment(config);
    Tick max_q = 0;
    for (const auto &q : out.result.timeline)
        max_q = std::max(max_q, q.length);
    // EP's long silent compute lets the quantum reach its cap.
    EXPECT_EQ(max_q, microseconds(1000));
    // Mean quantum far above the minimum.
    EXPECT_GT(out.result.meanQuantumTicks, 50000.0);
}

TEST(SequentialEngine, AdaptiveQuantumStaysLowUnderDenseTraffic)
{
    harness::ExperimentConfig config;
    config.workload = "namd";
    config.numNodes = 4;
    config.scale = 0.15;
    config.policySpec = "dyn:1.03:0.02:1us:1000us";
    auto out = harness::runExperiment(config);
    // NAMD's continuous traffic keeps the mean quantum within ~20x
    // of the minimum (paper: adaptive settles near 10 us).
    EXPECT_LT(out.result.meanQuantumTicks, 30000.0);
}

TEST(SequentialEngine, MaxSimTicksGuardFires)
{
    engine::EngineOptions options;
    options.maxSimTicks = microseconds(50);
    EXPECT_EXIT(
        runLambda(
            2,
            [](AppContext &ctx) -> sim::Process {
                co_await ctx.compute(1e9); // far beyond the budget
            },
            "fixed:10us", options),
        ::testing::ExitedWithCode(1), "budget exceeded");
}

TEST(SequentialEngine, TimelineCoversWholeRun)
{
    harness::ExperimentConfig config;
    config.workload = "pingpong";
    config.numNodes = 2;
    config.policySpec = "fixed:10us";
    config.engine.recordTimeline = true;
    auto out = harness::runExperiment(config);
    ASSERT_FALSE(out.result.timeline.empty());
    // Quanta tile simulated time contiguously from zero.
    Tick expected_start = 0;
    for (const auto &q : out.result.timeline) {
        EXPECT_EQ(q.start, expected_start);
        expected_start += q.length;
    }
    EXPECT_GE(expected_start, out.result.simTicks);
    // Host time adds up.
    HostNs total = 0.0;
    for (const auto &q : out.result.timeline)
        total += q.hostNs;
    EXPECT_NEAR(total, out.result.hostNs, 1.0);
}

TEST(SequentialEngine, PacketConservationAcrossQuanta)
{
    // Every sent message is delivered exactly once even when
    // deliveries straddle quantum boundaries.
    for (const char *policy : {"fixed:1us", "fixed:7us", "fixed:100us",
                               "dyn:1.05:0.02:1us:1000us"}) {
        std::atomic<int> received{0};
        constexpr int msgs = 50;
        runLambda(
            2,
            [&](AppContext &ctx) -> sim::Process {
                if (ctx.rank() == 0) {
                    for (int i = 0; i < msgs; ++i) {
                        co_await ctx.comm().send(1, 1, 512);
                        co_await ctx.delay(microseconds(3));
                    }
                } else {
                    for (int i = 0; i < msgs; ++i) {
                        co_await ctx.comm().recv(0, 1);
                        ++received;
                    }
                }
            },
            policy);
        EXPECT_EQ(received.load(), msgs) << policy;
    }
}
