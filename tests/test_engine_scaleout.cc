/**
 * Scale-out and dynamics tests: larger clusters, cross-engine sweeps,
 * and the "speed bump" quantum dynamics the paper describes.
 * Also compiles the umbrella header to keep the public API sound.
 */

#include <gtest/gtest.h>

#include "aqsim.hh"
#include "test_util.hh"

using namespace aqsim;

namespace
{

engine::RunResult
runScaled(const std::string &workload, std::size_t nodes,
          const std::string &policy, double scale,
          bool timeline = false)
{
    harness::ExperimentConfig config;
    config.workload = workload;
    config.numNodes = nodes;
    config.scale = scale;
    config.policySpec = policy;
    config.engine.recordTimeline = timeline;
    return harness::runExperiment(config).result;
}

} // namespace

TEST(ScaleOut, SixtyFourNodeEpCompletes)
{
    auto result = runScaled("nas.ep", 64, "dyn:1.05:0.02:1us:1000us",
                            2.0);
    EXPECT_GT(result.simTicks, 0u);
    EXPECT_EQ(result.finishTicks.size(), 64u);
    for (Tick t : result.finishTicks)
        EXPECT_GT(t, 0u);
}

TEST(ScaleOut, SixtyFourNodeIsCompletesConservatively)
{
    auto result = runScaled("nas.is", 64, "fixed:1us", 0.25);
    EXPECT_EQ(result.stragglers, 0u);
    EXPECT_GT(result.packets, 1000u); // dense alltoall traffic
}

TEST(ScaleOut, ThirtyTwoNodeCollectiveHeavyRun)
{
    auto result = runScaled("burst", 32, "dyn:1.03:0.02:1us:1000us",
                            0.5);
    EXPECT_GT(result.simTicks, 0u);
    EXPECT_GT(result.quanta, 10u);
}

TEST(ScaleOut, StragglerFractionGrowsWithNodeCount)
{
    // Fig. 6 reasoning: "more nodes imply more communication and
    // hence more stragglers in larger quanta scenarios".
    const auto n4 = runScaled("nas.cg", 4, "fixed:1000us", 0.25);
    const auto n16 = runScaled("nas.cg", 16, "fixed:1000us", 0.25);
    EXPECT_GT(n16.stragglerFraction(), n4.stragglerFraction() * 0.8);
    EXPECT_GT(n16.stragglers, n4.stragglers);
}

TEST(SpeedBump, QuantumCollapsesWithinThreeQuantaOfTraffic)
{
    // The paper: dec near 1/sqrt(maxQ) "forces a dramatic reduction
    // of the quantum duration in just two or three quanta at most".
    // Verify on the recorded timeline of a bursty run: after any
    // quantum with traffic, the quantum returns to within 2x of the
    // minimum within 3 steps.
    auto result = runScaled("burst", 8, "dyn:1.05:0.02:1us:1000us",
                            2.0, true);
    const auto &timeline = result.timeline;
    ASSERT_GT(timeline.size(), 10u);
    for (std::size_t i = 0; i + 3 < timeline.size(); ++i) {
        if (timeline[i].packets == 0)
            continue;
        // Find the quantum length three steps later; unless traffic
        // continues, it must be near the minimum.
        bool still_traffic = false;
        for (std::size_t j = i + 1; j <= i + 3; ++j)
            still_traffic |= timeline[j].packets > 0;
        if (still_traffic)
            continue;
        EXPECT_LE(timeline[i + 3].length, microseconds(2))
            << "quantum failed to collapse after traffic at index "
            << i;
    }
}

TEST(SpeedBump, QuantumGrowthIsMonotoneThroughSilence)
{
    auto result = runScaled("nas.ep", 4, "dyn:1.05:0.02:1us:1000us",
                            1.0, true);
    const auto &timeline = result.timeline;
    // Within any run of consecutive zero-packet quanta, lengths never
    // decrease.
    for (std::size_t i = 1; i < timeline.size(); ++i) {
        if (timeline[i - 1].packets == 0 &&
            timeline[i - 1].length < microseconds(1000)) {
            EXPECT_GE(timeline[i].length, timeline[i - 1].length)
                << "shrank without traffic at index " << i;
        }
    }
}

TEST(CrossEngine, ConservativeSweepMatchesAcrossEngines)
{
    for (const char *workload : {"burst", "random"}) {
        for (std::size_t nodes : {2ul, 5ul, 8ul}) {
            auto wl_seq =
                workloads::makeWorkload(workload, nodes, 0.05);
            auto pol_seq = core::parsePolicy("fixed:1us");
            auto params = harness::defaultCluster(nodes, 3);
            engine::SequentialEngine seq;
            auto a = seq.run(params, *wl_seq, *pol_seq);

            auto wl_thr =
                workloads::makeWorkload(workload, nodes, 0.05);
            auto pol_thr = core::parsePolicy("fixed:1us");
            engine::ThreadedEngine thr;
            auto b = thr.run(params, *wl_thr, *pol_thr);

            EXPECT_EQ(a.simTicks, b.simTicks)
                << workload << " n=" << nodes;
            EXPECT_EQ(a.packets, b.packets)
                << workload << " n=" << nodes;
            EXPECT_EQ(a.finishTicks, b.finishTicks)
                << workload << " n=" << nodes;
        }
    }
}

TEST(CrossEngine, ThreadedSixteenNodesNonConservative)
{
    auto wl = workloads::makeWorkload("burst", 16, 0.1);
    auto pol = core::parsePolicy("dyn:1.05:0.02:1us:500us");
    auto params = harness::defaultCluster(16, 1);
    engine::ThreadedEngine engine;
    auto result = engine.run(params, *wl, *pol);
    EXPECT_GT(result.simTicks, 0u);
    for (Tick t : result.finishTicks)
        EXPECT_GT(t, 0u);
}

TEST(ProblemClass, ScaleMappingMatchesConvention)
{
    EXPECT_DOUBLE_EQ(workloads::scaleForClass('A'), 1.0);
    EXPECT_DOUBLE_EQ(workloads::scaleForClass('a'), 1.0);
    EXPECT_LT(workloads::scaleForClass('S'),
              workloads::scaleForClass('W'));
    EXPECT_LT(workloads::scaleForClass('W'),
              workloads::scaleForClass('A'));
    EXPECT_LT(workloads::scaleForClass('A'),
              workloads::scaleForClass('B'));
    EXPECT_EXIT(workloads::scaleForClass('Z'),
                ::testing::ExitedWithCode(1), "unknown problem class");
}

TEST(UmbrellaHeader, ProvidesTheFullPublicApi)
{
    // Compile-time check mostly; spot-check a few symbols resolve.
    core::AdaptiveQuantumPolicy policy({});
    EXPECT_EQ(policy.initialQuantum(), microseconds(1));
    net::TopologyParams topo;
    EXPECT_EQ(net::topologyName(topo.kind), "star");
    EXPECT_EQ(harness::groundTruthSpec, std::string("fixed:1us"));
}
