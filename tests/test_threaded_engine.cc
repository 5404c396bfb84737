/**
 * Tests for the real-parallel ThreadedEngine, including the
 * cross-engine determinism contract: with conservative quanta
 * (Q <= T) its simulated results are bit-identical to the
 * SequentialEngine's.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "engine/threaded_engine.hh"
#include "workloads/synthetic.hh"
#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::workloads;
using test::LambdaWorkload;

namespace
{

engine::RunResult
runThreaded(const std::string &workload, std::size_t nodes,
            const std::string &policy, double scale = 0.05)
{
    auto wl = workloads::makeWorkload(workload, nodes, scale);
    auto pol = core::parsePolicy(policy);
    auto params = harness::defaultCluster(nodes, 1);
    engine::ThreadedEngine engine;
    return engine.run(params, *wl, *pol);
}

engine::RunResult
runSequential(const std::string &workload, std::size_t nodes,
              const std::string &policy, double scale = 0.05)
{
    auto wl = workloads::makeWorkload(workload, nodes, scale);
    auto pol = core::parsePolicy(policy);
    auto params = harness::defaultCluster(nodes, 1);
    engine::SequentialEngine engine;
    return engine.run(params, *wl, *pol);
}

} // namespace

TEST(ThreadedEngine, RunsPingPongToCompletion)
{
    auto result = runThreaded("pingpong", 2, "fixed:1us");
    EXPECT_GT(result.simTicks, 0u);
    EXPECT_GT(result.hostNs, 0.0);
    EXPECT_EQ(result.engine, "threaded");
    EXPECT_EQ(result.stragglers, 0u);
}

TEST(ThreadedEngine, PingPongRoundtripMatchesAtFourWorkers)
{
    // Each pinging rank keeps its roundtrips in its own slot, written
    // only by the worker running it; the mean sums the slots. Four
    // workers running the pingers of 8 ranks must report exactly the
    // one-worker figures.
    const auto run = [](std::size_t workers) {
        PingPong workload(8, 0.2);
        auto policy = core::parsePolicy("fixed:1us");
        auto params = harness::defaultCluster(8, 1);
        engine::EngineOptions options;
        options.numWorkers = workers;
        engine::ThreadedEngine engine(options);
        const auto result = engine.run(params, workload, *policy);
        return std::make_pair(result, workload.meanRoundtripTicks());
    };
    const auto [one, one_roundtrip] = run(1);
    const auto [four, four_roundtrip] = run(4);
    EXPECT_GT(one_roundtrip, 0.0);
    EXPECT_EQ(four_roundtrip, one_roundtrip);
    EXPECT_EQ(four.metric, one.metric);
    EXPECT_EQ(four.simTicks, one.simTicks);
    EXPECT_EQ(four.finalStateHash, one.finalStateHash);
}

TEST(ThreadedEngine, ConservativeMatchesSequentialExactly)
{
    for (const char *workload : {"pingpong", "nas.ep", "nas.cg"}) {
        auto threaded = runThreaded(workload, 4, "fixed:1us");
        auto sequential = runSequential(workload, 4, "fixed:1us");
        EXPECT_EQ(threaded.simTicks, sequential.simTicks) << workload;
        EXPECT_EQ(threaded.packets, sequential.packets) << workload;
        EXPECT_EQ(threaded.finishTicks, sequential.finishTicks)
            << workload;
        EXPECT_EQ(threaded.stragglers, 0u) << workload;
    }
}

TEST(ThreadedEngine, ConservativeIsRunToRunDeterministic)
{
    auto a = runThreaded("nas.cg", 4, "fixed:1us");
    auto b = runThreaded("nas.cg", 4, "fixed:1us");
    EXPECT_EQ(a.simTicks, b.simTicks);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.finishTicks, b.finishTicks);
}

TEST(ThreadedEngine, SubLatencyQuantumAlsoMatches)
{
    auto threaded = runThreaded("pingpong", 2, "fixed:500ns");
    auto sequential = runSequential("pingpong", 2, "fixed:500ns");
    EXPECT_EQ(threaded.simTicks, sequential.simTicks);
}

TEST(ThreadedEngine, NonConservativeStillDeliversEverything)
{
    // With Q > T the threaded engine is racy (like the paper's real
    // system) but must remain functionally correct: every message
    // delivered, run completes.
    std::atomic<int> received{0};
    constexpr int msgs = 30;
    LambdaWorkload workload([&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            for (int i = 0; i < msgs; ++i)
                co_await ctx.comm().send(1, 1, 256);
        } else {
            for (int i = 0; i < msgs; ++i) {
                co_await ctx.comm().recv(0, 1);
                ++received;
            }
        }
    });
    auto pol = core::parsePolicy("fixed:50us");
    auto params = harness::defaultCluster(2, 1);
    engine::ThreadedEngine engine;
    auto result = engine.run(params, workload, *pol);
    EXPECT_EQ(received.load(), msgs);
    EXPECT_GT(result.simTicks, 0u);
}

TEST(ThreadedEngine, AdaptivePolicyCompletes)
{
    auto result =
        runThreaded("burst", 4, "dyn:1.05:0.02:1us:1000us", 0.2);
    EXPECT_GT(result.simTicks, 0u);
    EXPECT_GT(result.quanta, 0u);
}

TEST(ThreadedEngine, EightNodeCollectivesComplete)
{
    auto result = runThreaded("nas.mg", 8, "fixed:1us", 0.02);
    EXPECT_GT(result.simTicks, 0u);
    for (Tick t : result.finishTicks)
        EXPECT_GT(t, 0u);
}

TEST(ThreadedEngine, DeadlockDetectedAcrossThreads)
{
    LambdaWorkload workload([](AppContext &ctx) -> sim::Process {
        // Everyone waits forever.
        co_await ctx.comm().recv(
            static_cast<int>((ctx.rank() + 1) % ctx.numRanks()), 1);
    });
    auto pol = core::parsePolicy("fixed:10us");
    auto params = harness::defaultCluster(2, 1);
    engine::ThreadedEngine engine;
    EXPECT_DEATH(engine.run(params, workload, *pol), "deadlock");
}

TEST(ThreadedEngine, WallClockIsMeasuredNotModeled)
{
    auto result = runThreaded("pingpong", 2, "fixed:10us");
    // Measured host time is positive and sane (< 60 s).
    EXPECT_GT(result.hostNs, 0.0);
    EXPECT_LT(result.hostNs, 60e9);
}
