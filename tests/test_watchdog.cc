/**
 * Tests for the engine watchdog: it must stay silent while quanta make
 * progress and convert a hung run into a failed one with a diagnostic
 * dump.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>

#include "engine/threaded_engine.hh"
#include "engine/watchdog.hh"
#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::workloads;
using test::runLambdaCluster;
using test::runLambda;

TEST(Watchdog, CountsKicksAndDisarmsCleanly)
{
    engine::Watchdog dog(30.0, [] { return engine::PanicInfo{}; });
    EXPECT_EQ(dog.kicks(), 0u);
    dog.kick();
    dog.kick();
    dog.kick();
    EXPECT_EQ(dog.kicks(), 3u);
    // Destructor disarms and joins without the deadline elapsing.
}

TEST(Watchdog, RegularKicksKeepItQuietPastTheDeadline)
{
    engine::Watchdog dog(0.25, [] { return engine::PanicInfo{}; });
    // Kick well past several deadline periods; each kick rearms the
    // timer so the watchdog never fires.
    for (int i = 0; i < 12; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        dog.kick();
    }
    EXPECT_EQ(dog.kicks(), 12u);
}

TEST(WatchdogDeath, FiresWithTheDiagnosticDumpWhenStarved)
{
    EXPECT_DEATH(
        {
            engine::Watchdog dog(0.05, [] {
                engine::PanicInfo info;
                info.progress = "per-node progress dump";
                return info;
            });
            std::this_thread::sleep_for(std::chrono::seconds(5));
        },
        "per-node progress dump");
}

TEST(Watchdog, PanicHandlerReceivesStructuredInfoInsteadOfDying)
{
    // Supervised shape: the first expiry hands the structured
    // PanicInfo to the handler; the process survives. Regression for
    // the old string-only dump, which lost the quantum window and
    // per-node progress whenever no checkpoint directory (and hence
    // no panic-image note) was configured.
    std::promise<engine::PanicInfo> fired;
    auto dog = std::make_unique<engine::Watchdog>(
        0.05,
        [] {
            engine::PanicInfo info;
            info.quantumStart = 17;
            info.quantumEnd = 42;
            info.progress = "  node 1: wedged\n";
            // No note: checkpointing is not configured.
            return info;
        },
        [&fired](const engine::PanicInfo &info) {
            fired.set_value(info);
        });
    auto future = fired.get_future();
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    const engine::PanicInfo info = future.get();
    dog.reset();
    EXPECT_DOUBLE_EQ(info.deadlineSeconds, 0.05);
    EXPECT_EQ(info.quantaCompleted, 0u);
    EXPECT_EQ(info.quantumStart, 17u);
    EXPECT_EQ(info.quantumEnd, 42u);
    EXPECT_EQ(info.progress, "  node 1: wedged\n");
    // The formatted dump carries the same context.
    EXPECT_NE(info.format().find("quantum [17,42)"), std::string::npos);
    EXPECT_NE(info.format().find("node 1: wedged"), std::string::npos);
}

TEST(WatchdogDeath, SecondExpiryAfterHandlerStillHardPanics)
{
    // A handler that fails to unwedge the run must not convert a
    // detected hang into a silent one: the next full deadline with no
    // progress falls through to the classic panic.
    EXPECT_DEATH(
        {
            engine::Watchdog dog(
                0.05,
                [] {
                    engine::PanicInfo info;
                    info.progress = "still wedged";
                    return info;
                },
                [](const engine::PanicInfo &) { /* does nothing */ });
            std::this_thread::sleep_for(std::chrono::seconds(5));
        },
        "watchdog: no quantum completed.*still wedged");
}

TEST(Watchdog, ArmedWatchdogDoesNotPerturbAHealthyRun)
{
    engine::EngineOptions plain;
    engine::EngineOptions watched;
    watched.watchdogSeconds = 30.0;
    const auto a = runLambda(
        2,
        [](AppContext &ctx) -> sim::Process {
            if (ctx.rank() == 0)
                co_await ctx.comm().send(1, 1, 4096);
            else
                co_await ctx.comm().recv(0, 1);
        },
        "fixed:1us", plain);
    const auto b = runLambda(
        2,
        [](AppContext &ctx) -> sim::Process {
            if (ctx.rank() == 0)
                co_await ctx.comm().send(1, 1, 4096);
            else
                co_await ctx.comm().recv(0, 1);
        },
        "fixed:1us", watched);
    EXPECT_EQ(a.simTicks, b.simTicks);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.finishTicks, b.finishTicks);
}

namespace
{

/**
 * A run that wedges mid-quantum: rank 0's only frame is swallowed by
 * a 100%-loss network (no reliability, so no retransmit timer) while
 * rank 1 busy-polls at a single tick for the message that will never
 * come. The quantum can never finish, and only the watchdog can see
 * that.
 */
sim::Process
lostAckPollLoop(AppContext &ctx)
{
    if (ctx.rank() == 0) {
        co_await ctx.comm().send(1, 1, 64);
    } else {
        while (ctx.comm().messagesReceived() == 0)
            co_await ctx.delay(0);
    }
}

engine::ClusterParams
blackholeParams()
{
    auto params = harness::defaultCluster(2, 1);
    params.faults.dropRate = 1.0;
    params.mpiParams.reliable = false;
    return params;
}

} // namespace

TEST(WatchdogDeath, SequentialEngineHangBecomesAFailedRun)
{
    engine::EngineOptions options;
    options.watchdogSeconds = 0.3;
    EXPECT_DEATH(runLambdaCluster(blackholeParams(), lostAckPollLoop,
                                  "fixed:1us", options),
                 "watchdog: no quantum completed");
}

TEST(WatchdogDeath, ThreadedEngineHangBecomesAFailedRun)
{
    engine::EngineOptions options;
    options.watchdogSeconds = 0.3;
    options.numWorkers = 2;
    auto params = blackholeParams();
    test::LambdaWorkload workload(lostAckPollLoop);
    auto policy = core::parsePolicy("fixed:1us");
    EXPECT_DEATH(
        {
            engine::ThreadedEngine engine(options);
            engine.run(params, workload, *policy);
        },
        "watchdog: no quantum completed");
}

TEST(WatchdogDeath, ReusedEngineDiesWithTheHungRunsDump)
{
    // Each run owns its watchdog: a healthy first run on a reused
    // engine leaves nothing behind, and the second run's hang dumps
    // the second run's cluster (two nodes, one dropped frame).
    engine::EngineOptions options;
    options.watchdogSeconds = 0.3;
    EXPECT_DEATH(
        {
            engine::SequentialEngine engine(options);
            test::LambdaWorkload healthy([](AppContext &ctx)
                                             -> sim::Process {
                if (ctx.rank() == 0)
                    co_await ctx.comm().send(1, 1, 4096);
                else if (ctx.rank() == 1)
                    co_await ctx.comm().recv(0, 1);
            });
            auto first_policy = core::parsePolicy("fixed:1us");
            engine.run(harness::defaultCluster(4, 1), healthy,
                       *first_policy);
            test::LambdaWorkload hung(lostAckPollLoop);
            auto second_policy = core::parsePolicy("fixed:1us");
            engine.run(blackholeParams(), hung, *second_policy);
        },
        "watchdog: no quantum completed.*node1:.*faults: dropped=1 ");
}
