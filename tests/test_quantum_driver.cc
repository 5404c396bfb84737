/**
 * QuantumDriver lifecycle tests: the run lifecycle exists once, in the
 * driver, so its budget guards must fire identically on every engine's
 * executor.
 */

#include <gtest/gtest.h>

#include <string>

#include "engine/distributed_engine.hh"
#include "engine/threaded_engine.hh"
#include "test_util.hh"

using namespace aqsim;

namespace
{

/** A 4-node burst run (466 quanta, 465 us simulated at fixed:1us). */
engine::RunResult
runBurst(const std::string &engine_name, engine::EngineOptions options)
{
    const auto params = harness::defaultCluster(4, 7);
    auto workload = workloads::makeWorkload("burst", params.numNodes,
                                            0.05);
    auto policy = core::parsePolicy("fixed:1us");
    options.numWorkers = 2;
    if (engine_name == "threaded")
        return engine::ThreadedEngine(options).run(params, *workload,
                                                   *policy);
    if (engine_name == "distributed")
        return engine::DistributedEngine(options).run(params, *workload,
                                                      *policy);
    return engine::SequentialEngine(options).run(params, *workload,
                                                 *policy);
}

class DriverGuards : public ::testing::TestWithParam<std::string>
{};

TEST_P(DriverGuards, MaxQuantaAborts)
{
    engine::EngineOptions options;
    options.maxQuanta = 50;
    EXPECT_EXIT(runBurst(GetParam(), options),
                ::testing::ExitedWithCode(1),
                "quantum budget exceeded \\(50\\)");
}

TEST_P(DriverGuards, MaxSimTicksAborts)
{
    engine::EngineOptions options;
    options.maxSimTicks = microseconds(50);
    EXPECT_EXIT(runBurst(GetParam(), options),
                ::testing::ExitedWithCode(1),
                "simulated time budget exceeded");
}

TEST_P(DriverGuards, BoundsAreInclusive)
{
    engine::EngineOptions options;
    options.maxQuanta = 466;
    options.maxSimTicks = microseconds(466);
    const engine::RunResult result = runBurst(GetParam(), options);
    EXPECT_EQ(result.quanta, 466u);
    EXPECT_EQ(result.engine, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Engines, DriverGuards,
                         ::testing::Values("sequential", "threaded",
                                           "distributed"),
                         [](const auto &info) { return info.param; });

} // namespace
