/**
 * Construction-time validation tests: every nonsensical synchronizer,
 * engine, MPI, or fault configuration must be rejected with a clear
 * fatal error instead of silently misbehaving mid-run.
 */

#include <gtest/gtest.h>

#include "core/quantum_policy.hh"
#include "engine/threaded_engine.hh"
#include "engine/worker_pool.hh"
#include "fault/fault_injector.hh"
#include "test_util.hh"

using namespace aqsim;
using ::testing::ExitedWithCode;

TEST(PolicyValidation, ZeroTickFixedQuantumIsRejected)
{
    EXPECT_EXIT(core::FixedQuantumPolicy policy(0), ExitedWithCode(1),
                "fixed quantum must be positive");
    EXPECT_EXIT(core::parsePolicy("fixed:0us"), ExitedWithCode(1),
                "fixed quantum must be positive");
}

TEST(PolicyValidation, AdaptiveMinAboveMaxIsRejected)
{
    core::AdaptiveQuantumPolicy::Params params;
    params.minQuantum = microseconds(10);
    params.maxQuantum = microseconds(1);
    EXPECT_EXIT(core::AdaptiveQuantumPolicy policy(params),
                ExitedWithCode(1), "0 < min_Q <= max_Q");
}

TEST(PolicyValidation, AdaptiveZeroMinQuantumIsRejected)
{
    core::AdaptiveQuantumPolicy::Params params;
    params.minQuantum = 0;
    EXPECT_EXIT(core::AdaptiveQuantumPolicy policy(params),
                ExitedWithCode(1), "0 < min_Q <= max_Q");
}

TEST(PolicyValidation, AdaptiveIncreaseFactorAtOrBelowOneIsRejected)
{
    core::AdaptiveQuantumPolicy::Params params;
    params.inc = 1.0;
    EXPECT_EXIT(core::AdaptiveQuantumPolicy policy(params),
                ExitedWithCode(1), "increase factor must be > 1");
}

TEST(PolicyValidation, AdaptiveDecreaseFactorAtOrAboveOneIsRejected)
{
    core::AdaptiveQuantumPolicy::Params params;
    params.dec = 1.0;
    EXPECT_EXIT(core::AdaptiveQuantumPolicy policy(params),
                ExitedWithCode(1), "decrease factor must be in");
}

TEST(PolicyValidation, ThresholdPolicyValidatesItsBaseParams)
{
    core::ThresholdAdaptivePolicy::Params params;
    params.base.minQuantum = microseconds(5);
    params.base.maxQuantum = microseconds(1);
    EXPECT_EXIT(core::ThresholdAdaptivePolicy policy(params),
                ExitedWithCode(1),
                "threshold policy requires 0 < min_Q <= max_Q");
    params = {};
    params.base.dec = 2.0;
    EXPECT_EXIT(core::ThresholdAdaptivePolicy policy(params),
                ExitedWithCode(1),
                "threshold policy decrease factor");
}

TEST(PolicyValidation, SymmetricPolicyNeedsFactorAboveOne)
{
    core::AdaptiveQuantumPolicy::Params params;
    params.inc = 0.9;
    EXPECT_EXIT(core::SymmetricAdaptivePolicy policy(params),
                ExitedWithCode(1), "symmetric policy factor must be > 1");
}

TEST(PolicyValidation, UnknownPolicySpecIsRejected)
{
    EXPECT_EXIT(core::parsePolicy("bogus:1:2"), ExitedWithCode(1),
                "unknown policy kind");
}

TEST(WorkerPoolValidation, ZeroWorkersIsRejected)
{
    EXPECT_EXIT(engine::WorkerPool pool(0, [](std::size_t, Tick) {}),
                ExitedWithCode(1), "at least one worker");
}

TEST(EngineOptionsValidation, ThreadedEngineRejectsDeferredStragglers)
{
    engine::EngineOptions options;
    options.stragglerPolicy = engine::StragglerPolicy::DeferToNextQuantum;
    EXPECT_EXIT(engine::ThreadedEngine engine(options), ExitedWithCode(1),
                "stragglerPolicy = DeferToNextQuantum is not supported "
                "by the threaded engine");
}

namespace
{

/** Build a cluster (endpoint construction validates MPI params). */
void
buildCluster(engine::ClusterParams params)
{
    test::LambdaWorkload workload(
        [](workloads::AppContext &) -> sim::Process { co_return; });
    engine::Cluster cluster(params, workload);
}

} // namespace

TEST(ReliableParamValidation, ZeroRetryTimeoutIsRejected)
{
    auto params = harness::defaultCluster(2);
    params.mpiParams.reliable = true;
    params.mpiParams.retryTimeout = 0;
    EXPECT_EXIT(buildCluster(params), ExitedWithCode(1),
                "retryTimeout > 0");
}

TEST(ReliableParamValidation, ShrinkingBackoffIsRejected)
{
    auto params = harness::defaultCluster(2);
    params.mpiParams.reliable = true;
    params.mpiParams.retryBackoff = 0.5;
    EXPECT_EXIT(buildCluster(params), ExitedWithCode(1),
                "retryBackoff must be >= 1.0");
}

TEST(ReliableParamValidation, ZeroMaxRetriesIsRejected)
{
    auto params = harness::defaultCluster(2);
    params.mpiParams.reliable = true;
    params.mpiParams.maxRetries = 0;
    EXPECT_EXIT(buildCluster(params), ExitedWithCode(1),
                "maxRetries >= 1");
}

namespace
{

void
buildInjector(const fault::FaultParams &params)
{
    stats::Group root("cluster");
    fault::FaultInjector injector(4, params, Rng(1), root);
}

} // namespace

TEST(FaultParamValidation, RatesOutsideUnitIntervalAreRejected)
{
    fault::FaultParams params;
    params.dropRate = 1.5;
    EXPECT_EXIT(buildInjector(params), ExitedWithCode(1),
                "rate must be in \\[0,1\\]");
    params = {};
    params.duplicateRate = -0.1;
    EXPECT_EXIT(buildInjector(params), ExitedWithCode(1),
                "rate must be in \\[0,1\\]");
}

TEST(FaultParamValidation, JitterRateNeedsAPositiveMaxJitter)
{
    fault::FaultParams params;
    params.jitterRate = 0.5;
    params.maxJitterTicks = 0;
    EXPECT_EXIT(buildInjector(params), ExitedWithCode(1),
                "needs a positive max jitter");
}

TEST(FaultParamValidation, SelfLinkAndUnknownNodesAreRejected)
{
    fault::FaultParams params;
    params.linkDown.push_back({1, 1, 0, 100});
    EXPECT_EXIT(buildInjector(params), ExitedWithCode(1),
                "invalid link");
    params = {};
    params.linkDown.push_back({0, 9, 0, 100});
    EXPECT_EXIT(buildInjector(params), ExitedWithCode(1),
                "invalid link");
    params = {};
    params.nodeCrash.push_back({9, 0, 100});
    EXPECT_EXIT(buildInjector(params), ExitedWithCode(1),
                "invalid node");
}

TEST(FaultParamValidation, EmptyWindowsAreRejected)
{
    fault::FaultParams params;
    params.linkDown.push_back({0, 1, 500, 500});
    EXPECT_EXIT(buildInjector(params), ExitedWithCode(1),
                "is empty");
    params = {};
    params.nodePause.push_back({0, 700, 600});
    EXPECT_EXIT(buildInjector(params), ExitedWithCode(1),
                "is empty");
}
