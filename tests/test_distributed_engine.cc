/**
 * Multi-process DistributedEngine tests: the cross-engine determinism
 * contract ({2,4} worker processes x {clean, 5% loss + reliable}
 * bit-identical to the SequentialEngine, including finalStateHash),
 * the peer-failure matrix (SIGKILL at first/mid/last-1 quantum,
 * SIGSTOP heartbeat loss, exit-before-hello) as structured
 * deadline-bounded failures, supervisor-driven recovery with
 * peer-failure/peer-recovery incidents, checkpoint-restore recovery
 * (also from a peer killed inside a checkpoint gather's merge),
 * checkpoint images byte-equal to the threaded engine's, cross-shard
 * pingpong, and the watchdog's per-peer liveness dump.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "ckpt/checkpoint.hh"
#include "ckpt/ckpt_io.hh"
#include "engine/distributed_engine.hh"
#include "engine/threaded_engine.hh"
#include "supervise/run_supervisor.hh"
#include "test_util.hh"

using namespace aqsim;

namespace
{

/** Cluster configurations of the recovery matrix. */
engine::ClusterParams
configParams(const std::string &config)
{
    auto params = harness::defaultCluster(4, 7);
    if (config == "lossy") {
        params.faults.dropRate = 0.05;
        params.mpiParams.reliable = true;
    }
    return params;
}

engine::RunResult
runSequential(const engine::ClusterParams &params)
{
    auto workload = workloads::makeWorkload("burst", params.numNodes,
                                            0.05);
    auto policy = core::parsePolicy("fixed:1us");
    engine::SequentialEngine engine;
    return engine.run(params, *workload, *policy);
}

/** Run @p workload_name on @p engine under fixed:1us. */
template <typename Engine>
engine::RunResult
runNamed(Engine &&engine, const std::string &workload_name,
         std::size_t nodes, double scale)
{
    const auto params = harness::defaultCluster(nodes, 7);
    auto workload = workloads::makeWorkload(workload_name, nodes, scale);
    auto policy = core::parsePolicy("fixed:1us");
    return engine.run(params, *workload, *policy);
}

/** Decode the checkpoint a run wrote at @p quantum into @p dir. */
ckpt::CheckpointImage
readImage(const std::string &dir, std::uint64_t quantum)
{
    char name[64];
    std::snprintf(name, sizeof(name), "/ckpt-q%012llu.aqc",
                  static_cast<unsigned long long>(quantum));
    std::vector<std::uint8_t> raw;
    ckpt::CkptError error;
    ckpt::CheckpointImage image;
    EXPECT_TRUE(ckpt::readFile(dir + name, raw, error)) << dir + name;
    EXPECT_TRUE(ckpt::decodeImage(raw, image, error)) << error.str();
    return image;
}

engine::RunResult
runDistributed(const engine::ClusterParams &params,
               engine::EngineOptions options)
{
    auto workload = workloads::makeWorkload("burst", params.numNodes,
                                            0.05);
    auto policy = core::parsePolicy("fixed:1us");
    engine::DistributedEngine engine(options);
    return engine.run(params, *workload, *policy);
}

/** The determinism contract: every simulated field matches the
 * sequential ground truth (host wall time may not). */
void
expectMatchesSequential(const engine::RunResult &dist,
                        const engine::RunResult &seq,
                        const std::string &what)
{
    EXPECT_EQ(dist.simTicks, seq.simTicks) << what;
    EXPECT_EQ(dist.quanta, seq.quanta) << what;
    EXPECT_EQ(dist.packets, seq.packets) << what;
    EXPECT_EQ(dist.stragglers, seq.stragglers) << what;
    EXPECT_EQ(dist.droppedFrames, seq.droppedFrames) << what;
    EXPECT_EQ(dist.retransmits, seq.retransmits) << what;
    EXPECT_EQ(dist.finishTicks, seq.finishTicks) << what;
    EXPECT_DOUBLE_EQ(dist.metric, seq.metric) << what;
    EXPECT_EQ(dist.finalStateHash, seq.finalStateHash) << what;
}

engine::EngineOptions
distOptions(std::size_t workers)
{
    engine::EngineOptions options;
    options.numWorkers = workers;
    // Tests run on one host: seconds-scale deadlines keep the failure
    // cases fast while leaving honest-path headroom.
    options.peerDeadlineSeconds = 5.0;
    options.heartbeatSeconds = 0.05;
    return options;
}

std::string
scratchDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("aqsim_distributed_" + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** Supervised distributed run of the burst workload. */
engine::RunResult
runSupervised(const engine::ClusterParams &params,
              const engine::EngineOptions &options,
              supervise::RunSupervisor &supervisor)
{
    auto workload = workloads::makeWorkload("burst", params.numNodes,
                                            0.05);
    auto policy = core::parsePolicy("fixed:1us");
    supervise::RunRequest request;
    request.engineKind = supervise::EngineKind::Distributed;
    request.engine = options;
    request.cluster = params;
    request.workload = workload.get();
    request.policy = policy.get();
    return supervisor.run(request);
}

supervise::SuperviseOptions
testSupervision()
{
    supervise::SuperviseOptions sup;
    sup.enabled = true;
    sup.backoffBaseSeconds = 0.0; // tests never sleep
    return sup;
}

} // namespace

TEST(DistributedEngine, MatchesSequentialBitForBit)
{
    for (const char *config : {"clean", "lossy"}) {
        const auto params = configParams(config);
        const auto seq = runSequential(params);
        ASSERT_GT(seq.quanta, 3u);
        for (std::size_t workers : {2u, 4u}) {
            const auto dist =
                runDistributed(params, distOptions(workers));
            EXPECT_EQ(dist.engine, "distributed");
            expectMatchesSequential(
                dist, seq,
                std::string(config) + "/" +
                    std::to_string(workers) + "w");
        }
    }
}

TEST(DistributedEngine, RunToRunDeterministic)
{
    const auto params = configParams("clean");
    const auto a = runDistributed(params, distOptions(4));
    const auto b = runDistributed(params, distOptions(4));
    EXPECT_EQ(a.finalStateHash, b.finalStateHash);
    EXPECT_EQ(a.finishTicks, b.finishTicks);
    EXPECT_EQ(a.quanta, b.quanta);
}

TEST(DistributedEngine, SinglePeerDegenerateCaseWorks)
{
    const auto params = configParams("clean");
    const auto seq = runSequential(params);
    const auto dist = runDistributed(params, distOptions(1));
    expectMatchesSequential(dist, seq, "1w");
}

TEST(DistributedEngineDeathTest, RejectsNonConservativePolicy)
{
    const auto params = configParams("clean");
    auto workload = workloads::makeWorkload("burst", params.numNodes,
                                            0.05);
    auto policy = core::parsePolicy("fixed:10us");
    engine::DistributedEngine engine(distOptions(2));
    EXPECT_DEATH(engine.run(params, *workload, *policy),
                 "conservative");
}

TEST(DistributedEngine, KilledPeerIsStructuredDisconnect)
{
    // SIGKILL mid-run, unsupervised: the coordinator must convert the
    // dead worker into RunAbort{peer-failure} naming the peer — and
    // do it via EOF, without waiting out any timeout.
    auto options = distOptions(2);
    options.peerDrillSpec = "kill:peer=1,quantum=2,phase=exchange";
    const auto params = configParams("clean");
    try {
        runDistributed(params, options);
        FAIL() << "expected RunAbort";
    } catch (const base::RunAbort &abort) {
        EXPECT_EQ(abort.cause(), "peer-failure");
        EXPECT_NE(abort.detail().find("peer 1"), std::string::npos)
            << abort.detail();
        EXPECT_NE(abort.detail().find("disconnected"),
                  std::string::npos)
            << abort.detail();
    }
}

TEST(DistributedEngine, StoppedPeerIsDeadlineBoundedHang)
{
    // SIGSTOP freezes the worker with its socket open: only the
    // heartbeat deadline can detect it, and the wait must be bounded.
    auto options = distOptions(4);
    options.peerDeadlineSeconds = 1.0;
    options.peerDrillSpec = "stop:peer=2,quantum=2,phase=ack";
    const auto params = configParams("clean");
    const auto start = std::chrono::steady_clock::now();
    try {
        runDistributed(params, options);
        FAIL() << "expected RunAbort";
    } catch (const base::RunAbort &abort) {
        EXPECT_EQ(abort.cause(), "peer-failure");
        EXPECT_NE(abort.detail().find("hung"), std::string::npos)
            << abort.detail();
        EXPECT_NE(abort.detail().find("peer 2"), std::string::npos)
            << abort.detail();
    }
    const double waited =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(waited, 30.0); // bounded, not a stuck barrier
}

TEST(DistributedEngine, PeerExitBeforeHelloIsDisconnect)
{
    // The half-open case: a worker vanishes before it ever speaks.
    auto options = distOptions(2);
    options.peerDrillSpec = "exit:peer=0,phase=hello";
    const auto params = configParams("clean");
    try {
        runDistributed(params, options);
        FAIL() << "expected RunAbort";
    } catch (const base::RunAbort &abort) {
        EXPECT_EQ(abort.cause(), "peer-failure");
        EXPECT_NE(abort.detail().find("hello"), std::string::npos)
            << abort.detail();
    }
}

TEST(DistributedEngine, SupervisorRecoversFromKilledPeerMatrix)
{
    // The acceptance matrix: kill a peer at the first, a middle, and
    // the next-to-last quantum; each supervised run must recover to a
    // final state bit-identical to the unsupervised sequential run.
    const auto params = configParams("lossy");
    const auto golden = runSequential(params);
    ASSERT_GT(golden.quanta, 3u);
    const std::uint64_t drill_quanta[] = {1, golden.quanta / 2,
                                          golden.quanta - 1};
    for (const std::uint64_t q : drill_quanta) {
        auto options = distOptions(4);
        options.peerDrillSpec =
            "kill:peer=1,quantum=" + std::to_string(q) +
            ",phase=exchange";
        supervise::RunSupervisor supervisor(testSupervision());
        const auto result =
            runSupervised(params, options, supervisor);
        expectMatchesSequential(result, golden,
                                "kill@" + std::to_string(q));
        EXPECT_EQ(result.superviseAttempts, 2u);
        EXPECT_EQ(result.superviseRecoveries, 1u);

        // Incident trail: a peer-failure retry, then a peer-recovery.
        const auto &incidents = supervisor.incidents().incidents();
        ASSERT_EQ(incidents.size(), 2u);
        EXPECT_EQ(incidents[0].cause, "peer-failure");
        EXPECT_EQ(incidents[0].outcome, "retry");
        EXPECT_NE(incidents[0].detail.find("peer 1"),
                  std::string::npos);
        EXPECT_EQ(incidents[1].cause, "peer-recovery");
        EXPECT_EQ(incidents[1].outcome, "recovered");
    }
}

TEST(DistributedEngine, SupervisorRecoversHungPeerViaCheckpoint)
{
    // SIGSTOP + checkpointing: the retry restores from the newest
    // good spliced checkpoint instead of replaying from scratch, and
    // still converges to the sequential final state.
    const auto params = configParams("clean");
    const auto golden = runSequential(params);
    auto options = distOptions(2);
    options.peerDeadlineSeconds = 1.0;
    options.checkpointEvery = 100;
    options.checkpointDir = scratchDir("ckpt_recover");
    const std::uint64_t mid = golden.quanta / 2;
    options.peerDrillSpec =
        "stop:peer=0,quantum=" + std::to_string(mid) + ",phase=ack";
    supervise::RunSupervisor supervisor(testSupervision());
    const auto result = runSupervised(params, options, supervisor);
    expectMatchesSequential(result, golden, "ckpt-recovery");
    EXPECT_EQ(result.superviseRecoveries, 1u);
    EXPECT_GT(result.restoredFromQuantum, 0u);
    std::filesystem::remove_all(options.checkpointDir);
}

TEST(DistributedEngine, PeerKilledInGatherMergeRecovers)
{
    // phase=ack on a checkpoint quantum fires inside the merge that
    // the gather's StateReq frame carries: the image at that quantum
    // is never written, and the retry restores the one before it.
    const auto params = configParams("lossy");
    const auto golden = runSequential(params);
    ASSERT_GT(golden.quanta, 200u);
    auto options = distOptions(2);
    options.checkpointEvery = 100;
    options.checkpointDir = scratchDir("ckpt_gather_kill");
    options.peerDrillSpec = "kill:peer=1,quantum=200,phase=ack";
    supervise::RunSupervisor supervisor(testSupervision());
    const auto result = runSupervised(params, options, supervisor);
    expectMatchesSequential(result, golden, "kill@gather");
    EXPECT_EQ(result.superviseRecoveries, 1u);
    EXPECT_EQ(result.restoredFromQuantum, 100u);
    const auto &incidents = supervisor.incidents().incidents();
    ASSERT_FALSE(incidents.empty());
    EXPECT_EQ(incidents[0].cause, "peer-failure");
    EXPECT_NE(incidents[0].detail.find("state gather"), std::string::npos)
        << incidents[0].detail;
    std::filesystem::remove_all(options.checkpointDir);
}

TEST(DistributedEngine, CheckpointRoundTripVerifies)
{
    // Write spliced checkpoints, then replay: the gathered image at
    // the golden quantum must match the file section by section.
    const auto params = configParams("clean");
    auto options = distOptions(2);
    options.checkpointEvery = 100;
    options.checkpointDir = scratchDir("ckpt_verify");
    const auto first = runDistributed(params, options);
    EXPECT_GT(first.checkpointsWritten, 0u);

    engine::EngineOptions replay = distOptions(2);
    replay.restorePath = options.checkpointDir;
    const auto second = runDistributed(params, replay);
    EXPECT_EQ(second.finalStateHash, first.finalStateHash);
    EXPECT_GT(second.restoredFromQuantum, 0u);
    std::filesystem::remove_all(options.checkpointDir);
}

TEST(DistributedEngine, CheckpointImagesEqualThreadedEngine)
{
    // Every spliced image — engine section included — must be the
    // threaded engine's image at the same quantum, byte for byte: the
    // pending delivery runs are flushed and merged before each gather,
    // and the merge totals come back in the State frames.
    engine::EngineOptions ck;
    ck.checkpointEvery = 200;
    ck.checkpointKeepLast = 0;
    ck.numWorkers = 2;
    ck.checkpointDir = scratchDir("xengine_thr");
    const auto thr = runNamed(engine::ThreadedEngine(ck), "nas.cg", 64,
                              0.5);
    ASSERT_GT(thr.checkpointsWritten, 2u);
    for (std::size_t workers : {2u, 4u}) {
        auto options = distOptions(workers);
        options.checkpointEvery = ck.checkpointEvery;
        options.checkpointKeepLast = 0;
        options.checkpointDir =
            scratchDir("xengine_dist" + std::to_string(workers));
        const auto dist = runNamed(engine::DistributedEngine(options),
                                   "nas.cg", 64, 0.5);
        ASSERT_EQ(dist.quanta, thr.quanta);
        ASSERT_EQ(dist.checkpointsWritten, thr.checkpointsWritten);
        for (std::uint64_t q = ck.checkpointEvery; q <= dist.quanta;
             q += ck.checkpointEvery) {
            const auto a = readImage(ck.checkpointDir, q);
            const auto b = readImage(options.checkpointDir, q);
            ASSERT_EQ(a.sections.size(), b.sections.size()) << q;
            for (std::size_t i = 0; i < a.sections.size(); ++i) {
                EXPECT_EQ(a.sections[i].name, b.sections[i].name);
                EXPECT_EQ(a.sections[i].body, b.sections[i].body)
                    << workers << "w q=" << q << " "
                    << a.sections[i].name;
            }
            EXPECT_EQ(a.stateHash, b.stateHash) << q;
        }
        std::filesystem::remove_all(options.checkpointDir);
    }
    std::filesystem::remove_all(ck.checkpointDir);
}

TEST(DistributedEngine, CrossShardPingpongMatchesSequential)
{
    // One node per shard: between a send and its receive, the only
    // pending work is a packet in flight from one shard to another,
    // so the folded progress flags must count cross-shard runs.
    for (std::size_t nodes : {2u, 4u}) {
        const auto seq =
            runNamed(engine::SequentialEngine(), "pingpong", nodes, 0.2);
        ASSERT_GT(seq.quanta, 3u);
        const auto dist =
            runNamed(engine::DistributedEngine(distOptions(nodes)),
                     "pingpong", nodes, 0.2);
        expectMatchesSequential(dist, seq,
                                "pingpong/" + std::to_string(nodes));
    }
}

TEST(DistributedEngine, WatchdogDumpCarriesPeerLiveness)
{
    // The injected watchdog-panic drill exercises the distributed
    // panic path: the dump must carry per-peer liveness (the replica
    // has no meaningful per-node progress to report).
    const auto params = configParams("clean");
    const auto golden = runSequential(params);
    auto sup_options = testSupervision();
    supervise::InjectedFailure inject;
    inject.attempt = 1;
    inject.afterQuantum = 2;
    inject.watchdog = true;
    sup_options.injectFailures.push_back(inject);
    supervise::RunSupervisor supervisor(sup_options);
    auto options = distOptions(2);
    options.watchdogSeconds = 30.0;
    const auto result = runSupervised(params, options, supervisor);
    expectMatchesSequential(result, golden, "watchdog");
    ASSERT_TRUE(supervisor.sawPanic());
    const auto info = supervisor.lastPanic();
    EXPECT_NE(info.peers.find("peer 0"), std::string::npos)
        << info.peers;
    EXPECT_NE(info.peers.find("phase="), std::string::npos)
        << info.peers;
}

TEST(DistributedEngine, HarnessRoutesDistributedRuns)
{
    harness::ExperimentConfig config;
    config.workload = "burst";
    config.numNodes = 4;
    config.scale = 0.05;
    config.policySpec = "fixed:1us";
    config.engineKind = supervise::EngineKind::Distributed;
    config.engine = distOptions(2);
    const auto out = harness::runExperiment(config);
    EXPECT_EQ(out.result.engine, "distributed");
    EXPECT_GT(out.result.simTicks, 0u);
}
