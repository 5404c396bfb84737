/**
 * Multi-process DistributedEngine tests: the cross-engine determinism
 * contract ({2,4} processes x {clean, 5% loss + reliable}
 * bit-identical to the SequentialEngine, including finalStateHash),
 * the peer-failure matrix (SIGKILL at first/mid/last-1 quantum,
 * SIGSTOP heartbeat loss, exit-before-hello) as structured
 * deadline-bounded failures, drills outside the forked peers
 * rejected, supervisor-driven recovery with
 * peer-failure/peer-recovery incidents, checkpoint-restore recovery
 * (also from a peer killed just before a checkpoint gather),
 * checkpoint images byte-equal to the threaded engine's, cross-shard
 * pingpong, Exchange frames larger than the socket send buffer, the
 * watchdog's per-peer liveness dump, and reaping a peer as soon as it
 * exits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ckpt/checkpoint.hh"
#include "ckpt/ckpt_io.hh"
#include "engine/distributed_engine.hh"
#include "engine/threaded_engine.hh"
#include "mpi/collectives.hh"
#include "mpi/packet_codec.hh"
#include "supervise/run_supervisor.hh"
#include "test_util.hh"
#include "transport/socket.hh"

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

TEST(DistributedEngineDeathTest, RejectsDrillOutsideTheForkedPeers)
{
    // Process 0 runs shard 0 and K workers fork peers 1..K-1 only: a
    // drill naming any other index could never fire.
    const auto params = configParams("clean");
    auto workload = workloads::makeWorkload("burst", params.numNodes,
                                            0.05);
    auto policy = core::parsePolicy("fixed:1us");
    for (const char *spec : {"kill:peer=7,quantum=3,phase=exchange",
                             "kill:peer=2,quantum=3,phase=exchange",
                             "exit:peer=0,phase=hello"}) {
        auto options = distOptions(2);
        options.peerDrillSpec = spec;
        engine::DistributedEngine engine(options);
        EXPECT_DEATH(engine.run(params, *workload, *policy),
                     "not one of the 1 forked peers")
            << spec;
    }
}

TEST(DistributedEngineDeathTest, SupervisorRefusesDrillBeforeItsFirstAttempt)
{
    // aqsim_cli ... --engine distributed --workers 2
    //     --peer-drill kill:peer=7,quantum=3,phase=exchange
    //     --supervise --backoff 0
    // Inside an attempt the refusal would be a failure to recover
    // from, and the retry (which clears drills) would pass.
    auto options = distOptions(2);
    options.peerDrillSpec = "kill:peer=7,quantum=3,phase=exchange";
    supervise::RunSupervisor supervisor(testSupervision());
    EXPECT_EXIT(runSupervised(configParams("clean"), options, supervisor),
                testing::ExitedWithCode(1), "peer drill names peer 7");
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
    // The half-open case: a peer vanishes before it ever speaks.
    auto options = distOptions(2);
    options.peerDrillSpec = "exit:peer=1,phase=hello";
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
        "stop:peer=1,quantum=" + std::to_string(mid) + ",phase=ack";
    supervise::RunSupervisor supervisor(testSupervision());
    const auto result = runSupervised(params, options, supervisor);
    expectMatchesSequential(result, golden, "ckpt-recovery");
    EXPECT_EQ(result.superviseRecoveries, 1u);
    EXPECT_GT(result.restoredFromQuantum, 0u);
    std::filesystem::remove_all(options.checkpointDir);
}

TEST(DistributedEngine, PeerKilledInGatherMergeRecovers)
{
    // phase=ack on a checkpoint quantum fires right after the peer
    // merges that quantum, before the gather's StateReq reaches it:
    // the image at that quantum is never written, and the retry
    // restores the one before it.
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

TEST(DistributedEngine, RowFrameLargerThanSendBufferCompletes)
{
    // Every rank swaps one message with the rank half the cluster
    // away, one node pair per shard pair in both directions. A single
    // window sends each message's fragments in one quantum, so one
    // quantum's Exchange frame between a pair carries at least twice
    // the socket send buffer: blocking sends in both directions must
    // still complete.
    auto [probe, unused] = transport::socketChannelPair();
    int sndbuf = 0;
    socklen_t len = sizeof(sndbuf);
    ASSERT_EQ(::getsockopt(probe->fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                           &len),
              0);
    ckpt::Writer one;
    mpi::putPacket(one, net::Packet{});
    const std::uint64_t fragments =
        2 * static_cast<std::uint64_t>(sndbuf) / one.size() + 1;

    for (std::size_t workers : {3u, 4u}) {
        const std::size_t nodes = 2 * workers;
        auto params = harness::defaultCluster(nodes, 7);
        params.network.nic.mtu = 256;
        const std::uint64_t bytes =
            fragments * (params.network.nic.mtu -
                         params.mpiParams.frameOverhead);
        params.mpiParams.ackWindowBytes = bytes;
        test::LambdaWorkload workload(
            [nodes, bytes](workloads::AppContext &ctx) -> sim::Process {
                const Rank partner = (ctx.rank() + nodes / 2) % nodes;
                co_await mpi::sendrecv(ctx.comm(), partner, partner, 0,
                                       bytes);
            });
        const auto seq = engine::SequentialEngine().run(
            params, workload, *core::parsePolicy("fixed:1us"));
        ASSERT_GE(seq.packets, nodes * fragments);
        const auto dist =
            engine::DistributedEngine(distOptions(workers))
                .run(params, workload, *core::parsePolicy("fixed:1us"));
        expectMatchesSequential(dist, seq,
                                std::to_string(workers) + "w");
    }
}

TEST(DistributedEngine, PeerStoppedMidExchangeIsHangWithinTheDeadline)
{
    // Shard 0's ranks each send shard 1 one eager message at tick 0,
    // so quantum 1's Exchange frame from process 0 to the peer is
    // several times the socket send buffer. The peer stops right after
    // its own frame to process 0 has gone, so process 0's send finds a
    // reader that never drains: it must fail as a Hang at the peer
    // deadline, in quantum 1, not block until the test times out.
    auto [probe, unused] = transport::socketChannelPair();
    int sndbuf = 0;
    socklen_t len = sizeof(sndbuf);
    ASSERT_EQ(::getsockopt(probe->fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                           &len),
              0);
    ckpt::Writer one;
    mpi::putPacket(one, net::Packet{});
    const std::uint64_t fragments =
        4 * static_cast<std::uint64_t>(sndbuf) / one.size() + 1;

    const std::size_t nodes = 4;
    auto params = harness::defaultCluster(nodes, 7);
    params.network.nic.mtu = 256;
    const std::uint64_t bytes =
        fragments *
        (params.network.nic.mtu - params.mpiParams.frameOverhead) / 2;
    params.mpiParams.eagerThreshold = bytes;
    params.mpiParams.copyBytesPerNs = 1e12;
    test::LambdaWorkload workload(
        [nodes, bytes](workloads::AppContext &ctx) -> sim::Process {
            const Rank partner = (ctx.rank() + nodes / 2) % nodes;
            if (ctx.rank() < nodes / 2)
                co_await ctx.comm().send(partner, 0, bytes);
            else
                co_await ctx.comm().recv(partner, 0);
        });
    auto options = distOptions(2);
    options.peerDeadlineSeconds = 1.0;
    options.peerDrillSpec = "stop:peer=1,quantum=1,phase=sent";
    const auto start = std::chrono::steady_clock::now();
    try {
        engine::DistributedEngine(options).run(
            params, workload, *core::parsePolicy("fixed:1us"));
        FAIL() << "expected RunAbort";
    } catch (const base::RunAbort &abort) {
        EXPECT_EQ(abort.cause(), "peer-failure");
        EXPECT_NE(abort.detail().find("peer 1"), std::string::npos)
            << abort.detail();
        EXPECT_NE(abort.detail().find("hung at exchange barrier"),
                  std::string::npos)
            << abort.detail();
        EXPECT_EQ(abort.quantum(), 0u) << "detected by a later wait";
    }
    const double waited =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(waited, 1.0);
    EXPECT_LT(waited, 10.0);
}

TEST(DistributedEngine, WatchdogDumpCarriesPeerLiveness)
{
    // The injected watchdog-panic drill exercises the distributed
    // panic path: the dump must carry the liveness of each forked
    // peer, 1..K-1, and of nothing else (process 0 runs shard 0).
    const auto params = configParams("clean");
    const auto golden = runSequential(params);
    auto sup_options = testSupervision();
    supervise::InjectedFailure inject;
    inject.attempt = 1;
    inject.afterQuantum = 2;
    inject.watchdog = true;
    sup_options.injectFailures.push_back(inject);
    supervise::RunSupervisor supervisor(sup_options);
    auto options = distOptions(3);
    options.watchdogSeconds = 30.0;
    const auto result = runSupervised(params, options, supervisor);
    expectMatchesSequential(result, golden, "watchdog");
    ASSERT_TRUE(supervisor.sawPanic());
    const auto info = supervisor.lastPanic();
    EXPECT_EQ(info.peers.find("peer 0"), std::string::npos)
        << info.peers;
    EXPECT_NE(info.peers.find("peer 1"), std::string::npos)
        << info.peers;
    EXPECT_NE(info.peers.find("peer 2"), std::string::npos)
        << info.peers;
    EXPECT_EQ(std::count(info.peers.begin(), info.peers.end(), '\n'), 2)
        << info.peers;
    EXPECT_NE(info.peers.find("phase="), std::string::npos)
        << info.peers;
    // Each peer line names the wait process 0 last made on it.
    std::size_t in_exchange = 0;
    for (std::size_t at = info.peers.find("phase=exchange barrier ");
         at != std::string::npos;
         at = info.peers.find("phase=exchange barrier ", at + 1))
        ++in_exchange;
    EXPECT_EQ(in_exchange, 2u) << info.peers;
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

TEST(DistributedEngine, PeerExitingAfterStopIsReapedWithoutAFixedSleep)
{
    // A child that exits as soon as it reads its stop byte, as a peer
    // exits on its Stop frame. The reap sleeps on the child itself, so
    // it ends about when a blocking waitpid would, not at the next
    // tick of a 5 ms polling sleep. The fastest of five tries on each
    // side, so one slow fork or schedule on a shared host does not
    // decide it; the blocking wait is the baseline because the
    // child's own exit is slower in a large (sanitized) process.
    const auto fastestReap = [](const auto &reap) {
        double fastest = 1.0;
        for (int trial = 0; trial < 5; ++trial) {
            int fds[2];
            EXPECT_EQ(::pipe(fds), 0);
            const pid_t pid = ::fork();
            EXPECT_GE(pid, 0);
            if (pid == 0) {
                char stop = 0;
                const ssize_t n = ::read(fds[0], &stop, 1);
                ::_exit(n == 1 ? 0 : 1);
            }
            ::close(fds[0]);
            const auto start = std::chrono::steady_clock::now();
            EXPECT_EQ(::write(fds[1], "s", 1), 1);
            EXPECT_TRUE(reap(pid));
            fastest = std::min(
                fastest, std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count());
            ::close(fds[1]);
        }
        return fastest;
    };
    const double blocking = fastestReap(
        [](pid_t pid) { return ::waitpid(pid, nullptr, 0) == pid; });
    const double reaped = fastestReap(
        [](pid_t pid) { return engine::reapChild(pid, 10.0); });
    EXPECT_LT(reaped, blocking + 0.0025)
        << "blocking waitpid " << blocking << " s";

    // A child that never exits is given up at the deadline and left
    // to the caller's SIGKILL.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::pause();
        ::_exit(0);
    }
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(engine::reapChild(pid, 0.2));
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    EXPECT_GE(waited, 0.19);
    EXPECT_LT(waited, 5.0);
    ::kill(pid, SIGKILL);
    EXPECT_TRUE(engine::reapChild(pid, 10.0));
}
