/**
 * Self-healing run supervisor tests: the kill-and-recover matrix
 * ((SequentialEngine, ThreadedEngine x 1/2/4 workers) x (clean, 5%
 * loss reliable, chaos rolling-crash) x injected failure at {first,
 * mid, last-1} quantum) asserting bit-identical final state against
 * an unsupervised clean run, the two-mid-run-failure acceptance
 * drill (direct abort + watchdog panic in one supervised run),
 * livelock escalation into SuperviseAbort, structured watchdog panic
 * info without a checkpoint directory (the progress-dump regression),
 * incident-log JSONL well-formedness, and the conservative window
 * escalation policy.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/threaded_engine.hh"
#include "fault/chaos.hh"
#include "supervise/escalation.hh"
#include "supervise/run_supervisor.hh"
#include "test_util.hh"

using namespace aqsim;

namespace
{

/** One engine flavour of the recovery matrix. */
struct EngineCell
{
    bool threaded;
    std::size_t workers;
};

constexpr EngineCell kEngines[] = {
    {false, 0}, {true, 1}, {true, 2}, {true, 4}};

const char *const kConfigs[] = {"clean", "lossy", "chaos"};

engine::ClusterParams
configParams(const std::string &config)
{
    auto params = harness::defaultCluster(4, 7);
    if (config == "lossy") {
        params.faults.dropRate = 0.05;
        params.mpiParams.reliable = true;
    } else if (config == "chaos") {
        fault::applyChaos(params.faults, "rolling-crash",
                          params.numNodes, params.seed);
        params.mpiParams.reliable = true;
    }
    return params;
}

/** Unsupervised clean run of one cell: the determinism ground truth. */
engine::RunResult
runUnsupervised(const EngineCell &cell,
                const engine::ClusterParams &params)
{
    auto workload = workloads::makeWorkload("burst", 4, 0.05);
    auto policy = core::parsePolicy("fixed:1us");
    engine::EngineOptions options;
    if (cell.threaded) {
        options.numWorkers = cell.workers;
        engine::ThreadedEngine engine(options);
        return engine.run(params, *workload, *policy);
    }
    engine::SequentialEngine engine(options);
    return engine.run(params, *workload, *policy);
}

/** Supervised run of the same cell through @p supervisor. */
engine::RunResult
runSupervised(const EngineCell &cell,
              const engine::ClusterParams &params,
              const engine::EngineOptions &engine_options,
              supervise::RunSupervisor &supervisor)
{
    auto workload = workloads::makeWorkload("burst", 4, 0.05);
    auto policy = core::parsePolicy("fixed:1us");

    supervise::RunRequest request;
    request.engineKind = cell.threaded
                             ? supervise::EngineKind::Threaded
                             : supervise::EngineKind::Sequential;
    request.engine = engine_options;
    if (cell.threaded)
        request.engine.numWorkers = cell.workers;
    request.cluster = params;
    request.workload = workload.get();
    request.policy = policy.get();
    return supervisor.run(request);
}

std::string
scratchDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("aqsim_supervise_" + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

supervise::SuperviseOptions
testSupervision()
{
    supervise::SuperviseOptions sup;
    sup.enabled = true;
    sup.backoffBaseSeconds = 0.0; // tests never sleep
    return sup;
}

void
expectSameFinalState(const engine::RunResult &golden,
                     const engine::RunResult &supervised,
                     const std::string &what)
{
    EXPECT_EQ(golden.finalStateHash, supervised.finalStateHash)
        << what;
    EXPECT_EQ(golden.simTicks, supervised.simTicks) << what;
    EXPECT_EQ(golden.quanta, supervised.quanta) << what;
    EXPECT_EQ(golden.packets, supervised.packets) << what;
    EXPECT_EQ(golden.metric, supervised.metric) << what;
    EXPECT_EQ(golden.finishTicks, supervised.finishTicks) << what;
}

/** Frames of guardedLoop alive now: started and not yet destroyed. */
int liveGuardedFrames = 0;

struct FrameGuard
{
    FrameGuard() { ++liveGuardedFrames; }
    ~FrameGuard() { --liveGuardedFrames; }
    FrameGuard(const FrameGuard &) = delete;
    FrameGuard &operator=(const FrameGuard &) = delete;
};

/** A program whose coroutine frame counts itself while it lives. */
sim::Process
guardedLoop(workloads::AppContext &ctx)
{
    FrameGuard guard;
    for (int i = 0; i < 50; ++i)
        co_await ctx.delay(1'000);
}

sim::Process
lostAckPollLoop(workloads::AppContext &ctx)
{
    if (ctx.rank() == 0) {
        co_await ctx.comm().send(1, 1, 64);
    } else {
        while (ctx.comm().messagesReceived() == 0)
            co_await ctx.delay(0);
    }
}

} // namespace

TEST(Supervisor, DisabledSupervisionIsAPlainRun)
{
    const EngineCell cell{false, 0};
    const auto params = configParams("clean");
    const auto golden = runUnsupervised(cell, params);

    supervise::SuperviseOptions sup; // enabled = false
    supervise::RunSupervisor supervisor(sup);
    const auto run = runSupervised(cell, params, {}, supervisor);
    expectSameFinalState(golden, run, "disabled supervision");
    EXPECT_EQ(run.superviseAttempts, 0u);
    EXPECT_EQ(run.superviseRecoveries, 0u);
    EXPECT_TRUE(supervisor.incidents().incidents().empty());
    // The default summary must stay byte-identical to unsupervised
    // output (CI byte-compares summaries).
    EXPECT_EQ(golden.summary(), run.summary());
}

TEST(Supervisor, KillAndRecoverMatrix)
{
    int cell_id = 0;
    for (const char *config : kConfigs) {
        const auto params = configParams(config);
        for (const EngineCell &cell : kEngines) {
            const std::string tag =
                std::string(config) + "_" +
                (cell.threaded
                     ? "thr" + std::to_string(cell.workers)
                     : std::string("seq"));
            const auto golden = runUnsupervised(cell, params);
            ASSERT_GT(golden.quanta, 4u) << tag;

            const std::uint64_t cadence =
                std::max<std::uint64_t>(1, golden.quanta / 4);
            const std::uint64_t kills[] = {1, golden.quanta / 2,
                                           golden.quanta - 1};
            for (const std::uint64_t kill : kills) {
                const std::string what =
                    tag + " kill@" + std::to_string(kill);
                const std::string dir = scratchDir(
                    "matrix" + std::to_string(cell_id++));

                engine::EngineOptions options;
                options.checkpointEvery = cadence;
                options.checkpointDir = dir;
                options.checkpointKeepLast = 0;

                auto sup = testSupervision();
                sup.maxRestarts = 2;
                sup.injectFailures = {{1, kill, false}};
                supervise::RunSupervisor supervisor(sup);
                const auto run =
                    runSupervised(cell, params, options, supervisor);

                expectSameFinalState(golden, run, what);
                EXPECT_EQ(run.superviseAttempts, 2u) << what;
                EXPECT_EQ(run.superviseRecoveries, 1u) << what;
                EXPECT_EQ(run.superviseEscalations, 0u) << what;
                // Recovery resumed from the newest checkpoint at or
                // below the kill point (none exists before the first
                // cadence boundary: a cold-start replay).
                const std::uint64_t expect_restore =
                    (kill / cadence) * cadence;
                EXPECT_EQ(run.restoredFromQuantum, expect_restore)
                    << what;

                const auto &incidents =
                    supervisor.incidents().incidents();
                ASSERT_EQ(incidents.size(), 2u) << what;
                EXPECT_EQ(incidents[0].attempt, 1u) << what;
                EXPECT_EQ(incidents[0].cause, "injected") << what;
                EXPECT_EQ(incidents[0].quantum, kill) << what;
                EXPECT_EQ(incidents[0].outcome, "retry") << what;
                EXPECT_EQ(incidents[1].attempt, 2u) << what;
                EXPECT_EQ(incidents[1].outcome, "recovered") << what;
                EXPECT_EQ(incidents[1].restoreSource.empty(),
                          expect_restore == 0)
                    << what;
                std::filesystem::remove_all(dir);
            }
        }
    }
}

TEST(Supervisor, AcceptanceTwoMidRunFailuresUnderChaos)
{
    // The issue's acceptance drill: a chaos run that loses attempt 1
    // to a direct failure and attempt 2 to a watchdog panic must
    // auto-recover within budget and still produce the clean run's
    // exact final state at every tested worker count.
    const auto params = configParams("chaos");
    int cell_id = 0;
    for (const EngineCell &cell : kEngines) {
        const std::string tag =
            cell.threaded ? "thr" + std::to_string(cell.workers)
                          : std::string("seq");
        const auto golden = runUnsupervised(cell, params);
        ASSERT_GT(golden.quanta, 4u) << tag;

        const std::string dir =
            scratchDir("accept" + std::to_string(cell_id++));
        engine::EngineOptions options;
        options.checkpointEvery =
            std::max<std::uint64_t>(1, golden.quanta / 5);
        options.checkpointDir = dir;
        options.checkpointKeepLast = 0;

        auto sup = testSupervision();
        sup.maxRestarts = 3;
        sup.injectFailures = {
            {1, golden.quanta / 3, false},
            {2, (2 * golden.quanta) / 3, true},
        };
        supervise::RunSupervisor supervisor(sup);
        const auto run = runSupervised(cell, params, options,
                                       supervisor);

        expectSameFinalState(golden, run, tag);
        EXPECT_EQ(run.superviseAttempts, 3u) << tag;
        EXPECT_EQ(run.superviseRecoveries, 2u) << tag;

        const auto &incidents = supervisor.incidents().incidents();
        ASSERT_EQ(incidents.size(), 3u) << tag;
        EXPECT_EQ(incidents[0].cause, "injected") << tag;
        EXPECT_EQ(incidents[1].cause, "watchdog") << tag;
        EXPECT_FALSE(incidents[1].restoreSource.empty()) << tag;
        EXPECT_EQ(incidents[2].outcome, "recovered") << tag;
        EXPECT_TRUE(supervisor.sawPanic()) << tag;
        std::filesystem::remove_all(dir);
    }
}

TEST(Supervisor, LivelockEscalatesThenAbortsWithStructuredReport)
{
    // A blackhole hang fails at the same quantum on every replay:
    // retry once, escalate to the conservative guard, then abort when
    // even the escalated attempt hangs. No checkpointDir is set — the
    // structured panic info must still carry the per-node progress
    // dump (the context the old string-only panic path lost).
    auto params = harness::defaultCluster(2, 1);
    params.faults.dropRate = 1.0;
    params.mpiParams.reliable = false;

    test::LambdaWorkload workload(lostAckPollLoop);
    auto policy = core::parsePolicy("fixed:1us");

    supervise::RunRequest request;
    request.engine.watchdogSeconds = 0.2;
    request.cluster = params;
    request.workload = &workload;
    request.policy = policy.get();

    auto sup = testSupervision();
    sup.maxRestarts = 4;
    sup.escalationWindowQuanta = 8;
    supervise::RunSupervisor supervisor(sup);

    EXPECT_THROW(supervisor.run(request), supervise::SuperviseAbort);

    const auto &incidents = supervisor.incidents().incidents();
    ASSERT_EQ(incidents.size(), 3u);
    EXPECT_EQ(incidents[0].cause, "watchdog");
    EXPECT_EQ(incidents[0].outcome, "retry");
    EXPECT_EQ(incidents[1].outcome, "escalate");
    EXPECT_EQ(incidents[2].outcome, "abort");
    EXPECT_EQ(incidents[1].quantum, incidents[0].quantum);

    EXPECT_TRUE(supervisor.sawPanic());
    const auto panic = supervisor.lastPanic();
    EXPECT_FALSE(panic.progress.empty());
    EXPECT_NE(panic.progress.find("node"), std::string::npos);
    EXPECT_NE(panic.format().find("quantum ["), std::string::npos);
}

TEST(Supervisor, FailedAttemptsClusterIsFreedBeforeTheNextIsBuilt)
{
    // Attempt 1 fails with every program mid-loop; their frames die
    // with its cluster, which must be gone while attempt 2's is being
    // built. Building a cluster asks the workload for each node's
    // program; programs start lazily, so a new cluster counts none.
    std::vector<int> live_while_building;
    test::LambdaWorkload workload([&](workloads::AppContext &ctx) {
        live_while_building.push_back(liveGuardedFrames);
        return guardedLoop(ctx);
    });
    auto policy = core::parsePolicy("fixed:1us");
    supervise::RunRequest request;
    request.cluster = harness::defaultCluster(4, 7);
    request.workload = &workload;
    request.policy = policy.get();
    int built = 0;
    request.onClusterBuilt = [&](engine::Cluster &) { ++built; };

    auto sup = testSupervision();
    sup.injectFailures = {{1, 10, false}};
    supervise::RunSupervisor supervisor(sup);
    const auto result = supervisor.run(request);
    EXPECT_EQ(result.superviseAttempts, 2u);
    EXPECT_EQ(built, 2);
    EXPECT_EQ(live_while_building, std::vector<int>(8, 0));
    supervisor.takeCluster().reset();
    EXPECT_EQ(liveGuardedFrames, 0);
}

TEST(Supervisor, IncidentLogIsWellFormedJsonl)
{
    const std::string dir = scratchDir("jsonl");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/incidents.jsonl";

    const EngineCell cell{false, 0};
    const auto params = configParams("clean");
    const auto golden = runUnsupervised(cell, params);

    engine::EngineOptions options;
    options.checkpointEvery =
        std::max<std::uint64_t>(1, golden.quanta / 4);
    options.checkpointDir = dir + "/ckpt";

    auto sup = testSupervision();
    sup.incidentLogPath = path;
    sup.injectFailures = {{1, golden.quanta / 2, false}};
    supervise::RunSupervisor supervisor(sup);
    runSupervised(cell, params, options, supervisor);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        for (const char *key :
             {"\"attempt\":", "\"cause\":", "\"quantum\":",
              "\"backoff_s\":", "\"restore_source\":",
              "\"outcome\":", "\"detail\":"})
            EXPECT_NE(line.find(key), std::string::npos)
                << key << " missing in " << line;
    }
    EXPECT_EQ(lines, 2u);
    EXPECT_EQ(supervisor.incidents().incidents().size(), 2u);
    std::filesystem::remove_all(dir);
}

TEST(Supervisor, ExhaustedBudgetThrowsWithIncidentTrail)
{
    const EngineCell cell{false, 0};
    const auto params = configParams("clean");
    const auto golden = runUnsupervised(cell, params);

    // Fail every attempt at a *different* quantum so livelock
    // escalation never fires; the budget itself must run out.
    auto sup = testSupervision();
    sup.maxRestarts = 1;
    sup.injectFailures = {
        {1, golden.quanta / 2, false},
        {2, golden.quanta / 2 + 1, false},
    };
    supervise::RunSupervisor supervisor(sup);
    EXPECT_THROW(runSupervised(cell, params, {}, supervisor),
                 supervise::SuperviseAbort);
    const auto &incidents = supervisor.incidents().incidents();
    ASSERT_EQ(incidents.size(), 2u);
    EXPECT_EQ(incidents[0].outcome, "retry");
    EXPECT_EQ(incidents[1].outcome, "abort");
}

TEST(ConservativeWindow, ClampsOnlyInsideTheWindow)
{
    const Tick safe = 1000; // 1us: well under the inner fixed 100us
    supervise::ConservativeWindowPolicy guard(
        core::parsePolicy("fixed:100us"), safe, 10, 3);
    EXPECT_EQ(guard.name(),
              "guard:" + core::parsePolicy("fixed:100us")->name());
    EXPECT_EQ(guard.initialQuantum(), microseconds(100));

    // The n-th next() call decides quantum index n; indices 7..13
    // fall in the guarded window [10-3, 10+3] and clamp to the bound.
    for (std::uint64_t i = 1; i <= 15; ++i) {
        const Tick want =
            (i >= 7 && i <= 13) ? safe : microseconds(100);
        EXPECT_EQ(guard.next(0), want) << "index " << i;
        EXPECT_EQ(guard.guarded(i), i >= 7 && i <= 13) << i;
    }

    // reset() restarts the index count; a clone resumes mid-stream.
    guard.reset();
    EXPECT_EQ(guard.next(0), microseconds(100));
    for (std::uint64_t i = 2; i <= 7; ++i)
        guard.next(0);
    auto copy = guard.clone();
    EXPECT_EQ(copy->next(0), safe); // index 8: still guarded
}

TEST(ConservativeWindow, WindowAtRunStartGuardsInitialQuantum)
{
    // A failure near quantum zero guards the initial quantum too.
    supervise::ConservativeWindowPolicy guard(
        core::parsePolicy("fixed:100us"), 1000, 1, 4);
    EXPECT_TRUE(guard.guarded(0));
    EXPECT_EQ(guard.initialQuantum(), Tick{1000});
}

TEST(Incident, JsonEscapesControlAndQuoteCharacters)
{
    supervise::Incident incident;
    incident.attempt = 3;
    incident.cause = "panic";
    incident.detail = "line1\nline\"2\"\tend\\";
    incident.outcome = "retry";
    const std::string json = incident.toJson();
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_NE(json.find("\\\"2\\\""), std::string::npos);
    EXPECT_NE(json.find("\\t"), std::string::npos);
    EXPECT_NE(json.find("\\\\"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
}
