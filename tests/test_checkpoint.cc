/**
 * End-to-end checkpoint/restore tests: the kill-and-restore matrix
 * ((SequentialEngine, ThreadedEngine x 1/2/4 workers) x (clean, lossy
 * reliable) x kill-at-quantum {1, mid, last-1}), rotation, restore
 * rejection of foreign configurations/engines, tampered images that
 * the replay's per-section check names, cross-engine section
 * equality, checkpoint stats surfacing, the engine re-run
 * regression (watchdog-armed rerun, per-run checkpoint counters,
 * scheduler unbinding on controller reset), and the node-range slices
 * a distributed gather splices back into the whole-cluster state.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/ckpt_io.hh"
#include "base/failure.hh"
#include "ckpt/manager.hh"
#include "engine/threaded_engine.hh"
#include "engine/worker_pool.hh"
#include "net/network_controller.hh"
#include "test_util.hh"

using namespace aqsim;

namespace
{

/** One cell of the kill-and-restore matrix. */
struct MatrixCell
{
    bool threaded;
    std::size_t workers;
    bool lossy;
};

engine::ClusterParams
cellParams(bool lossy)
{
    auto params = harness::defaultCluster(4, 7);
    if (lossy) {
        params.faults.dropRate = 0.05;
        params.mpiParams.reliable = true;
    }
    return params;
}

engine::RunResult
runCell(const MatrixCell &cell, engine::EngineOptions options = {})
{
    auto workload = workloads::makeWorkload("burst", 4, 0.05);
    auto policy = core::parsePolicy("fixed:1us");
    const auto params = cellParams(cell.lossy);
    if (cell.threaded) {
        options.numWorkers = cell.workers;
        engine::ThreadedEngine engine(options);
        return engine.run(params, *workload, *policy);
    }
    engine::SequentialEngine engine(options);
    return engine.run(params, *workload, *policy);
}

/** Fresh (empty) per-test scratch directory under the temp root. */
std::string
scratchDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("aqsim_ckpt_" + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

std::string
checkpointFile(const std::string &dir, std::uint64_t quantum)
{
    char name[64];
    std::snprintf(name, sizeof(name), "ckpt-q%012llu.aqc",
                  static_cast<unsigned long long>(quantum));
    return dir + "/" + name;
}

/**
 * Compare every deterministic RunResult field. Host time is excluded:
 * it is modeled (and reproducible) on the SequentialEngine but
 * measured wall-clock on the ThreadedEngine.
 */
void
expectSameRun(const engine::RunResult &a, const engine::RunResult &b,
              const std::string &what)
{
    EXPECT_EQ(a.simTicks, b.simTicks) << what;
    EXPECT_EQ(a.quanta, b.quanta) << what;
    EXPECT_EQ(a.packets, b.packets) << what;
    EXPECT_EQ(a.stragglers, b.stragglers) << what;
    EXPECT_EQ(a.nextQuantumDeliveries, b.nextQuantumDeliveries) << what;
    EXPECT_EQ(a.latenessTicks, b.latenessTicks) << what;
    EXPECT_EQ(a.droppedFrames, b.droppedFrames) << what;
    EXPECT_EQ(a.retransmits, b.retransmits) << what;
    EXPECT_EQ(a.finishTicks, b.finishTicks) << what;
    EXPECT_EQ(a.metric, b.metric) << what;
    EXPECT_EQ(a.finalStateHash, b.finalStateHash) << what;
}

TEST(Checkpoint, KillAndRestoreMatrix)
{
    const MatrixCell cells[] = {
        {false, 0, false}, {false, 0, true},  {true, 1, false},
        {true, 1, true},   {true, 2, false}, {true, 2, true},
        {true, 4, false},  {true, 4, true},
    };
    int cell_id = 0;
    for (const MatrixCell &cell : cells) {
        const std::string tag =
            (cell.threaded ? "thr" + std::to_string(cell.workers)
                           : std::string("seq")) +
            (cell.lossy ? "_lossy" : "_clean");
        const auto golden = runCell(cell);
        ASSERT_GT(golden.quanta, 4u) << tag;

        // Checkpoint at every quantum so any kill point has a file.
        const std::string dir =
            scratchDir("matrix" + std::to_string(cell_id++));
        engine::EngineOptions ck;
        ck.checkpointEvery = 1;
        ck.checkpointDir = dir;
        ck.checkpointKeepLast = 0;
        const auto checkpointed = runCell(cell, ck);
        expectSameRun(golden, checkpointed, tag + " checkpointed");
        EXPECT_EQ(checkpointed.checkpointsWritten, golden.quanta)
            << tag;
        EXPECT_GT(checkpointed.checkpointBytes, 0u) << tag;

        // A SIGKILL at quantum k leaves ckpt-q{k} as the newest file
        // (atomic rename: files are never half-written). Restoring it
        // must reproduce the uninterrupted run bit-for-bit.
        const std::uint64_t kills[] = {1, golden.quanta / 2,
                                       golden.quanta - 1};
        for (std::uint64_t k : kills) {
            engine::EngineOptions restore;
            restore.restorePath = checkpointFile(dir, k);
            const auto restored = runCell(cell, restore);
            const std::string what =
                tag + " kill@" + std::to_string(k);
            expectSameRun(golden, restored, what);
            EXPECT_EQ(restored.restoredFromQuantum, k) << what;
        }
        std::filesystem::remove_all(dir);
    }
}

TEST(Checkpoint, RestoreFromDirectoryPicksNewest)
{
    const MatrixCell cell{false, 0, false};
    const auto golden = runCell(cell);

    const std::string dir = scratchDir("dirpick");
    engine::EngineOptions ck;
    ck.checkpointEvery = 100;
    ck.checkpointDir = dir;
    ck.checkpointKeepLast = 0;
    runCell(cell, ck);

    engine::EngineOptions restore;
    restore.restorePath = dir;
    const auto restored = runCell(cell, restore);
    expectSameRun(golden, restored, "dir restore");
    EXPECT_EQ(restored.restoredFromQuantum,
              (golden.quanta / 100) * 100);
    std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RestoreAdoptsAnImageAlreadyLoaded)
{
    // The supervisor's probe hands its decoded image to the retry:
    // the run verifies against it and never reads restorePath again,
    // which here names no file at all.
    const MatrixCell cell{true, 2, false};
    const auto golden = runCell(cell);

    const std::string dir = scratchDir("adopt");
    engine::EngineOptions ck;
    ck.checkpointEvery = 100;
    ck.checkpointDir = dir;
    ck.checkpointKeepLast = 0;
    runCell(cell, ck);
    auto image = std::make_shared<ckpt::CheckpointImage>();
    std::vector<std::uint8_t> raw;
    ckpt::CkptError error;
    ASSERT_TRUE(ckpt::readFile(checkpointFile(dir, 100), raw, error));
    ASSERT_TRUE(ckpt::decodeImage(raw, *image, error)) << error.str();
    std::filesystem::remove_all(dir);

    engine::EngineOptions restore;
    restore.restorePath = dir + "/gone.aqc";
    restore.restoreImage = image;
    const auto restored = runCell(cell, restore);
    expectSameRun(golden, restored, "adopted image");
    EXPECT_EQ(restored.restoredFromQuantum, 100u);
}

TEST(Checkpoint, RotationKeepsLastN)
{
    const std::string dir = scratchDir("rotate");
    engine::EngineOptions ck;
    ck.checkpointEvery = 50;
    ck.checkpointDir = dir;
    ck.checkpointKeepLast = 2;
    const auto result = runCell({false, 0, false}, ck);

    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir))
        files.push_back(entry.path().filename().string());
    ASSERT_EQ(files.size(), 2u);
    const std::uint64_t last = (result.quanta / 50) * 50;
    EXPECT_TRUE(std::filesystem::exists(checkpointFile(dir, last)));
    EXPECT_TRUE(
        std::filesystem::exists(checkpointFile(dir, last - 50)));
    // Rotation still counts every write in the run stats.
    EXPECT_EQ(result.checkpointsWritten, result.quanta / 50);
    std::filesystem::remove_all(dir);
}

TEST(Checkpoint, SummaryReportsCheckpointAndRestoreStats)
{
    const std::string dir = scratchDir("summary");
    engine::EngineOptions ck;
    ck.checkpointEvery = 100;
    ck.checkpointDir = dir;
    const auto written = runCell({false, 0, false}, ck);
    EXPECT_NE(written.summary().find("ckpts="), std::string::npos);

    engine::EngineOptions restore;
    restore.restorePath = dir;
    const auto restored = runCell({false, 0, false}, restore);
    EXPECT_NE(restored.summary().find("restored@q"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

/**
 * Cross-engine consistency: under conservative quanta both engines
 * reach bit-identical architectural state, so their checkpoints match
 * section for section — everything except the engine-private section.
 */
TEST(Checkpoint, CrossEngineSectionsAreBitIdentical)
{
    const std::string seq_dir = scratchDir("xengine_seq");
    const std::string thr_dir = scratchDir("xengine_thr");
    engine::EngineOptions ck;
    ck.checkpointEvery = 100;
    ck.checkpointKeepLast = 0;

    ck.checkpointDir = seq_dir;
    const auto seq = runCell({false, 0, false}, ck);
    ck.checkpointDir = thr_dir;
    const auto thr = runCell({true, 2, false}, ck);
    ASSERT_EQ(seq.quanta, thr.quanta);

    const std::uint64_t q = (seq.quanta / 100) * 100;
    ckpt::CheckpointImage a, b;
    ckpt::CkptError error;
    std::vector<std::uint8_t> raw;
    ASSERT_TRUE(
        ckpt::readFile(checkpointFile(seq_dir, q), raw, error));
    ASSERT_TRUE(ckpt::decodeImage(raw, a, error)) << error.str();
    ASSERT_TRUE(
        ckpt::readFile(checkpointFile(thr_dir, q), raw, error));
    ASSERT_TRUE(ckpt::decodeImage(raw, b, error)) << error.str();

    EXPECT_EQ(a.quantumIndex, b.quantumIndex);
    EXPECT_EQ(a.configHash, b.configHash);
    for (const auto &section : a.sections) {
        if (section.name == ckpt::sectionEngine)
            continue;
        const auto *other = b.find(section.name);
        ASSERT_NE(other, nullptr) << section.name;
        EXPECT_EQ(section.body, *other) << section.name;
    }
    std::filesystem::remove_all(seq_dir);
    std::filesystem::remove_all(thr_dir);
}

TEST(CheckpointDeathTest, RestoreRejectsForeignConfiguration)
{
    const std::string dir = scratchDir("wrongconfig");
    engine::EngineOptions ck;
    ck.checkpointEvery = 100;
    ck.checkpointDir = dir;
    runCell({false, 0, false}, ck);

    // Same workload/policy, different fault profile => different
    // configuration fingerprint.
    engine::EngineOptions restore;
    restore.restorePath = dir;
    EXPECT_EXIT(runCell({false, 0, true}, restore),
                ::testing::ExitedWithCode(1),
                "different.*configuration");
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDeathTest, RestoreRejectsForeignEngine)
{
    const std::string dir = scratchDir("wrongengine");
    engine::EngineOptions ck;
    ck.checkpointEvery = 100;
    ck.checkpointDir = dir;
    runCell({false, 0, false}, ck);

    engine::EngineOptions restore;
    restore.restorePath = dir;
    EXPECT_EXIT(runCell({true, 2, false}, restore),
                ::testing::ExitedWithCode(1),
                "produced by the sequential engine");
    std::filesystem::remove_all(dir);
}

/**
 * Write a golden checkpoint, apply @p edit to its decoded image,
 * re-encode it with the meta hash recomputed (so the file itself
 * decodes cleanly) and @return its path. Only the replay's
 * per-section check can then tell the image from the live state.
 */
template <typename Edit>
std::string
tamperedCheckpoint(const std::string &dir, Edit edit)
{
    engine::EngineOptions ck;
    ck.checkpointEvery = 100;
    ck.checkpointDir = dir;
    ck.checkpointKeepLast = 0;
    runCell({false, 0, false}, ck);

    std::vector<std::uint8_t> raw;
    ckpt::CheckpointImage image;
    ckpt::CkptError error;
    const std::string golden = checkpointFile(dir, 100);
    EXPECT_TRUE(ckpt::readFile(golden, raw, error)) << error.str();
    EXPECT_TRUE(ckpt::decodeImage(raw, image, error)) << error.str();
    edit(image);
    image.stateHash = ckpt::sectionsHash(image.sections);
    const std::string path = dir + "/tampered.aqc";
    EXPECT_TRUE(ckpt::writeFileAtomic(path, ckpt::encodeImage(image),
                                      error))
        << error.str();
    return path;
}

TEST(CheckpointDeathTest, RestoreNamesTheDivergingSection)
{
    const std::string dir = scratchDir("flipmpi");
    engine::EngineOptions restore;
    restore.restorePath =
        tamperedCheckpoint(dir, [](ckpt::CheckpointImage &image) {
            for (auto &section : image.sections)
                if (section.name == ckpt::sectionMpi)
                    section.body.at(0) ^= 0x01;
        });
    EXPECT_EXIT(runCell({false, 0, false}, restore),
                ::testing::ExitedWithCode(1),
                "restore divergence.*section 'mpi'");
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDeathTest, RestoreRejectsAnImageMissingAReplayedSection)
{
    const std::string dir = scratchDir("noengine");
    engine::EngineOptions restore;
    restore.restorePath =
        tamperedCheckpoint(dir, [](ckpt::CheckpointImage &image) {
            std::erase_if(image.sections, [](const auto &section) {
                return section.name == ckpt::sectionEngine;
            });
        });
    EXPECT_EXIT(runCell({false, 0, false}, restore),
                ::testing::ExitedWithCode(1),
                "restore divergence.*section 'engine'");
    std::filesystem::remove_all(dir);
}

/**
 * A hung run with a checkpoint directory configured must die with a
 * resumable panic checkpoint: the engine stashes the encoded snapshot
 * at every boundary, and the watchdog dump path persists the stash.
 */
TEST(CheckpointDeathTest, WatchdogPanicWritesResumableCheckpoint)
{
    const std::string dir = scratchDir("panic");
    std::filesystem::create_directories(dir);

    // Healthy traffic for ~5 us of simulated time, then the link goes
    // dark (no reliability => no retransmit timer) while rank 1
    // busy-polls for the message that will never arrive.
    auto params = harness::defaultCluster(2, 1);
    fault::LinkWindow down;
    down.a = 0;
    down.b = 1;
    down.from = 5'000;
    down.to = 1'000'000'000'000ULL;
    params.faults.linkDown.push_back(down);

    engine::EngineOptions options;
    options.watchdogSeconds = 0.3;
    options.checkpointDir = dir;

    auto program = [](workloads::AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.comm().send(1, 1, 64);
            co_await ctx.delay(10'000);
            co_await ctx.comm().send(1, 2, 64);
        } else {
            co_await ctx.comm().recv(0, 1);
            while (ctx.comm().messagesReceived() < 2)
                co_await ctx.delay(0);
        }
    };
    EXPECT_DEATH(test::runLambdaCluster(params, program, "fixed:1us",
                                        options),
                 "last quantum boundary written to");

    // The panic checkpoint the dying child wrote must itself decode.
    std::vector<std::uint8_t> raw;
    ckpt::CheckpointImage image;
    ckpt::CkptError error;
    ASSERT_TRUE(ckpt::readFile(dir + "/panic.aqc", raw, error))
        << error.str();
    EXPECT_TRUE(ckpt::decodeImage(raw, image, error)) << error.str();
    EXPECT_GT(image.quantumIndex, 0u);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDeathTest, CadenceWithoutDirectoryIsFatal)
{
    engine::EngineOptions ck;
    ck.checkpointEvery = 10;
    EXPECT_EXIT(runCell({false, 0, false}, ck),
                ::testing::ExitedWithCode(1),
                "no.*checkpoint directory");
}

/**
 * Engine re-run regression (reset paths): a reused engine with a
 * watchdog reruns identically, counts checkpoint stats per run (not
 * cumulatively), and a controller reset must drop the previous run's
 * scheduler binding.
 */
TEST(Checkpoint, EngineRerunResetsWatchdogAndCheckpointCounters)
{
    engine::EngineOptions options;
    options.watchdogSeconds = 300.0;
    const std::string dir1 = scratchDir("rerun1");
    const std::string dir2 = scratchDir("rerun2");

    engine::SequentialEngine engine(options);
    auto workload1 = workloads::makeWorkload("burst", 4, 0.05);
    auto workload2 = workloads::makeWorkload("burst", 4, 0.05);
    auto policy1 = core::parsePolicy("fixed:1us");
    auto policy2 = core::parsePolicy("fixed:1us");

    const auto first =
        engine.run(cellParams(false), *workload1, *policy1);
    const auto second =
        engine.run(cellParams(false), *workload2, *policy2);
    expectSameRun(first, second, "rerun determinism");

    // Checkpoint counters are per run, not accumulated across runs.
    engine::EngineOptions ck = options;
    ck.checkpointEvery = 50;
    ck.checkpointDir = dir2;
    engine::SequentialEngine ck_engine(ck);
    auto workload3 = workloads::makeWorkload("burst", 4, 0.05);
    auto workload4 = workloads::makeWorkload("burst", 4, 0.05);
    auto policy3 = core::parsePolicy("fixed:1us");
    const auto third =
        ck_engine.run(cellParams(false), *workload3, *policy3);
    std::filesystem::remove_all(dir2);
    const auto fourth =
        ck_engine.run(cellParams(false), *workload4, *policy3);
    EXPECT_EQ(third.checkpointsWritten, fourth.checkpointsWritten);

    std::filesystem::remove_all(dir1);
    std::filesystem::remove_all(dir2);
}

TEST(Checkpoint, ControllerResetDropsSchedulerBinding)
{
    auto workload = workloads::makeWorkload("burst", 4, 0.05);
    auto policy = core::parsePolicy("fixed:1us");
    engine::Cluster cluster(cellParams(false), *workload);
    engine::SequentialEngine engine;
    engine.run(cluster, *policy);
    // The engine-side scheduler died when run() returned; reset() must
    // not carry the dangling binding into the next run.
    cluster.controller().reset();
    EXPECT_EQ(cluster.controller().scheduler(), nullptr);
}

} // namespace

namespace
{

/** A 16-node lossy reliable nas.cg cluster stopped after 2000 quanta
 * of a sequential run. */
struct MidRun
{
    std::unique_ptr<workloads::Workload> workload =
        workloads::makeWorkload("nas.cg", 16, 0.25);
    std::unique_ptr<engine::Cluster> cluster;

    MidRun()
    {
        auto params = harness::defaultCluster(16, 7);
        params.faults.dropRate = 0.05;
        params.faults.duplicateRate = 0.02;
        params.mpiParams.reliable = true;
        cluster = std::make_unique<engine::Cluster>(params, *workload);
        auto policy = core::parsePolicy("fixed:1us");
        engine::EngineOptions options;
        options.injectFailAfterQuantum = 2000;
        engine::SequentialEngine engine(options);
        EXPECT_THROW(engine.run(*cluster, *policy), base::RunAbort);
    }
};

} // namespace

TEST(ClusterSlice, SpliceRebuildsTheWholeClusterState)
{
    MidRun run;
    const engine::Cluster &cluster = *run.cluster;
    const engine::ClusterState whole = cluster.state();
    ASSERT_GT(whole.retransmits, 0u);
    ASSERT_GE(whole.faultTotals[0], 5u);
    ASSERT_GE(whole.faultTotals[1], 5u);

    const std::size_t n = cluster.numNodes();
    for (std::size_t k = 1; k <= 5; ++k) {
        std::vector<engine::ClusterSlice> slices;
        for (std::size_t s = 0; s < k; ++s) {
            const auto [begin, end] =
                engine::WorkerPool::shardRange(s, k, n);
            slices.push_back(cluster.slice(static_cast<NodeId>(begin),
                                           static_cast<NodeId>(end)));
            // One process made every fault decision here; hand each
            // slice a share, as its own process would have counted.
            for (std::size_t i = 0; i < whole.faultTotals.size(); ++i)
                slices[s].faultTotals[i] =
                    whole.faultTotals[i] / k +
                    (s == 0 ? whole.faultTotals[i] % k : 0);
        }
        const engine::ClusterState spliced = cluster.splice(slices);
        ASSERT_EQ(spliced.sections.size(), whole.sections.size());
        for (std::size_t i = 0; i < whole.sections.size(); ++i) {
            EXPECT_EQ(spliced.sections[i].name, whole.sections[i].name);
            EXPECT_EQ(spliced.sections[i].body, whole.sections[i].body)
                << whole.sections[i].name << " at K=" << k;
        }
        EXPECT_EQ(spliced.finishTicks, whole.finishTicks) << k;
        EXPECT_EQ(spliced.retransmits, whole.retransmits) << k;
        EXPECT_EQ(spliced.faultTotals, whole.faultTotals) << k;
        EXPECT_EQ(spliced.hash(), cluster.stateHash()) << k;
    }
}

TEST(ClusterSlice, WireEncodingRoundTripsAndRejectsDamage)
{
    MidRun run;
    const engine::Cluster &cluster = *run.cluster;
    const engine::ClusterSlice slice = cluster.slice(4, 9);
    ckpt::Writer w;
    engine::Cluster::writeSlice(w, slice);
    const std::vector<std::uint8_t> &wire = w.buffer();

    engine::ClusterSlice back;
    ckpt::Reader r(wire);
    ASSERT_TRUE(cluster.readSlice(r, 4, 9, back));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(back.nodes, slice.nodes);
    EXPECT_EQ(back.mpi, slice.mpi);
    EXPECT_EQ(back.workload, slice.workload);
    EXPECT_EQ(back.faultLinks, slice.faultLinks);
    EXPECT_EQ(back.faultTotals, slice.faultTotals);
    EXPECT_EQ(back.finishTicks, slice.finishTicks);
    EXPECT_EQ(back.retransmits, slice.retransmits);

    for (std::size_t cut : {std::size_t{0}, std::size_t{7}, wire.size() / 2,
                            wire.size() - 1}) {
        ckpt::Reader truncated(wire.data(), cut, "state");
        EXPECT_FALSE(cluster.readSlice(truncated, 4, 9, back)) << cut;
    }
    ckpt::Reader other_range(wire);
    EXPECT_FALSE(cluster.readSlice(other_range, 4, 10, back));
}
