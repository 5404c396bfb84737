/**
 * Quanta without work: when no node has an event before a quantum's
 * end, the QuantumDriver completes it without running the executor.
 * The skip must not show anywhere but in the executed-quanta count:
 * results (finalStateHash included) equal the sequential engine's,
 * checkpoint images taken inside long empty runs are the same bytes at
 * every threaded and distributed worker count and hold the sequential
 * engine's state section for section, a supervised failure injected
 * inside an empty run recovers to the clean result, and an adaptive
 * policy still sees every skipped quantum (policy.next(0)).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/ckpt_io.hh"
#include "engine/distributed_engine.hh"
#include "engine/threaded_engine.hh"
#include "supervise/run_supervisor.hh"
#include "test_util.hh"

using namespace aqsim;

namespace
{

/** One engine flavour: workers == 0 is the sequential engine. */
struct Cell
{
    bool distributed;
    std::size_t workers;

    std::string
    name() const
    {
        if (workers == 0)
            return "sequential";
        return (distributed ? "distributed K=" : "threaded K=") +
               std::to_string(workers);
    }
};

constexpr Cell kCells[] = {{false, 0}, {false, 1}, {false, 2},
                           {false, 4}, {true, 2},  {true, 3},
                           {true, 4}};

engine::RunResult
runCell(const Cell &cell, const std::string &workload_name,
        std::size_t nodes, engine::EngineOptions options,
        const std::string &policy_spec = "fixed:1us")
{
    const auto params = harness::defaultCluster(nodes, 1);
    auto workload = workloads::makeWorkload(workload_name, nodes, 1.0);
    auto policy = core::parsePolicy(policy_spec);
    options.numWorkers = cell.workers;
    if (cell.workers == 0) {
        engine::SequentialEngine engine(options);
        return engine.run(params, *workload, *policy);
    }
    if (cell.distributed) {
        engine::DistributedEngine engine(options);
        return engine.run(params, *workload, *policy);
    }
    engine::ThreadedEngine engine(options);
    return engine.run(params, *workload, *policy);
}

std::string
scratchDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("aqsim_skip_" + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** Every image in @p dir, by file name, as raw bytes. */
std::map<std::string, std::vector<std::uint8_t>>
imagesIn(const std::string &dir)
{
    std::map<std::string, std::vector<std::uint8_t>> images;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::vector<std::uint8_t> raw;
        ckpt::CkptError error;
        EXPECT_TRUE(ckpt::readFile(entry.path().string(), raw, error))
            << error.str();
        images[entry.path().filename().string()] = std::move(raw);
    }
    return images;
}

/** Image @p raw's sections by name, all of them or (@p shared) all
 * but the engine-private one, which only engines of one kind share. */
std::map<std::string, std::vector<std::uint8_t>>
sectionsOf(const std::vector<std::uint8_t> &raw, bool shared)
{
    ckpt::CheckpointImage image;
    ckpt::CkptError error;
    EXPECT_TRUE(ckpt::decodeImage(raw, image, error)) << error.str();
    std::map<std::string, std::vector<std::uint8_t>> out;
    for (const auto &section : image.sections)
        if (!shared || section.name != ckpt::sectionEngine)
            out[section.name] = section.body;
    return out;
}

void
expectSameResult(const engine::RunResult &golden,
                 const engine::RunResult &run, const std::string &what)
{
    EXPECT_EQ(run.simTicks, golden.simTicks) << what;
    EXPECT_EQ(run.quanta, golden.quanta) << what;
    EXPECT_EQ(run.packets, golden.packets) << what;
    EXPECT_EQ(run.stragglers, golden.stragglers) << what;
    EXPECT_EQ(run.retransmits, golden.retransmits) << what;
    EXPECT_EQ(run.finishTicks, golden.finishTicks) << what;
    EXPECT_EQ(run.metric, golden.metric) << what;
    EXPECT_EQ(run.finalStateHash, golden.finalStateHash) << what;
}

/**
 * The whole engine matrix on @p workload_name at fixed:1us with an
 * image every 37 quanta, so most images fall inside empty runs.
 * @return the threaded K=1 run.
 */
engine::RunResult
checkEngineMatrix(const std::string &workload_name, std::size_t nodes)
{
    engine::RunResult golden;
    engine::RunResult threaded;
    std::map<std::string, std::vector<std::uint8_t>> sequential;
    std::map<std::string, std::vector<std::uint8_t>> byKind[2];
    for (const Cell &cell : kCells) {
        const std::string what = workload_name + " " + cell.name();
        engine::EngineOptions options;
        options.checkpointEvery = 37;
        options.checkpointKeepLast = 0;
        options.checkpointDir =
            scratchDir(workload_name + "_" + std::to_string(cell.workers) +
                       (cell.distributed ? "d" : "t"));
        const auto result = runCell(cell, workload_name, nodes, options);
        auto images = imagesIn(options.checkpointDir);
        std::filesystem::remove_all(options.checkpointDir);
        EXPECT_EQ(images.size(), result.quanta / 37) << what;
        if (cell.workers == 0) {
            EXPECT_EQ(result.executedQuanta, result.quanta) << what;
            golden = result;
            sequential = std::move(images);
            continue;
        }
        expectSameResult(golden, result, what);
        // The bound is each node's own next event, whatever the shard
        // map, so every worker count skips the same quanta.
        if (threaded.quanta == 0)
            threaded = result;
        EXPECT_EQ(result.executedQuanta, threaded.executedQuanta) << what;
        EXPECT_LT(result.executedQuanta, result.quanta) << what;

        auto &reference = byKind[cell.distributed];
        if (reference.empty())
            reference = images;
        EXPECT_EQ(images.size(), sequential.size()) << what;
        for (const auto &[name, raw] : images) {
            EXPECT_TRUE(raw == reference[name]) << what << " " << name;
            EXPECT_TRUE(sectionsOf(raw, true) ==
                        sectionsOf(sequential[name], true))
                << what << " " << name;
        }
    }
    // Threaded and distributed images differ only in the engine name
    // of their header: every section, engine-private included, is the
    // same.
    for (const auto &[name, raw] : byKind[1])
        EXPECT_TRUE(sectionsOf(raw, false) ==
                    sectionsOf(byKind[0][name], false))
            << workload_name << " " << name;
    return threaded;
}

TEST(QuantumSkip, CgMatchesEveryEngineAndRunsFewQuanta)
{
    const auto threaded = checkEngineMatrix("nas.cg", 16);
    // 93 % of nas.cg 16's quanta have no event.
    EXPECT_EQ(threaded.quanta, 64177u);
    EXPECT_LE(threaded.executedQuanta, 4272u);
}

TEST(QuantumSkip, MgMatchesEveryEngine)
{
    checkEngineMatrix("nas.mg", 16);
}

TEST(QuantumSkip, NamdMatchesEveryEngine)
{
    checkEngineMatrix("namd", 64);
}

TEST(QuantumSkip, InjectedFailureInsideAnEmptyRunRecovers)
{
    // nas.cg 16 computes from quantum 2 to 2406 without a frame, so a
    // failure after quantum 1000 and the image at 999 both fall inside
    // an empty run.
    const auto golden = runCell({false, 0}, "nas.cg", 16, {});
    for (const Cell &cell : {Cell{false, 2}, Cell{true, 2}}) {
        const std::string what = cell.name();
        supervise::SuperviseOptions sup;
        sup.enabled = true;
        sup.backoffBaseSeconds = 0.0;
        sup.injectFailures.push_back({1, 1000, false});
        supervise::RunSupervisor supervisor(sup);
        auto workload = workloads::makeWorkload("nas.cg", 16, 1.0);
        auto policy = core::parsePolicy("fixed:1us");
        supervise::RunRequest request;
        request.engineKind = cell.distributed
                                 ? supervise::EngineKind::Distributed
                                 : supervise::EngineKind::Threaded;
        request.engine.numWorkers = cell.workers;
        request.engine.checkpointEvery = 37;
        request.engine.checkpointDir =
            scratchDir("inject_" + std::to_string(cell.distributed));
        request.cluster = harness::defaultCluster(16, 1);
        request.workload = workload.get();
        request.policy = policy.get();
        const auto result = supervisor.run(request);
        std::filesystem::remove_all(request.engine.checkpointDir);
        expectSameResult(golden, result, what);
        EXPECT_EQ(result.superviseRecoveries, 1u) << what;
        EXPECT_EQ(result.restoredFromQuantum, 999u) << what;
    }
}

TEST(QuantumSkip, AdaptivePolicySeesEverySkippedQuantum)
{
    // An empty quantum still calls policy.next(0), so the adaptive
    // quantum grows through it exactly as when it ran: the result is
    // the one the engine gave before quanta were skipped.
    for (const std::size_t workers : {1ul, 2ul}) {
        const auto result = runCell({false, workers}, "nas.is", 16, {},
                                    "dyn:1.03:0.02:1us:1000us");
        const std::string what = "workers " + std::to_string(workers);
        EXPECT_LT(result.executedQuanta, result.quanta) << what;
        EXPECT_EQ(result.simTicks, 56147824u) << what;
        EXPECT_EQ(result.quanta, 6111u) << what;
        EXPECT_EQ(result.packets, 12704u) << what;
        EXPECT_EQ(result.stragglers, 104u) << what;
        EXPECT_EQ(result.latenessTicks, 2194580u) << what;
        EXPECT_EQ(result.finalStateHash, 0x1f4d6a8c053cbef0ull) << what;
    }
}

} // namespace
