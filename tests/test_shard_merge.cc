/**
 * @file
 * Sharded-kernel tests: the deterministic k-way barrier merge
 * (sim::RunMerger) in isolation, the cross-engine bit-identity matrix
 * ((SequentialEngine, ThreadedEngine x 1/2/4/8 workers) x (clean, 5%
 * loss + reliable) x mid-run checkpoint/restore), and byte-identity of
 * checkpoint images across worker counts — the acceptance gates of the
 * per-shard event-queue refactor (docs/performance.md).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "engine/delivery_batch.hh"
#include "engine/threaded_engine.hh"
#include "net/packet.hh"
#include "sim/run_merge.hh"
#include "test_util.hh"

using namespace aqsim;

namespace
{

using sim::RunKey;
using sim::RunMerger;
using sim::RunView;

RunView
view(const std::vector<RunKey> &keys)
{
    return RunView{keys.data(), keys.size()};
}

/** Drain a merger into the flat emission order. */
std::vector<RunKey>
drain(RunMerger &merger)
{
    std::vector<RunKey> out;
    RunMerger::Item item;
    while (merger.next(item))
        out.push_back(item.key);
    return out;
}

TEST(RunMerge, SortRunOrdersByCanonicalKey)
{
    std::vector<RunKey> run = {
        {20, 5, 1, 0}, {10, 9, 2, 1}, {10, 3, 2, 2},
        {10, 3, 1, 3}, {20, 5, 1, 4},
    };
    sim::sortRun(run);
    // (when, src, departTick), then staging index for full stability.
    EXPECT_EQ(run[0].when, 10u);
    EXPECT_EQ(run[0].src, 1u);
    EXPECT_EQ(run[1].src, 2u);
    EXPECT_EQ(run[1].depart, 3u);
    EXPECT_EQ(run[2].depart, 9u);
    EXPECT_EQ(run[3].when, 20u);
    EXPECT_EQ(run[3].idx, 0u);
    EXPECT_EQ(run[4].idx, 4u);
}

TEST(RunMerge, MergesInterleavedRunsCanonically)
{
    const std::vector<RunKey> a = {{10, 0, 0, 0}, {30, 0, 0, 1}};
    const std::vector<RunKey> b = {{15, 1, 0, 0}, {25, 1, 0, 1}};
    const std::vector<RunKey> c = {{5, 2, 0, 0}, {40, 2, 0, 1}};
    const RunView views[] = {view(a), view(b), view(c)};
    RunMerger merger;
    merger.reset(views, 3);
    EXPECT_EQ(merger.remaining(), 6u);
    const auto out = drain(merger);
    ASSERT_EQ(out.size(), 6u);
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_TRUE(out[i - 1].before(out[i])) << i;
    EXPECT_EQ(out[0].when, 5u);
    EXPECT_EQ(out[5].when, 40u);
}

TEST(RunMerge, TieBreaksOnSourceThenDepart)
{
    // Same arrival tick everywhere: src decides, then departTick (a
    // total order because departTick strictly increases per source).
    const std::vector<RunKey> a = {{10, 4, 2, 0}, {10, 9, 2, 1}};
    const std::vector<RunKey> b = {{10, 3, 1, 0}, {10, 7, 5, 1}};
    const RunView views[] = {view(a), view(b)};
    RunMerger merger;
    merger.reset(views, 2);
    const auto out = drain(merger);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].src, 1u);
    EXPECT_EQ(out[1].src, 2u);
    EXPECT_EQ(out[1].depart, 4u);
    EXPECT_EQ(out[2].src, 2u);
    EXPECT_EQ(out[2].depart, 9u);
    EXPECT_EQ(out[3].src, 5u);
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_TRUE(out[i - 1].before(out[i])) << i;
}

TEST(RunMerge, SkipsEmptyShardsAndHandlesSingleRun)
{
    const std::vector<RunKey> only = {{7, 0, 3, 0}, {9, 0, 3, 1}};
    const std::vector<RunKey> empty;
    const RunView views[] = {view(empty), view(only), view(empty)};
    RunMerger merger;
    merger.reset(views, 3);
    EXPECT_EQ(merger.remaining(), 2u);
    const auto out = drain(merger);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].when, 7u);
    EXPECT_EQ(out[1].when, 9u);
}

TEST(RunMerge, AllEmptyAndReuse)
{
    RunMerger merger;
    merger.reset(nullptr, 0);
    RunMerger::Item item;
    EXPECT_FALSE(merger.next(item));
    EXPECT_EQ(merger.remaining(), 0u);
    // A merger is reusable quantum after quantum via reset().
    const std::vector<RunKey> a = {{1, 0, 0, 0}};
    const RunView views[] = {view(a)};
    merger.reset(views, 1);
    EXPECT_TRUE(merger.next(item));
    EXPECT_EQ(item.key.when, 1u);
    EXPECT_EQ(item.run, 0u);
    EXPECT_FALSE(merger.next(item));
}

// ---------------------------------------------------------------
// K×K exchange partitioner (engine::DeliveryBatch).
// ---------------------------------------------------------------

net::Packet
stagedPacket(NodeId src, NodeId dst, Tick depart)
{
    net::Packet pkt = test::frame(src, dst, 256, depart);
    pkt.idealArrival = depart + 1;
    return pkt;
}

/** An 8-node cluster to dispatch into, plus a scoped invariant
 * checker so every merge's canonical order is machine-audited. */
struct Exchange : public ::testing::Test
{
    Exchange()
        : workload(workloads::makeWorkload("burst", 8, 0.05)),
          cluster(harness::defaultCluster(8, 13), *workload),
          checker(check::InvariantChecker::instance())
    {
        checker.reset();
        checker.setEnabled(true);
    }

    ~Exchange() override
    {
        checker.setEnabled(false);
        checker.reset();
    }

    std::uint64_t
    orderViolations() const
    {
        return checker.violations(check::Invariant::ShardMergeOrder);
    }

    std::unique_ptr<workloads::Workload> workload;
    engine::Cluster cluster;
    check::InvariantChecker &checker;
};

TEST_F(Exchange, StageRoutesBySourceAndDestinationShard)
{
    // 8 nodes over K=4 shards: two nodes per shard, destination known
    // at stage time, so each key lands directly in its (source shard,
    // destination shard) sub-run with no partition pass.
    engine::DeliveryBatch batch(8, 4);
    batch.stage(stagedPacket(0, 7, 10), 20,
                net::DeliveryKind::NextQuantum);
    batch.stage(stagedPacket(3, 2, 11), 20,
                net::DeliveryKind::NextQuantum);
    batch.stage(stagedPacket(6, 6, 12), 20,
                net::DeliveryKind::NextQuantum);

    EXPECT_EQ(batch.stagedBetween(0, 3), 1u);
    EXPECT_EQ(batch.stagedBetween(1, 1), 1u);
    EXPECT_EQ(batch.stagedBetween(3, 3), 1u);
    std::size_t occupied = 0;
    for (std::size_t s = 0; s < 4; ++s)
        for (std::size_t d = 0; d < 4; ++d)
            occupied += batch.stagedBetween(s, d) != 0;
    EXPECT_EQ(occupied, 3u);
    EXPECT_EQ(batch.pending(), 3u);
    EXPECT_EQ(batch.totalStaged(), 3u);

    EXPECT_EQ(batch.mergeInto(cluster), 3u);
    EXPECT_EQ(batch.pending(), 0u);
    EXPECT_EQ(batch.totalMerged(), 3u);
    for (std::size_t s = 0; s < 4; ++s)
        for (std::size_t d = 0; d < 4; ++d)
            EXPECT_EQ(batch.stagedBetween(s, d), 0u) << s << d;
    EXPECT_EQ(orderViolations(), 0u);
}

TEST_F(Exchange, EmptySubRunsMergeToNothing)
{
    engine::DeliveryBatch batch(8, 4);
    // A fully empty exchange is legal at every destination.
    for (std::size_t s = 0; s < 4; ++s)
        batch.closeRun(s);
    for (std::size_t d = 0; d < 4; ++d)
        EXPECT_EQ(batch.mergeShard(d, cluster), 0u) << d;

    // One intra-shard delivery: only its own column sees it; idle
    // destination shards still merge nothing.
    for (std::size_t s = 0; s < 4; ++s)
        batch.beginQuantum(s);
    batch.stage(stagedPacket(0, 1, 5), 9,
                net::DeliveryKind::NextQuantum);
    for (std::size_t s = 0; s < 4; ++s)
        batch.closeRun(s);
    EXPECT_EQ(batch.mergeShard(1, cluster), 0u);
    EXPECT_EQ(batch.mergeShard(2, cluster), 0u);
    EXPECT_EQ(batch.mergeShard(3, cluster), 0u);
    EXPECT_EQ(batch.mergeShard(0, cluster), 1u);
    EXPECT_EQ(batch.pending(), 0u);
    EXPECT_EQ(orderViolations(), 0u);
}

TEST_F(Exchange, AllToOneIncastMergesOneColumnCanonically)
{
    // Every node floods node 0: the worst-case exchange shape, where
    // one destination column carries the entire quantum. Stage in
    // descending key order so the per-sub-run sort and the k-way
    // column merge both have to do real work.
    engine::DeliveryBatch batch(8, 4);
    std::size_t staged = 0;
    for (NodeId src = 0; src < 8; ++src) {
        for (Tick t = 4; t > 0; --t) {
            batch.stage(stagedPacket(src, 0, 100 * t + src),
                        1000 + 10 * t, net::DeliveryKind::NextQuantum);
            ++staged;
        }
    }
    for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_EQ(batch.stagedBetween(s, 0), 8u) << s;
        for (std::size_t d = 1; d < 4; ++d)
            EXPECT_EQ(batch.stagedBetween(s, d), 0u) << s << d;
        batch.closeRun(s);
    }
    EXPECT_EQ(batch.mergeShard(0, cluster), staged);
    for (std::size_t d = 1; d < 4; ++d)
        EXPECT_EQ(batch.mergeShard(d, cluster), 0u) << d;
    // The checker audited every emission for strict canonical order.
    EXPECT_EQ(orderViolations(), 0u);
    EXPECT_GT(checker.checksPerformed(), staged);
}

TEST_F(Exchange, DuplicateKeyTieMergesInStagingOrder)
{
    // Two deliveries with identical (when, src, departTick) — an
    // unjittered fault-injected duplicate. Both come from one source,
    // so they share a run and the staging index orders them the same
    // at every shard count: ShardMergeOrder audits that total order
    // and finds nothing to flag.
    engine::DeliveryBatch batch(8, 2);
    batch.stage(stagedPacket(3, 6, 40), 70,
                net::DeliveryKind::NextQuantum);
    batch.stage(stagedPacket(3, 6, 40), 70,
                net::DeliveryKind::NextQuantum);
    batch.closeRun(0);
    batch.closeRun(1);
    EXPECT_EQ(batch.mergeShard(1, cluster), 2u);
    EXPECT_EQ(orderViolations(), 0u);
}

TEST_F(Exchange, SingleShardIsTheDegenerateExchange)
{
    // K=1 (the SequentialEngine's configuration) is the one-cell
    // exchange: everything stages into (0, 0) and one merge drains
    // the whole quantum — no special-casing anywhere.
    engine::DeliveryBatch batch(8, 1);
    for (NodeId src = 0; src < 8; ++src)
        batch.stage(stagedPacket(src, 7 - src, 50 + src), 200,
                    net::DeliveryKind::NextQuantum);
    EXPECT_EQ(batch.numShards(), 1u);
    EXPECT_EQ(batch.stagedBetween(0, 0), 8u);
    EXPECT_EQ(batch.mergeInto(cluster), 8u);
    EXPECT_EQ(batch.pending(), 0u);
    EXPECT_EQ(orderViolations(), 0u);
}

TEST_F(Exchange, SubRunBuffersAreReusedAcrossQuanta)
{
    // Steady-state quanta must recycle the key and payload buffers:
    // capacities settle after the first quantum and never shrink or
    // reallocate while the traffic shape is stable.
    engine::DeliveryBatch batch(8, 2);
    const auto quantum = [&](Tick base) {
        for (std::size_t s = 0; s < 2; ++s)
            batch.beginQuantum(s);
        for (NodeId src = 0; src < 8; ++src)
            for (NodeId dst = 0; dst < 8; ++dst)
                batch.stage(
                    stagedPacket(src, dst, base + 8 * src + dst),
                    base + 64, net::DeliveryKind::NextQuantum);
        for (std::size_t s = 0; s < 2; ++s)
            batch.closeRun(s);
        for (std::size_t d = 0; d < 2; ++d)
            batch.mergeShard(d, cluster);
    };

    quantum(100);
    std::vector<std::size_t> caps;
    for (std::size_t s = 0; s < 2; ++s)
        for (std::size_t d = 0; d < 2; ++d) {
            EXPECT_EQ(batch.stagedBetween(s, d), 0u) << s << d;
            EXPECT_GE(batch.subRunCapacity(s, d), 16u) << s << d;
            caps.push_back(batch.subRunCapacity(s, d));
        }

    for (Tick base : {200, 300, 400})
        quantum(base);
    std::size_t i = 0;
    for (std::size_t s = 0; s < 2; ++s)
        for (std::size_t d = 0; d < 2; ++d)
            EXPECT_EQ(batch.subRunCapacity(s, d), caps[i++])
                << "sub-run (" << s << ", " << d
                << ") reallocated in steady state";
    EXPECT_EQ(batch.totalStaged(), 4u * 64u);
    EXPECT_EQ(batch.totalMerged(), 4u * 64u);
    EXPECT_EQ(orderViolations(), 0u);
}

// ---------------------------------------------------------------
// Cross-engine bit-identity matrix.
// ---------------------------------------------------------------

engine::ClusterParams
matrixParams(bool lossy)
{
    auto params = harness::defaultCluster(8, 13);
    if (lossy) {
        params.faults.dropRate = 0.05;
        params.mpiParams.reliable = true;
    }
    return params;
}

/**
 * Run one matrix cell: workers == 0 means the SequentialEngine,
 * otherwise the ThreadedEngine with that worker count (8 nodes, so 8
 * workers are not clamped away).
 */
engine::RunResult
runCell(std::size_t workers, const engine::ClusterParams &params,
        engine::EngineOptions options = {})
{
    auto workload = workloads::makeWorkload("burst", 8, 0.05);
    auto policy = core::parsePolicy("fixed:1us");
    if (workers == 0) {
        engine::SequentialEngine engine(options);
        return engine.run(params, *workload, *policy);
    }
    options.numWorkers = workers;
    engine::ThreadedEngine engine(options);
    return engine.run(params, *workload, *policy);
}

engine::RunResult
runMatrixCell(std::size_t workers, bool lossy,
              engine::EngineOptions options = {})
{
    return runCell(workers, matrixParams(lossy), std::move(options));
}

/** Every deterministic RunResult field (host time is wall-clock on
 * the threaded engine, so it is excluded by construction). */
void
expectBitIdentical(const engine::RunResult &a,
                   const engine::RunResult &b, const std::string &what)
{
    EXPECT_EQ(a.simTicks, b.simTicks) << what;
    EXPECT_EQ(a.quanta, b.quanta) << what;
    EXPECT_EQ(a.packets, b.packets) << what;
    EXPECT_EQ(a.stragglers, b.stragglers) << what;
    EXPECT_EQ(a.nextQuantumDeliveries, b.nextQuantumDeliveries)
        << what;
    EXPECT_EQ(a.latenessTicks, b.latenessTicks) << what;
    EXPECT_EQ(a.droppedFrames, b.droppedFrames) << what;
    EXPECT_EQ(a.retransmits, b.retransmits) << what;
    EXPECT_EQ(a.finishTicks, b.finishTicks) << what;
    EXPECT_EQ(a.metric, b.metric) << what;
    EXPECT_EQ(a.finalStateHash, b.finalStateHash) << what;
}

std::string
scratchDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("aqsim_shard_" + name);
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

TEST(ShardIdentity, EveryWorkerCountMatchesSequential)
{
    for (const bool lossy : {false, true}) {
        const auto golden = runMatrixCell(0, lossy);
        ASSERT_GT(golden.quanta, 4u);
        for (const std::size_t workers : {1ul, 2ul, 4ul, 8ul}) {
            const std::string what =
                std::string(lossy ? "lossy" : "clean") + " thr" +
                std::to_string(workers);
            expectBitIdentical(golden, runMatrixCell(workers, lossy),
                               what);
        }
    }
}

TEST(ShardIdentity, DuplicatedFramesMatchSequentialAtEveryWorkerCount)
{
    // An unjittered duplicate carries its original's (when, src,
    // departTick) key. Both copies are placed by the source node's
    // worker, in routing order, into one sub-run, so the merge's
    // staging-index tie orders them the same at every worker count
    // and the checker, auditing the merger's total order, passes.
    auto params = matrixParams(true);
    params.faults.duplicateRate = 0.05;
    auto &checker = check::InvariantChecker::instance();
    checker.reset();
    checker.setEnabled(true);
    const auto golden = runCell(0, params);
    EXPECT_GT(golden.packets, runMatrixCell(0, true).packets);
    for (const std::size_t workers : {1ul, 2ul, 4ul})
        expectBitIdentical(golden, runCell(workers, params),
                           "dup thr" + std::to_string(workers));
    const std::uint64_t violations = checker.totalViolations();
    checker.setEnabled(false);
    checker.reset();
    EXPECT_EQ(violations, 0u);
}

TEST(ShardIdentity, ValueFramesUnderEveryFaultMatchSequential)
{
    // A frame is a value: a duplicate copies it (inheriting a corrupt
    // flag set before the copy), and a cross-shard delivery is copied
    // out of the sender's staging row into the receiver's NIC pool.
    // Under drop, duplicate and corrupt faults with reliable delivery
    // the run must still equal the sequential engine's at K=1, 2, 4.
    auto params = matrixParams(true);
    params.faults.dropRate = 0.03;
    params.faults.duplicateRate = 0.1;
    params.faults.corruptRate = 0.05;
    const auto golden = runCell(0, params);
    EXPECT_GT(golden.droppedFrames, 0u);
    EXPECT_GT(golden.retransmits, 0u);
    // host= is measured on the threaded engine, modeled on the
    // sequential one; every other summary field must match.
    const auto summary = [](const engine::RunResult &r) {
        std::string s = r.summary();
        const auto host = s.find(" host=");
        const auto end = s.find(' ', host + 1);
        return s.erase(host, end - host);
    };
    for (const std::size_t workers : {1ul, 2ul, 4ul}) {
        const auto got = runCell(workers, params);
        const std::string what = "faulty thr" + std::to_string(workers);
        EXPECT_EQ(summary(got), summary(golden)) << what;
        EXPECT_EQ(got.finalStateHash, golden.finalStateHash) << what;
        expectBitIdentical(golden, got, what);
    }
}

TEST(ShardIdentity, RestoreAtGoldenQuantumMatchesAcrossEngines)
{
    // Mid-run checkpoint/restore leg of the matrix: every engine
    // config checkpoints, is "killed", restores from the mid-run
    // image with per-section divergence checking, and must land on
    // the sequential golden bit-for-bit.
    for (const bool lossy : {false, true}) {
        const auto golden = runMatrixCell(0, lossy);
        const std::uint64_t mid = golden.quanta / 2;
        ASSERT_GT(mid, 0u);
        int cell_id = 0;
        for (const std::size_t workers : {0ul, 1ul, 2ul, 4ul, 8ul}) {
            const std::string tag =
                std::string(lossy ? "lossy" : "clean") + "_w" +
                std::to_string(workers) + "_" +
                std::to_string(cell_id++);
            const std::string dir = scratchDir(tag);
            engine::EngineOptions ck;
            ck.checkpointEvery = 1;
            ck.checkpointDir = dir;
            ck.checkpointKeepLast = 0;
            expectBitIdentical(golden, runMatrixCell(workers, lossy, ck),
                               tag + " checkpointed");

            engine::EngineOptions restore;
            restore.restorePath = checkpointFile(dir, mid);
            const auto restored =
                runMatrixCell(workers, lossy, restore);
            expectBitIdentical(golden, restored, tag + " restored");
            EXPECT_EQ(restored.restoredFromQuantum, mid) << tag;
            std::filesystem::remove_all(dir);
        }
    }
}

std::string
slurpBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(ShardIdentity, CheckpointImagesByteIdenticalAcrossWorkerCounts)
{
    // The snapshot cut happens at the barrier with the shard runs
    // merged, and the engine-private section carries only
    // deterministic counters — so the image on disk must not depend
    // on how many workers produced it.
    const std::uint64_t probe = 3;
    std::string reference;
    std::size_t ref_workers = 0;
    for (const std::size_t workers : {1ul, 2ul, 4ul, 8ul}) {
        const std::string dir =
            scratchDir("bytes_w" + std::to_string(workers));
        engine::EngineOptions ck;
        ck.checkpointEvery = 1;
        ck.checkpointDir = dir;
        ck.checkpointKeepLast = 0;
        const auto result = runMatrixCell(workers, /*lossy=*/true, ck);
        ASSERT_GT(result.quanta, probe) << workers;
        const std::string image =
            slurpBytes(checkpointFile(dir, probe));
        ASSERT_FALSE(image.empty()) << workers;
        if (reference.empty()) {
            reference = image;
            ref_workers = workers;
        } else {
            EXPECT_EQ(image, reference)
                << "image at quantum " << probe << " differs between "
                << ref_workers << " and " << workers << " workers";
        }
        std::filesystem::remove_all(dir);
    }
}

} // namespace
