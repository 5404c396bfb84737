/**
 * @file
 * Sharded-kernel tests: the exchange's counting-sort merge
 * (engine::DeliveryBatch) in isolation, the cross-engine bit-identity
 * matrix ((SequentialEngine, ThreadedEngine x 1/2/4/8 workers) x
 * (clean, 5% loss + reliable) x mid-run checkpoint/restore), and
 * byte-identity of checkpoint images across worker counts — the
 * acceptance gates of the per-shard event-queue refactor
 * (docs/performance.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "base/random.hh"
#include "check/invariants.hh"
#include "ckpt/checkpoint.hh"
#include "engine/delivery_batch.hh"
#include "engine/threaded_engine.hh"
#include "net/packet.hh"
#include "test_util.hh"

using namespace aqsim;

namespace
{

using engine::StagedKey;

net::Packet
stagedPacket(NodeId src, NodeId dst, Tick depart)
{
    net::Packet pkt = test::frame(src, dst, 256, depart);
    pkt.idealArrival = depart + 1;
    return pkt;
}

/** One delivery as the exchange dispatched it; the frame's id is the
 * test's staging sequence number. */
struct Dispatched
{
    NodeId dst;
    Tick when;
    NodeId src;
    Tick depart;
    std::uint64_t tag;
};

/** Stage @p pkt at @p when, tagging it with its staging position. */
void
stageTagged(engine::DeliveryBatch &batch, net::Packet pkt, Tick when,
            std::uint64_t tag)
{
    pkt.id = tag;
    batch.stage(pkt, when, net::DeliveryKind::NextQuantum);
}

/** Drain every column of @p batch in dispatch order. */
std::vector<Dispatched>
drainAll(engine::DeliveryBatch &batch)
{
    std::vector<Dispatched> out;
    for (std::size_t d = 0; d < batch.numShards(); ++d) {
        batch.drainColumn(d, [&](const StagedKey &key,
                                 const net::Packet &pkt,
                                 net::DeliveryKind) {
            EXPECT_EQ(key.dst, pkt.dst);
            out.push_back(Dispatched{pkt.dst, key.when, pkt.src,
                                     pkt.departTick, pkt.id});
        });
    }
    for (std::size_t s = 0; s < batch.numShards(); ++s)
        batch.beginQuantum(s);
    return out;
}

/** Each node's deliveries, in the order they were dispatched. */
std::map<NodeId, std::vector<Dispatched>>
perNode(const std::vector<Dispatched> &order)
{
    std::map<NodeId, std::vector<Dispatched>> nodes;
    for (const Dispatched &d : order)
        nodes[d.dst].push_back(d);
    return nodes;
}

/** The reference: each node's deliveries sorted by (when, src,
 * depart), staging order breaking the ties of duplicates. */
std::map<NodeId, std::vector<Dispatched>>
referenceOrder(std::vector<Dispatched> staged)
{
    std::stable_sort(staged.begin(), staged.end(),
                     [](const Dispatched &a, const Dispatched &b) {
                         return std::tie(a.when, a.src, a.depart) <
                                std::tie(b.when, b.src, b.depart);
                     });
    return perNode(staged);
}

std::vector<std::uint64_t>
tags(const std::vector<Dispatched> &ds)
{
    std::vector<std::uint64_t> out;
    for (const Dispatched &d : ds)
        out.push_back(d.tag);
    return out;
}

/** Expect @p order to give every node exactly @p staged's deliveries
 * to it in canonical order, grouped node-major. */
void
expectCanonicalPerNode(const std::vector<Dispatched> &order,
                       const std::vector<Dispatched> &staged,
                       const std::string &what)
{
    ASSERT_EQ(order.size(), staged.size()) << what;
    const auto got = perNode(order);
    const auto want = referenceOrder(staged);
    ASSERT_EQ(got.size(), want.size()) << what;
    for (const auto &[node, list] : want)
        EXPECT_EQ(tags(got.at(node)), tags(list))
            << what << " node " << node;
    // Node-major: once the dispatch leaves a node, it never returns.
    std::vector<NodeId> seen;
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0 && order[i].dst == order[i - 1].dst)
            continue;
        EXPECT_EQ(std::count(seen.begin(), seen.end(), order[i].dst), 0)
            << what << " node " << order[i].dst << " split";
        seen.push_back(order[i].dst);
    }
}

// ---------------------------------------------------------------
// The exchange's per-node merge (DeliveryBatch::drainColumn): a
// counting sort by destination, then canonical order per node.
// ---------------------------------------------------------------

TEST(RunMerge, SortRunOrdersByCanonicalKey)
{
    // One source shard, staged out of order to one node: the slice
    // comes out by (when, src, departTick), then staging order.
    engine::DeliveryBatch batch(8, 1);
    const std::vector<Dispatched> staged = {
        {4, 20, 1, 5, 0}, {4, 10, 2, 9, 1}, {4, 10, 2, 3, 2},
        {4, 10, 1, 3, 3}, {4, 20, 1, 5, 4},
    };
    for (const Dispatched &d : staged)
        stageTagged(batch, stagedPacket(d.src, d.dst, d.depart), d.when,
                    d.tag);
    const auto order = drainAll(batch);
    EXPECT_EQ(tags(order), (std::vector<std::uint64_t>{3, 2, 1, 0, 4}));
    expectCanonicalPerNode(order, staged, "single run");
}

TEST(RunMerge, MergesInterleavedRunsCanonically)
{
    // Three source shards interleave their deliveries to one node.
    engine::DeliveryBatch batch(8, 4);
    const std::vector<Dispatched> staged = {
        {7, 10, 0, 1, 0}, {7, 30, 0, 2, 1}, {7, 15, 2, 1, 2},
        {7, 25, 2, 2, 3}, {7, 5, 4, 1, 4}, {7, 40, 4, 2, 5},
    };
    for (const Dispatched &d : staged)
        stageTagged(batch, stagedPacket(d.src, d.dst, d.depart), d.when,
                    d.tag);
    const auto order = drainAll(batch);
    EXPECT_EQ(tags(order),
              (std::vector<std::uint64_t>{4, 0, 2, 3, 1, 5}));
    expectCanonicalPerNode(order, staged, "interleaved");
}

TEST(RunMerge, TieBreaksOnSourceThenDepart)
{
    // Same arrival tick everywhere: src decides, then departTick (a
    // total order because departTick strictly increases per source).
    engine::DeliveryBatch batch(8, 2);
    const std::vector<Dispatched> staged = {
        {6, 10, 5, 7, 0}, {6, 10, 2, 9, 1}, {6, 10, 1, 3, 2},
        {6, 10, 2, 4, 3},
    };
    for (const Dispatched &d : staged)
        stageTagged(batch, stagedPacket(d.src, d.dst, d.depart), d.when,
                    d.tag);
    const auto order = drainAll(batch);
    EXPECT_EQ(tags(order), (std::vector<std::uint64_t>{2, 3, 1, 0}));
}

TEST(RunMerge, SkipsEmptyShardsAndHandlesSingleRun)
{
    // Only source shard 1 stages, into destination shard 2: every
    // other column drains nothing.
    engine::DeliveryBatch batch(9, 3);
    stageTagged(batch, stagedPacket(4, 7, 3), 9, 0);
    stageTagged(batch, stagedPacket(4, 7, 1), 7, 1);
    for (std::size_t d = 0; d < 2; ++d)
        EXPECT_EQ(batch.drainColumn(
                      d, [](const StagedKey &, const net::Packet &,
                            net::DeliveryKind) { FAIL(); }),
                  0u);
    std::vector<Tick> whens;
    EXPECT_EQ(batch.drainColumn(2,
                                [&](const StagedKey &key,
                                    const net::Packet &,
                                    net::DeliveryKind) {
                                    whens.push_back(key.when);
                                }),
              2u);
    EXPECT_EQ(whens, (std::vector<Tick>{7, 9}));
    EXPECT_EQ(batch.pending(), 0u);
}

TEST(RunMerge, AllEmptyAndReuse)
{
    engine::DeliveryBatch batch(8, 2);
    EXPECT_TRUE(drainAll(batch).empty());
    // The lanes are reusable exchange after exchange.
    stageTagged(batch, stagedPacket(0, 5, 1), 1, 0);
    auto order = drainAll(batch);
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0].when, 1u);
    EXPECT_EQ(order[0].dst, 5u);
    EXPECT_TRUE(drainAll(batch).empty());
    stageTagged(batch, stagedPacket(6, 5, 2), 2, 1);
    order = drainAll(batch);
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0].src, 6u);
}

// ---------------------------------------------------------------
// K×K exchange partitioner (engine::DeliveryBatch).
// ---------------------------------------------------------------

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
    for (std::size_t d = 0; d < 4; ++d)
        EXPECT_EQ(batch.mergeShard(d, cluster), 0u) << d;

    // One intra-shard delivery: only its own column sees it; idle
    // destination shards still merge nothing.
    for (std::size_t s = 0; s < 4; ++s)
        batch.beginQuantum(s);
    batch.stage(stagedPacket(0, 1, 5), 9,
                net::DeliveryKind::NextQuantum);
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
    // descending key order so the per-node sort has real work.
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
    // so they share a row and the staging index orders them the same
    // at every shard count: ShardMergeOrder audits that total order
    // and finds nothing to flag.
    engine::DeliveryBatch batch(8, 2);
    batch.stage(stagedPacket(3, 6, 40), 70,
                net::DeliveryKind::NextQuantum);
    batch.stage(stagedPacket(3, 6, 40), 70,
                net::DeliveryKind::NextQuantum);
    EXPECT_EQ(batch.mergeShard(1, cluster), 2u);
    EXPECT_EQ(orderViolations(), 0u);
}

TEST_F(Exchange, RandomDeliveriesDispatchInPerNodeCanonicalOrder)
{
    // Random deliveries to random destinations, with duplicates of
    // equal keys, at K=1/2/4/8: every node receives its deliveries in
    // the reference order, whatever the shard count.
    constexpr std::size_t nodes = 24;
    for (const std::size_t shards : {1ul, 2ul, 4ul, 8ul}) {
        Rng rng(97 + shards);
        engine::DeliveryBatch batch(nodes, shards);
        for (int quantum = 0; quantum < 3; ++quantum) {
            std::vector<Dispatched> staged;
            std::vector<Tick> depart(nodes, 100);
            for (std::uint64_t tag = 0; tag < 400; ++tag) {
                Dispatched d;
                if (!staged.empty() && rng.uniformInt(0, 9) == 0) {
                    // An unjittered duplicate repeats its original's
                    // whole key.
                    d = staged[rng.uniformInt(0, staged.size() - 1)];
                } else {
                    const auto src = static_cast<NodeId>(
                        rng.uniformInt(0, nodes - 1));
                    auto dst = static_cast<NodeId>(
                        rng.uniformInt(0, nodes - 2));
                    if (dst >= src)
                        ++dst;
                    // Departures rise strictly per source.
                    depart[src] += 1 + rng.uniformInt(0, 3);
                    d = Dispatched{dst,
                                   depart[src] + 5 + rng.uniformInt(0, 40),
                                   src, depart[src], 0};
                }
                d.tag = tag;
                stageTagged(batch, stagedPacket(d.src, d.dst, d.depart),
                            d.when, d.tag);
                staged.push_back(d);
            }
            expectCanonicalPerNode(drainAll(batch), staged,
                                   "K=" + std::to_string(shards) +
                                       " quantum " +
                                       std::to_string(quantum));
        }
    }
}

TEST_F(Exchange, MergeLowersEachNodesWakeToItsEarliestDelivery)
{
    // mergeShard keeps the shard loop's wake ticks a lower bound on
    // each node's next event: a node that receives deliveries wakes
    // at the earliest of them; a node that receives none keeps its
    // tick.
    engine::DeliveryBatch batch(8, 2);
    std::vector<Tick> wake(8, maxTick);
    wake[1] = 60;
    batch.stage(stagedPacket(0, 5, 10), 90,
                net::DeliveryKind::NextQuantum);
    batch.stage(stagedPacket(6, 5, 11), 80,
                net::DeliveryKind::NextQuantum);
    batch.stage(stagedPacket(2, 1, 12), 70,
                net::DeliveryKind::NextQuantum);
    batch.stage(stagedPacket(3, 2, 13), 50,
                net::DeliveryKind::NextQuantum);
    EXPECT_EQ(batch.mergeShard(0, cluster, wake.data()), 2u);
    EXPECT_EQ(batch.mergeShard(1, cluster, wake.data()), 2u);
    EXPECT_EQ(wake[5], 80u);
    EXPECT_EQ(wake[1], 60u);
    EXPECT_EQ(wake[2], 50u);
    for (const NodeId untouched : {0u, 3u, 4u, 6u, 7u})
        EXPECT_EQ(wake[untouched], maxTick) << untouched;
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
 * Run one cell: workers == 0 means the SequentialEngine, otherwise
 * the ThreadedEngine with that worker count. The matrix runs burst on
 * 8 nodes, so 8 workers are not clamped away.
 */
engine::RunResult
runCell(std::size_t workers, const engine::ClusterParams &params,
        engine::EngineOptions options = {},
        const std::string &workload_name = "burst", double scale = 0.05,
        const std::string &policy_spec = "fixed:1us")
{
    auto workload =
        workloads::makeWorkload(workload_name, params.numNodes, scale);
    auto policy = core::parsePolicy(policy_spec);
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

// ---------------------------------------------------------------
// The shard loop's active set: idle nodes are skipped in conservative
// quanta and their clocks caught up before anything reads them.
// ---------------------------------------------------------------

/** Every image file in @p dir, by name. */
std::map<std::string, std::string>
imagesIn(const std::string &dir)
{
    std::map<std::string, std::string> images;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        images[entry.path().filename().string()] =
            slurpBytes(entry.path().string());
    return images;
}

/** The sections of image @p bytes that every engine writes alike:
 * all but the engine-private one. */
std::map<std::string, std::vector<std::uint8_t>>
sharedSections(const std::string &bytes)
{
    const std::vector<std::uint8_t> raw(bytes.begin(), bytes.end());
    ckpt::CheckpointImage image;
    ckpt::CkptError error;
    EXPECT_TRUE(ckpt::decodeImage(raw, image, error)) << error.str();
    std::map<std::string, std::vector<std::uint8_t>> out;
    for (const auto &section : image.sections)
        if (section.name != ckpt::sectionEngine)
            out[section.name] = section.body;
    return out;
}

TEST(ActiveSet, IdleNodesWriteTheSequentialImagesAtEveryWorkerCount)
{
    // nas.ep with node 3 paused for most of the run: after their
    // compute phase the other nodes idle for thousands of quanta,
    // skipped by the shard loop, while images every 250 quanta read
    // their clocks. The threaded images must be the same bytes at
    // every worker count, hold the sequential engine's state (which
    // snaps every node at every boundary) section for section, and
    // the final hash must match.
    auto params = harness::defaultCluster(16, 5);
    params.faults.nodePause.push_back(fault::NodeWindow{3, 0, 6'000'000});
    std::map<std::string, std::string> sequential;
    std::map<std::string, std::string> threaded;
    engine::RunResult golden;
    for (const std::size_t workers : {0ul, 1ul, 2ul, 4ul}) {
        const std::string what = "workers " + std::to_string(workers);
        const std::string dir =
            scratchDir("idle_w" + std::to_string(workers));
        engine::EngineOptions ck;
        ck.checkpointEvery = 250;
        ck.checkpointDir = dir;
        ck.checkpointKeepLast = 0;
        const auto result =
            runCell(workers, params, ck, "nas.ep", 0.25);
        const auto images = imagesIn(dir);
        std::filesystem::remove_all(dir);
        if (workers == 0) {
            // The pause stretches the run well past the compute phase.
            ASSERT_GT(result.quanta, 5000u);
            ASSERT_GE(images.size(), 20u);
            golden = result;
            sequential = images;
            continue;
        }
        expectBitIdentical(golden, result, what);
        ASSERT_EQ(images.size(), sequential.size()) << what;
        if (threaded.empty())
            threaded = images;
        for (const auto &[name, bytes] : sequential) {
            EXPECT_TRUE(images.at(name) == threaded.at(name))
                << what << " " << name;
            EXPECT_TRUE(sharedSections(images.at(name)) ==
                        sharedSections(bytes))
                << what << " " << name;
        }
    }
}

TEST(ActiveSet, DynQuantaAcrossTMatchOneWorker)
{
    // An adaptive policy between 1us (<= T: conservative, the loop
    // skips idle nodes and the mailbox handshake) and 1.1us (> T:
    // every node visited under the handshake), below the real
    // minimum frame latency, so no delivery lands inside a quantum
    // and the run is exact at every worker count.
    const auto params = harness::defaultCluster(16, 9);
    const std::string policy = "dyn:1.03:0.02:1us:1100ns";
    engine::EngineOptions options;
    options.recordTimeline = true;
    const auto golden =
        runCell(1, params, options, "nas.cg", 0.25, policy);
    auto probe_workload = workloads::makeWorkload("nas.cg", 16, 0.25);
    engine::Cluster probe(params, *probe_workload);
    const Tick t = probe.controller().minNetworkLatency();
    std::size_t conservative = 0;
    std::size_t full = 0;
    for (const core::QuantumRecord &rec : golden.timeline)
        ++(rec.length <= t ? conservative : full);
    EXPECT_GT(conservative, 100u);
    EXPECT_GT(full, 100u);
    EXPECT_EQ(golden.stragglers, 0u);
    for (const std::size_t workers : {2ul, 4ul})
        expectBitIdentical(
            golden, runCell(workers, params, {}, "nas.cg", 0.25, policy),
            "dyn workers " + std::to_string(workers));
}

} // namespace
