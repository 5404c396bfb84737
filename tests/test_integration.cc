/**
 * Integration tests: end-to-end checks that the system reproduces the
 * paper's qualitative results at reduced problem scale.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/pareto.hh"
#include "net/topology.hh"
#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::harness;

namespace
{

/** Shared harness so ground truths are computed once per suite. */
Harness &
sharedHarness()
{
    static Harness harness(0.08, 1);
    return harness;
}

} // namespace

TEST(Integration, SpeedupLadderIsMonotoneInQuantum)
{
    // Fig. 6/7 right charts: bigger quantum, bigger speedup.
    auto &h = sharedHarness();
    const double s10 = h.speedup(h.run("nas.cg", 4, "fixed:10us"));
    const double s100 = h.speedup(h.run("nas.cg", 4, "fixed:100us"));
    const double s1000 = h.speedup(h.run("nas.cg", 4, "fixed:1000us"));
    EXPECT_GT(s10, 1.0);
    EXPECT_GT(s100, s10);
    EXPECT_GT(s1000, s100);
}

TEST(Integration, AccuracyDegradesWithQuantumOnCommunicatingApps)
{
    auto &h = sharedHarness();
    const double e10 = h.error(h.run("nas.is", 4, "fixed:10us"));
    const double e1000 = h.error(h.run("nas.is", 4, "fixed:1000us"));
    EXPECT_LT(e10, e1000);
    EXPECT_GT(e1000, 0.3); // catastrophic at 1000us (paper: ~85%+)
}

TEST(Integration, AdaptiveBeatsFixed1000OnAccuracyByFar)
{
    auto &h = sharedHarness();
    const double e_dyn =
        h.error(h.run("nas.is", 4, "dyn:1.03:0.02:1us:1000us"));
    const double e_1000 = h.error(h.run("nas.is", 4, "fixed:1000us"));
    EXPECT_LT(e_dyn, e_1000 / 3.0);
}

TEST(Integration, AdaptiveIsMuchFasterThanGroundTruth)
{
    auto &h = sharedHarness();
    const double s_dyn =
        h.speedup(h.run("nas.ep", 4, "dyn:1.03:0.02:1us:1000us"));
    EXPECT_GT(s_dyn, 8.0); // paper: ~26x at 8 nodes, full scale
}

TEST(Integration, EpIsAccurateEvenWithAdaptive)
{
    auto &h = sharedHarness();
    const double err =
        h.error(h.run("nas.ep", 4, "dyn:1.05:0.02:1us:1000us"));
    EXPECT_LT(err, 0.05); // paper EP table: ~0.58% at 64 nodes
}

TEST(Integration, ErrorGrowsWithNodeCount)
{
    // Fig. 6: "having longer quanta is progressively more harmful
    // for accuracy as the number of nodes increases".
    auto &h = sharedHarness();
    const double e2 = h.error(h.run("nas.cg", 2, "fixed:1000us"));
    const double e8 = h.error(h.run("nas.cg", 8, "fixed:1000us"));
    EXPECT_GT(e8, e2);
}

TEST(Integration, IsSimTimeDilatesUnderCoarseQuanta)
{
    // Section 6 IS table: simulated execution-time ratio explodes
    // with fixed coarse quanta but stays near 1 with the adaptive
    // policy.
    // Dilation (ratio - 1) grows with the quantum and the adaptive
    // policy recovers most of it. The paper's 150x headline needs the
    // 64-node long-chain configuration (bench/fig9_scaleout); at this
    // test's 8-node scale the effect is present but smaller.
    auto &h = sharedHarness();
    const auto &gt = h.groundTruth("nas.is", 8);
    const auto q1000 = h.run("nas.is", 8, "fixed:1000us");
    const auto dyn = h.run("nas.is", 8, "dyn:1.03:0.02:1us:1000us");
    const double dilation_q1000 = engine::simTimeRatio(q1000, gt) - 1.0;
    const double dilation_dyn = engine::simTimeRatio(dyn, gt) - 1.0;
    EXPECT_GT(dilation_q1000, 0.3);
    EXPECT_LT(dilation_dyn, dilation_q1000 / 3.0);
}

TEST(Integration, NamdAccuracyOrderingMatchesFig7)
{
    auto &h = sharedHarness();
    const double e10 = h.error(h.run("namd", 4, "fixed:10us"));
    const double e1000 = h.error(h.run("namd", 4, "fixed:1000us"));
    const double e_dyn =
        h.error(h.run("namd", 4, "dyn:1.03:0.02:1us:1000us"));
    EXPECT_LT(e10, e1000);
    EXPECT_LT(e_dyn, e1000);
}

TEST(Integration, AdaptiveConfigsLieOnOrNearParetoFront)
{
    // Fig. 8's headline: "All adaptive configurations lie in or very
    // near the Pareto curve".
    auto &h = sharedHarness();
    std::vector<TradeoffPoint> points;
    std::vector<bool> is_adaptive;
    for (const auto &config : paperConfigs()) {
        auto run = h.run("nas.cg", 4, config.spec);
        points.push_back(
            {config.label, h.error(run), h.speedup(run)});
        is_adaptive.push_back(config.label.rfind("dyn", 0) == 0);
    }
    auto front = paretoFront(points);
    // Every adaptive config is either on the front or within 20%
    // speedup of a front point with no worse error.
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!is_adaptive[i])
            continue;
        bool near_front = isParetoOptimal(points, i);
        for (std::size_t f : front) {
            if (points[f].error <= points[i].error &&
                points[f].speedup <= points[i].speedup * 1.2)
                near_front = true;
        }
        EXPECT_TRUE(near_front) << points[i].label;
    }
}

TEST(Integration, StragglersOnlyWithNonConservativeQuanta)
{
    auto &h = sharedHarness();
    for (const char *workload : {"nas.is", "namd", "nas.lu"}) {
        EXPECT_EQ(h.groundTruth(workload, 4).stragglers, 0u)
            << workload;
        EXPECT_GT(h.run(workload, 4, "fixed:1000us").stragglers, 0u)
            << workload;
    }
}

TEST(Integration, HostTimeDecomposesIntoQuanta)
{
    harness::ExperimentConfig config;
    config.workload = "nas.mg";
    config.numNodes = 4;
    config.scale = 0.08;
    config.policySpec = "dyn:1.05:0.02:1us:1000us";
    config.engine.recordTimeline = true;
    auto out = runExperiment(config);
    HostNs sum = 0.0;
    for (const auto &q : out.result.timeline)
        sum += q.hostNs;
    EXPECT_NEAR(sum, out.result.hostNs, out.result.hostNs * 1e-9);
    EXPECT_EQ(out.result.quanta, out.result.timeline.size());
}

TEST(Integration, SamplingCpuExtensionRunsAndStaysAccurate)
{
    // Paper future work: combining adaptive sync with node-simulator
    // sampling. The sampled run must complete with a metric close to
    // the detailed run (timing noise is small and zero-mean).
    auto workload = workloads::makeWorkload("nas.ep", 4, 0.08);
    auto policy = core::parsePolicy("dyn:1.03:0.02:1us:1000us");
    auto params = defaultCluster(4, 1);
    params.samplingCpu = true;
    params.sampling.detailFraction = 0.2;
    params.sampling.timingNoise = 0.02;
    engine::SequentialEngine engine;
    auto sampled = engine.run(params, *workload, *policy);

    auto workload2 = workloads::makeWorkload("nas.ep", 4, 0.08);
    auto policy2 = core::parsePolicy("dyn:1.03:0.02:1us:1000us");
    auto params2 = defaultCluster(4, 1);
    engine::SequentialEngine engine2;
    auto detailed = engine2.run(params2, *workload2, *policy2);

    EXPECT_GT(sampled.simTicks, 0u);
    EXPECT_NEAR(sampled.metric / detailed.metric, 1.0, 0.1);
    // Sampling makes the host cheaper.
    EXPECT_LT(sampled.hostNs, detailed.hostNs);
}

TEST(Integration, StoreAndForwardSwitchIncreasesLatencyNotCorrectness)
{
    auto workload = workloads::makeWorkload("pingpong", 2, 0.2);
    auto policy = core::parsePolicy("fixed:1us");
    auto params = defaultCluster(2, 1);
    // A star with output-port contention is a store-and-forward
    // switch: one hop, then serialization onto the destination port.
    net::TopologyParams star;
    star.hopLatency = microseconds(2);
    star.bytesPerNs = 10.0;
    params.network.switchModel =
        std::make_shared<net::TopologySwitch>(2, star);
    engine::SequentialEngine engine;
    auto result = engine.run(params, *workload, *policy);
    EXPECT_EQ(result.stragglers, 0u);

    auto workload2 = workloads::makeWorkload("pingpong", 2, 0.2);
    auto policy2 = core::parsePolicy("fixed:1us");
    auto perfect = defaultCluster(2, 1);
    engine::SequentialEngine engine2;
    auto base = engine2.run(perfect, *workload2, *policy2);
    // Store-and-forward adds per-hop latency: the run takes longer.
    EXPECT_GT(result.simTicks, base.simTicks);
}

TEST(Integration, Fig4_ConservativeReordersByLatencyNotArrival)
{
    // Paper Fig. 4: nodes 1 and 3 send to node 2 with different
    // network latencies; the packet that functionally arrives later
    // must still be *scheduled* earlier when its latency says so.
    // We use a ring topology: node 1 is 1 hop from node 2, node 3 is
    // 1 hop too, so use a tree with radix 2: node 3 is cross-leaf
    // (3 hops), node 1 same-leaf (1 hop).
    std::vector<std::pair<Rank, Tick>> arrivals;
    test::LambdaWorkload workload(
        [&](workloads::AppContext &ctx) -> sim::Process {
            if (ctx.rank() == 1) {
                // Sends first, but over the long path.
                co_await ctx.comm().send(2, 1, 256);
            } else if (ctx.rank() == 0) {
                // Sends a touch later, over the short path... same
                // leaf as 2? With radix 2: leaves {0,1}, {2,3}: so
                // rank 3 is same-leaf with 2, rank 1 cross-leaf.
                co_return;
            } else if (ctx.rank() == 3) {
                co_await ctx.delay(1500);
                co_await ctx.comm().send(2, 1, 256);
            } else {
                for (int i = 0; i < 2; ++i) {
                    mpi::Message m =
                        co_await ctx.comm().recv(mpi::anySource, 1);
                    arrivals.emplace_back(m.src, ctx.now());
                }
            }
        });
    auto policy = core::parsePolicy("fixed:1us");
    auto params = defaultCluster(4, 1);
    net::TopologyParams topo;
    topo.kind = net::TopologyKind::Tree2Level;
    topo.radix = 2;
    topo.hopLatency = 2000;    // 2us per hop: cross-leaf = 6us
    topo.contention = false;   // pure latency, as in the figure
    params.network.switchModel =
        std::make_shared<net::TopologySwitch>(4, topo);
    engine::SequentialEngine engine;
    engine.run(params, workload, *policy);

    ASSERT_EQ(arrivals.size(), 2u);
    // Rank 3 sent 1.5us later but over the 1-hop path; rank 1 sent
    // first over the 3-hop path. Rank 3's message must arrive first.
    EXPECT_EQ(arrivals[0].first, 3u);
    EXPECT_EQ(arrivals[1].first, 1u);
    EXPECT_LT(arrivals[0].second, arrivals[1].second);
}

TEST(Integration, StatsTreeExposesFullHierarchy)
{
    // The stats tree after a run must contain the controller,
    // per-node NIC and MPI groups with consistent totals.
    auto workload = workloads::makeWorkload("burst", 4, 0.05);
    auto policy = core::parsePolicy("fixed:1us");
    auto params = defaultCluster(4, 1);
    engine::Cluster cluster(params, *workload);
    engine::SequentialEngine engine;
    auto result = engine.run(cluster, *policy);

    const auto *routed =
        cluster.statsRoot().find("network.packets");
    ASSERT_NE(routed, nullptr);
    EXPECT_DOUBLE_EQ(routed->rows()[0].second,
                     static_cast<double>(result.packets));

    // Sum of per-node tx frames == routed packets (no broadcasts).
    double tx_total = 0.0;
    for (NodeId id = 0; id < 4; ++id) {
        const auto *tx = cluster.statsRoot().find(
            "node" + std::to_string(id) + ".nic.txFrames");
        ASSERT_NE(tx, nullptr);
        tx_total += tx->rows()[0].second;
    }
    EXPECT_DOUBLE_EQ(tx_total, static_cast<double>(result.packets));

    // MPI message counters exist per node.
    const auto *sent =
        cluster.statsRoot().find("node0.mpi.msgsSent");
    ASSERT_NE(sent, nullptr);
    EXPECT_GT(sent->rows()[0].second, 0.0);
}

TEST(Integration, NodeStatLookupsAreCachedLiveViews)
{
    // Node stats are no tree: a lookup makes a view of the owner's
    // counter (perfbench's readCluster path) and keeps it.
    auto workload = workloads::makeWorkload("burst", 4, 0.05);
    engine::Cluster cluster(defaultCluster(4, 1), *workload);
    const stats::Group &root = cluster.statsRoot();
    const auto *sent = dynamic_cast<const stats::Scalar *>(
        root.find("node3.mpi.msgsSent"));
    ASSERT_NE(sent, nullptr);
    EXPECT_EQ(sent->name(), "msgsSent");
    EXPECT_DOUBLE_EQ(sent->value(), 0.0);
    EXPECT_EQ(root.find("node3.mpi.msgsSent"), sent);

    engine::SequentialEngine engine;
    engine.run(cluster, *core::parsePolicy("fixed:1us"));
    EXPECT_DOUBLE_EQ(sent->value(), static_cast<double>(
                                        cluster.endpoint(3).messagesSent()));
    EXPECT_GT(sent->value(), 0.0);

    for (const char *missing :
         {"node4.mpi.msgsSent", "node.mpi.msgsSent", "nodeX.nic.txBytes",
          "node0.nic.missing", "node0.disk.txBytes", "node0.nic",
          "node99999999999999999999.nic.txBytes",
          "node0.mpi.messageLatency"})
        EXPECT_EQ(root.find(missing), nullptr) << missing;
}
