/** Tests for multi-hop topology switch models. */

#include <gtest/gtest.h>

#include "ckpt/ckpt_io.hh"
#include "net/topology.hh"
#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::net;

TEST(Topology, ParseAndName)
{
    EXPECT_EQ(parseTopology("star"), TopologyKind::Star);
    EXPECT_EQ(parseTopology("ring"), TopologyKind::Ring);
    EXPECT_EQ(parseTopology("mesh"), TopologyKind::Mesh2D);
    EXPECT_EQ(parseTopology("torus"), TopologyKind::Torus2D);
    EXPECT_EQ(parseTopology("tree"), TopologyKind::Tree2Level);
    EXPECT_EQ(topologyName(TopologyKind::Ring), "ring");
    EXPECT_EXIT(parseTopology("blob"), ::testing::ExitedWithCode(1),
                "unknown topology");
}

TEST(Topology, StarIsOneHopEverywhere)
{
    TopologyParams params;
    params.kind = TopologyKind::Star;
    TopologySwitch sw(8, params);
    for (NodeId a = 0; a < 8; ++a)
        for (NodeId b = 0; b < 8; ++b)
            EXPECT_EQ(sw.hops(a, b), a == b ? 0u : 1u);
    EXPECT_EQ(sw.diameter(), 1u);
}

TEST(Topology, RingUsesShortestDirection)
{
    TopologyParams params;
    params.kind = TopologyKind::Ring;
    TopologySwitch sw(8, params);
    EXPECT_EQ(sw.hops(0, 1), 1u);
    EXPECT_EQ(sw.hops(0, 4), 4u);
    EXPECT_EQ(sw.hops(0, 7), 1u); // wraps
    EXPECT_EQ(sw.hops(6, 1), 3u);
    EXPECT_EQ(sw.diameter(), 4u);
}

TEST(Topology, MeshManhattanDistance)
{
    TopologyParams params;
    params.kind = TopologyKind::Mesh2D;
    TopologySwitch sw(16, params); // 4x4
    EXPECT_EQ(sw.hops(0, 3), 3u);   // same row
    EXPECT_EQ(sw.hops(0, 12), 3u);  // same column
    EXPECT_EQ(sw.hops(0, 15), 6u);  // opposite corner
    EXPECT_EQ(sw.diameter(), 6u);
}

TEST(Topology, TorusWrapsBothAxes)
{
    TopologyParams params;
    params.kind = TopologyKind::Torus2D;
    TopologySwitch sw(16, params); // 4x4
    EXPECT_EQ(sw.hops(0, 3), 1u);  // row wrap
    EXPECT_EQ(sw.hops(0, 12), 1u); // column wrap
    EXPECT_EQ(sw.hops(0, 15), 2u);
    EXPECT_EQ(sw.diameter(), 4u);
}

TEST(Topology, TreeSameLeafVsCrossLeaf)
{
    TopologyParams params;
    params.kind = TopologyKind::Tree2Level;
    params.radix = 4;
    TopologySwitch sw(16, params);
    EXPECT_EQ(sw.hops(0, 3), 1u);  // same leaf
    EXPECT_EQ(sw.hops(0, 4), 3u);  // via root
    EXPECT_EQ(sw.diameter(), 3u);
}

TEST(Topology, EgressPricesHopsAndSerialization)
{
    TopologyParams params;
    params.kind = TopologyKind::Ring;
    params.hopLatency = 100;
    params.bytesPerNs = 10.0;
    params.contention = false;
    TopologySwitch sw(8, params);
    // 3 hops * 100 + 1000B/10.
    EXPECT_EQ(sw.egress(0, 3, 1000, 5000), 5000u + 300u + 100u);
}

TEST(Topology, ContentionQueuesOnDestinationPort)
{
    TopologyParams params;
    params.kind = TopologyKind::Star;
    params.hopLatency = 100;
    params.bytesPerNs = 1.0;
    TopologySwitch sw(4, params);
    EXPECT_EQ(sw.egress(0, 1, 1000, 0), 1100u);
    EXPECT_EQ(sw.egress(2, 1, 1000, 0), 2100u); // queues
    EXPECT_EQ(sw.egress(2, 3, 1000, 0), 1100u); // another port does not
    sw.reset();
    EXPECT_EQ(sw.egress(2, 1, 1000, 0), 1100u);
}

TEST(Topology, CheckpointCarriesPortOccupancy)
{
    TopologyParams params;
    params.kind = TopologyKind::Star;
    params.hopLatency = 100;
    params.bytesPerNs = 1.0;
    TopologySwitch idle(4, params);
    TopologySwitch busy(4, params);
    busy.egress(0, 1, 1000, 0);
    ckpt::Writer a;
    ckpt::Writer b;
    idle.serialize(a);
    busy.serialize(b);
    EXPECT_NE(a.buffer(), b.buffer());
}

TEST(Topology, MinTraversalIsOneHop)
{
    TopologyParams params;
    params.kind = TopologyKind::Mesh2D;
    params.hopLatency = 250;
    TopologySwitch sw(16, params);
    EXPECT_EQ(sw.minTraversal(), 250u);
}

TEST(Topology, SymmetricHops)
{
    for (TopologyKind kind :
         {TopologyKind::Ring, TopologyKind::Mesh2D,
          TopologyKind::Torus2D, TopologyKind::Tree2Level}) {
        TopologyParams params;
        params.kind = kind;
        TopologySwitch sw(12, params);
        for (NodeId a = 0; a < 12; ++a)
            for (NodeId b = 0; b < 12; ++b)
                EXPECT_EQ(sw.hops(a, b), sw.hops(b, a))
                    << topologyName(kind) << " " << a << "," << b;
    }
}

TEST(Topology, ClusterRunsConservativelyOnEveryTopology)
{
    // End-to-end: a cluster over each topology still satisfies the
    // conservative no-straggler guarantee when Q <= T.
    for (const char *name : {"star", "ring", "mesh", "torus", "tree"}) {
        auto workload = workloads::makeWorkload("burst", 8, 0.05);
        auto policy = core::parsePolicy("fixed:1us");
        auto params = harness::defaultCluster(8, 1);
        TopologyParams topo;
        topo.kind = parseTopology(name);
        params.network.switchModel =
            std::make_shared<TopologySwitch>(8, topo);
        engine::SequentialEngine engine;
        auto result = engine.run(params, *workload, *policy);
        EXPECT_EQ(result.stragglers, 0u) << name;
        EXPECT_GT(result.simTicks, 0u) << name;
    }
}

TEST(Topology, MoreHopsMeansLongerRuntime)
{
    auto run_with = [](TopologyKind kind) {
        auto workload = workloads::makeWorkload("pingpong", 8, 0.2);
        auto policy = core::parsePolicy("fixed:1us");
        auto params = harness::defaultCluster(8, 1);
        TopologyParams topo;
        topo.kind = kind;
        topo.hopLatency = 1000;
        params.network.switchModel =
            std::make_shared<TopologySwitch>(8, topo);
        engine::SequentialEngine engine;
        return engine.run(params, *workload, *policy).simTicks;
    };
    // Ring neighbors (0<->1 pairs) are 1 hop on both, but the star
    // run and ring run should match; a tree with radix 1 forces
    // 3 hops for every pair.
    auto run_tree = [](std::size_t radix) {
        auto workload = workloads::makeWorkload("pingpong", 8, 0.2);
        auto policy = core::parsePolicy("fixed:1us");
        auto params = harness::defaultCluster(8, 1);
        TopologyParams topo;
        topo.kind = TopologyKind::Tree2Level;
        topo.radix = radix;
        topo.hopLatency = 1000;
        params.network.switchModel =
            std::make_shared<TopologySwitch>(8, topo);
        engine::SequentialEngine engine;
        return engine.run(params, *workload, *policy).simTicks;
    };
    EXPECT_EQ(run_with(TopologyKind::Star),
              run_with(TopologyKind::Ring));
    EXPECT_GT(run_tree(1), run_tree(8));
}
