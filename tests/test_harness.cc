/** Tests for the experiment harness, Pareto logic and reporting. */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.hh"
#include "harness/pareto.hh"
#include "net/topology.hh"
#include "workloads/workload.hh"
#include "engine/sequential_engine.hh"
#include "harness/report.hh"

using namespace aqsim;
using namespace aqsim::harness;

TEST(HarnessConfig, PaperNetworkMatchesSection4)
{
    auto net = paperNetwork();
    EXPECT_EQ(net.nic.mtu, 9000u);                  // jumbo frames
    EXPECT_DOUBLE_EQ(net.nic.bytesPerNs, 10.0);     // 10 GB/s
    EXPECT_EQ(net.nic.txLatency + net.nic.rxLatency,
              microseconds(1)); // 1 us minimum latency
    EXPECT_EQ(net.switchModel, nullptr); // perfect switch
}

TEST(HarnessConfig, PaperConfigListMatchesFigures)
{
    auto configs = paperConfigs();
    ASSERT_EQ(configs.size(), 5u);
    EXPECT_EQ(configs[0].label, "10");
    EXPECT_EQ(configs[1].label, "100");
    EXPECT_EQ(configs[2].label, "1k");
    EXPECT_EQ(configs[3].label, "dyn 1k 1.03:0.02");
    EXPECT_EQ(configs[4].label, "dyn 1k 1.05:0.02");
}

TEST(Harness, GroundTruthIsCached)
{
    Harness harness(0.05);
    const auto &a = harness.groundTruth("pingpong", 2);
    const auto &b = harness.groundTruth("pingpong", 2);
    EXPECT_EQ(&a, &b); // same object, not re-run
    EXPECT_EQ(a.policy, "fixed 1us");
}

TEST(Harness, ErrorOfGroundTruthAgainstItselfIsZero)
{
    Harness harness(0.05);
    auto gt = harness.run("pingpong", 2, groundTruthSpec);
    EXPECT_DOUBLE_EQ(harness.error(gt), 0.0);
    EXPECT_DOUBLE_EQ(harness.speedup(gt), 1.0);
}

TEST(Harness, CoarseQuantumIsFasterAndLessAccurate)
{
    Harness harness(0.05);
    auto coarse = harness.run("nas.is", 4, "fixed:100us");
    EXPECT_GT(harness.speedup(coarse), 2.0);
    EXPECT_GT(harness.error(coarse), 0.0);
}

TEST(Harness, HarmonicMeanMatchesDefinition)
{
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 3.0}), 1.5);
    EXPECT_DOUBLE_EQ(harmonicMean({4.0}), 4.0);
    // Harmonic mean is dominated by the smallest element — exactly
    // why a single catastrophic IS run wrecks the NAS aggregate.
    EXPECT_LT(harmonicMean({0.1, 100.0, 100.0}),  0.4);
}

TEST(RunResultHelpers, AccuracyErrorIsRelative)
{
    engine::RunResult gt;
    gt.metric = 200.0;
    gt.hostNs = 1000.0;
    gt.simTicks = 100;
    engine::RunResult run = gt;
    run.metric = 150.0;
    run.hostNs = 100.0;
    run.simTicks = 140;
    EXPECT_DOUBLE_EQ(engine::accuracyError(run, gt), 0.25);
    EXPECT_DOUBLE_EQ(engine::speedup(run, gt), 10.0);
    EXPECT_DOUBLE_EQ(engine::simTimeRatio(run, gt), 1.4);
}

TEST(Pareto, ExtractsNonDominatedPoints)
{
    std::vector<TradeoffPoint> points{
        {"a", 0.01, 5.0},  // optimal (lowest error)
        {"b", 0.05, 20.0}, // optimal
        {"c", 0.10, 10.0}, // dominated by b
        {"d", 0.80, 60.0}, // optimal (fastest)
        {"e", 0.90, 60.0}, // dominated by d
    };
    auto front = paretoFront(points);
    ASSERT_EQ(front.size(), 3u);
    EXPECT_EQ(points[front[0]].label, "a");
    EXPECT_EQ(points[front[1]].label, "b");
    EXPECT_EQ(points[front[2]].label, "d");
    EXPECT_TRUE(isParetoOptimal(points, 0));
    EXPECT_FALSE(isParetoOptimal(points, 2));
    EXPECT_FALSE(isParetoOptimal(points, 4));
}

TEST(Pareto, EqualPointsDominateEachOtherSymmetrically)
{
    std::vector<TradeoffPoint> points{
        {"a", 0.1, 10.0},
        {"b", 0.1, 10.0},
    };
    // Identical points: neither strictly better, both optimal.
    EXPECT_TRUE(isParetoOptimal(points, 0));
    EXPECT_TRUE(isParetoOptimal(points, 1));
}

TEST(Pareto, SinglePointIsOptimal)
{
    std::vector<TradeoffPoint> points{{"only", 0.5, 2.0}};
    EXPECT_EQ(paretoFront(points).size(), 1u);
}

TEST(Report, TableAlignsColumns)
{
    Table t({"config", "speedup"});
    t.addRow({"10", "9.1x"});
    t.addRow({"dyn 1k 1.03:0.02", "26.0x"});
    std::ostringstream out;
    t.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("config"), std::string::npos);
    EXPECT_NE(text.find("dyn 1k 1.03:0.02"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Report, TableCsvEscapes)
{
    Table t({"a", "b"});
    t.addRow({"x,y", "2"});
    std::ostringstream out;
    t.printCsv(out);
    EXPECT_EQ(out.str(), "a,b\n\"x,y\",2\n");
}

TEST(Report, Formatters)
{
    EXPECT_EQ(fmtPercent(0.034), "3.40%");
    EXPECT_EQ(fmtPercent(0.85), "85.0%");
    EXPECT_EQ(fmtPercent(10.4), "1040%");
    EXPECT_EQ(fmtSpeedup(26.04), "26.0x");
    EXPECT_EQ(fmtRatio(150.2), "150x");
    EXPECT_EQ(fmtRatio(1.57), "1.57x");
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
}

TEST(Harness, SeedChangesResultsScaleChangesDuration)
{
    Harness a(0.05, 1);
    Harness b(0.05, 2);
    auto ra = a.run("nas.cg", 2, "fixed:10us");
    auto rb = b.run("nas.cg", 2, "fixed:10us");
    EXPECT_NE(ra.hostNs, rb.hostNs);
}

TEST(Harness, EngineRecordTimelineYieldsTimeline)
{
    // The engine option alone asks for the per-quantum timeline.
    ExperimentConfig config;
    config.workload = "pingpong";
    config.numNodes = 2;
    config.scale = 0.05;
    config.policySpec = "fixed:10us";
    config.engine.recordTimeline = true;
    const auto out = runExperiment(config);
    EXPECT_FALSE(out.result.timeline.empty());
    EXPECT_EQ(out.result.timeline.size(), out.result.quanta);
}

TEST(SafeQuantum, MatchesControllerMinimumLatency)
{
    const Tick t = supervise::safeQuantumBound(defaultCluster(8));
    EXPECT_GE(t, microseconds(1));
    EXPECT_LE(t, microseconds(1) + 10);
}

TEST(SafeQuantum, GrowsWithTopologyLatency)
{
    auto params = defaultCluster(8);
    net::TopologyParams topo;
    topo.kind = net::TopologyKind::Ring;
    topo.hopLatency = microseconds(5);
    params.network.switchModel =
        std::make_shared<net::TopologySwitch>(8, topo);
    const Tick t = supervise::safeQuantumBound(params);
    // 5us one-hop traversal on top of the NIC latencies.
    EXPECT_GE(t, microseconds(6));
}

TEST(SafeQuantum, SafeFixedPolicyIsStragglerFreeOnSlowNetworks)
{
    auto params = defaultCluster(4, 1);
    net::TopologyParams topo;
    topo.kind = net::TopologyKind::Torus2D;
    topo.hopLatency = microseconds(10);
    params.network.switchModel =
        std::make_shared<net::TopologySwitch>(4, topo);
    const Tick t = supervise::safeQuantumBound(params);
    EXPECT_GT(t, microseconds(10));

    auto workload = workloads::makeWorkload("burst", 4, 0.1);
    core::FixedQuantumPolicy policy(t);
    engine::SequentialEngine engine;
    auto result = engine.run(params, *workload, policy);
    EXPECT_EQ(result.stragglers, 0u);
    // And the coarser safe quantum needs fewer barriers than 1us.
    auto workload2 = workloads::makeWorkload("burst", 4, 0.1);
    core::FixedQuantumPolicy fine(microseconds(1));
    engine::SequentialEngine engine2;
    auto gt = engine2.run(params, *workload2, fine);
    EXPECT_LT(result.quanta, gt.quanta);
    EXPECT_LT(result.hostNs, gt.hostNs);
}
