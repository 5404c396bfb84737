/** Tests for packet tracing, derived time series and ASCII plots. */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.hh"
#include "trace/ascii_plot.hh"
#include "trace/packet_trace.hh"
#include "trace/timeline.hh"

using namespace aqsim;
using namespace aqsim::trace;

namespace
{

harness::ExperimentOutput
tracedRun(const std::string &workload, std::size_t nodes)
{
    harness::ExperimentConfig config;
    config.workload = workload;
    config.numNodes = nodes;
    config.scale = 0.05;
    config.policySpec = "fixed:1us";
    config.recordTrace = true;
    config.engine.recordTimeline = true;
    return harness::runExperiment(config);
}

} // namespace

TEST(PacketTrace, CapturesEveryRoutedPacket)
{
    auto out = tracedRun("pingpong", 2);
    EXPECT_EQ(out.trace.size(), out.result.packets);
    for (const auto &rec : out.trace.records()) {
        EXPECT_LT(rec.src, 2u);
        EXPECT_LT(rec.dst, 2u);
        EXPECT_NE(rec.src, rec.dst);
        EXPECT_GT(rec.bytes, 0u);
    }
}

TEST(PacketTrace, TimesAreMonotoneNondecreasingPerPair)
{
    auto out = tracedRun("pingpong", 2);
    Tick last = 0;
    for (const auto &rec : out.trace.records()) {
        if (rec.src == 0) {
            EXPECT_GE(rec.time, last);
            last = rec.time;
        }
    }
}

TEST(PacketTrace, CsvDumpHasHeaderAndRows)
{
    auto out = tracedRun("pingpong", 2);
    std::ostringstream csv;
    out.trace.dumpCsv(csv);
    const std::string text = csv.str();
    EXPECT_NE(text.find("time,src,dst,bytes"), std::string::npos);
    // Header + one line per packet.
    std::size_t lines = 0;
    for (char c : text)
        if (c == '\n')
            ++lines;
    EXPECT_EQ(lines, out.trace.size() + 1);
}

TEST(PacketTrace, DensityBinsSumToTotal)
{
    auto out = tracedRun("nas.cg", 4);
    auto bins = out.trace.density(microseconds(100));
    std::uint64_t total = 0;
    for (auto b : bins)
        total += b;
    EXPECT_EQ(total, out.trace.size());
}

TEST(PacketTrace, EndTimeIsMaxRecord)
{
    auto out = tracedRun("pingpong", 2);
    Tick max_t = 0;
    for (const auto &r : out.trace.records())
        max_t = std::max(max_t, r.time);
    EXPECT_EQ(out.trace.endTime(), max_t);
}

TEST(AsciiPlot, TrafficMapHasOneRowPerNode)
{
    auto out = tracedRun("nas.cg", 4);
    const std::string map =
        renderTrafficMap(out.trace.records(), 4, 60);
    std::size_t lines = 0;
    for (char c : map)
        if (c == '\n')
            ++lines;
    // 4 node rows + 2 footer lines.
    EXPECT_EQ(lines, 6u);
    EXPECT_NE(map.find("time: 0 .."), std::string::npos);
}

TEST(AsciiPlot, EmptyTrafficHandled)
{
    EXPECT_EQ(renderTrafficMap({}, 4, 60), "(no traffic)\n");
}

TEST(AsciiPlot, LogSeriesRendersPoints)
{
    std::vector<double> xs{0, 1, 2, 3, 4};
    std::vector<double> ys{1, 10, 100, 10, 1};
    const std::string chart = renderLogSeries(xs, ys, 40, 10, "speedup");
    EXPECT_NE(chart.find('*'), std::string::npos);
    EXPECT_NE(chart.find("log scale"), std::string::npos);
}

TEST(AsciiPlot, FlatSeriesDoesNotDivideByZero)
{
    std::vector<double> xs{0, 1, 2};
    std::vector<double> ys{5, 5, 5};
    const std::string chart = renderLogSeries(xs, ys, 20, 5, "y");
    EXPECT_NE(chart.find('*'), std::string::npos);
}

TEST(Timeline, SpeedupSeriesReflectsReferenceRate)
{
    // Build a synthetic timeline: constant 10 host-ns per tick.
    std::vector<core::QuantumRecord> timeline;
    Tick start = 0;
    for (int i = 0; i < 100; ++i) {
        core::QuantumRecord rec;
        rec.start = start;
        rec.length = microseconds(10);
        rec.hostNs = 10.0 * static_cast<double>(rec.length);
        timeline.push_back(rec);
        start += rec.length;
    }
    // Reference rate 100 ns/tick: speedup must be 10 everywhere.
    auto series =
        speedupOverTime(timeline, 100.0, microseconds(100));
    ASSERT_FALSE(series.empty());
    for (const auto &pt : series)
        EXPECT_NEAR(pt.value, 10.0, 1e-9);
}

TEST(Timeline, WindowsTileSimTime)
{
    std::vector<core::QuantumRecord> timeline;
    Tick start = 0;
    for (int i = 0; i < 10; ++i) {
        core::QuantumRecord rec;
        rec.start = start;
        rec.length = microseconds(3);
        rec.hostNs = 1.0;
        rec.packets = static_cast<std::uint64_t>(i);
        timeline.push_back(rec);
        start += rec.length;
    }
    auto traffic = trafficOverTime(timeline, microseconds(6));
    // 10 quanta of 3us into 6us windows -> 5 windows.
    EXPECT_EQ(traffic.size(), 5u);
    double total = 0;
    for (const auto &pt : traffic)
        total += pt.value;
    EXPECT_DOUBLE_EQ(total, 45.0); // sum 0..9
}

TEST(Timeline, QuantumSeriesTracksPolicy)
{
    std::vector<core::QuantumRecord> timeline;
    Tick start = 0;
    for (int i = 0; i < 4; ++i) {
        core::QuantumRecord rec;
        rec.start = start;
        rec.length = microseconds(static_cast<std::uint64_t>(1 + i));
        rec.hostNs = 1.0;
        timeline.push_back(rec);
        start += rec.length;
    }
    auto series = quantumOverTime(timeline, microseconds(100));
    ASSERT_EQ(series.size(), 1u);
    EXPECT_DOUBLE_EQ(series[0].value, (1000 + 2000 + 3000 + 4000) / 4.0);
}

TEST(Timeline, RealRunSpeedupSeriesIsPositive)
{
    auto gt = tracedRun("nas.cg", 4);
    const double ref_rate =
        gt.result.hostNs / static_cast<double>(gt.result.simTicks);

    harness::ExperimentConfig config;
    config.workload = "nas.cg";
    config.numNodes = 4;
    config.scale = 0.05;
    config.policySpec = "fixed:100us";
    config.engine.recordTimeline = true;
    auto fast = harness::runExperiment(config);

    auto series = speedupOverTime(fast.result.timeline, ref_rate,
                                  milliseconds(1));
    ASSERT_FALSE(series.empty());
    for (const auto &pt : series)
        EXPECT_GT(pt.value, 1.0);
}
