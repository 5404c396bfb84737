/** Tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/histogram.hh"
#include "stats/output.hh"
#include "stats/stats.hh"

using namespace aqsim::stats;

TEST(Scalar, AccumulatesAndResets)
{
    Group g("root");
    auto &s = g.add<Scalar>("count", "a counter");
    ++s;
    s += 4.5;
    EXPECT_DOUBLE_EQ(s.value(), 5.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Value, ReadsItsSourceAtEveryReadAndThroughTheBase)
{
    Group g("root");
    double count = 2.0;
    g.add<Value>("derived", "read from count", [&] { return count; });
    const auto *as_scalar =
        dynamic_cast<const Scalar *>(g.find("derived"));
    ASSERT_NE(as_scalar, nullptr);
    EXPECT_DOUBLE_EQ(as_scalar->value(), 2.0);
    count = 7.0;
    EXPECT_DOUBLE_EQ(as_scalar->value(), 7.0);
    EXPECT_DOUBLE_EQ(as_scalar->rows()[0].second, 7.0);
    // The owner clears the source; resetting the tree leaves it alone.
    g.resetAll();
    EXPECT_DOUBLE_EQ(as_scalar->value(), 7.0);
}

TEST(Average, TracksMeanMinMax)
{
    Group g("root");
    auto &a = g.add<Average>("lat", "latency");
    a.sample(10.0);
    a.sample(20.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 12.0);
    EXPECT_DOUBLE_EQ(a.min(), 6.0);
    EXPECT_DOUBLE_EQ(a.max(), 20.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Average, EmptyIsZero)
{
    Group g("root");
    auto &a = g.add<Average>("x", "");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
}

TEST(Log2Distribution, PowerOfTwoBuckets)
{
    Group g("root");
    auto &d = g.add<Log2Distribution>("d", "");
    d.sample(0); // bucket 0
    d.sample(1); // bucket 0
    d.sample(2); // bucket 1
    d.sample(3); // bucket 1
    d.sample(4); // bucket 2
    d.sample(1024); // bucket 10
    EXPECT_EQ(d.bucketCount(0), 2u);
    EXPECT_EQ(d.bucketCount(1), 2u);
    EXPECT_EQ(d.bucketCount(2), 1u);
    EXPECT_EQ(d.bucketCount(10), 1u);
    EXPECT_EQ(d.maxValue(), 1024u);
    EXPECT_EQ(d.totalSamples(), 6u);
}

TEST(Group, FindByDottedPath)
{
    Group root("cluster");
    auto &nic = root.addGroup("nic");
    auto &tx = nic.add<Scalar>("txBytes", "bytes");
    tx += 42.0;
    const Stat *found = root.find("nic.txBytes");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name(), "txBytes");
    EXPECT_EQ(root.find("nic.missing"), nullptr);
    EXPECT_EQ(root.find("missing.txBytes"), nullptr);
}

TEST(Group, ResetAllRecurses)
{
    Group root("cluster");
    auto &a = root.add<Scalar>("a", "");
    auto &child = root.addGroup("child");
    auto &b = child.add<Scalar>("b", "");
    a += 1;
    b += 2;
    root.resetAll();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(Output, TextDumpContainsPathsValuesAndDescriptions)
{
    Group root("cluster");
    auto &nic = root.addGroup("nic");
    auto &tx = nic.add<Scalar>("txBytes", "bytes transmitted");
    tx += 128.0;
    std::ostringstream out;
    dumpText(root, out);
    const std::string text = out.str();
    EXPECT_NE(text.find("cluster.nic.txBytes"), std::string::npos);
    EXPECT_NE(text.find("128"), std::string::npos);
    EXPECT_NE(text.find("bytes transmitted"), std::string::npos);
}

TEST(Output, CsvDumpHasHeaderAndRows)
{
    Group root("cluster");
    root.add<Scalar>("x", "desc");
    std::ostringstream out;
    dumpCsv(root, out);
    const std::string text = out.str();
    EXPECT_NE(text.find("path,label,value,description"),
              std::string::npos);
    EXPECT_NE(text.find("cluster.x"), std::string::npos);
}
