/** Tests for packets and switch timing models. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "base/types.hh"
#include "net/packet.hh"
#include "net/switch_model.hh"
#include "net/topology.hh"

using namespace aqsim;
using namespace aqsim::net;

TEST(Packet, ToStringContainsEndpoints)
{
    Packet pkt;
    pkt.src = 3;
    pkt.dst = 7;
    pkt.bytes = 64;
    const std::string s = pkt.toString();
    EXPECT_NE(s.find("3->7"), std::string::npos);
    EXPECT_NE(s.find("64B"), std::string::npos);
}

TEST(PerfectSwitch, ZeroLatencyInfiniteBandwidth)
{
    PerfectSwitch sw;
    EXPECT_EQ(sw.egress(0, 1, 9000, 555), 555u);
    EXPECT_EQ(sw.egress(0, 1, 9000, 555), 555u); // no port occupancy
    EXPECT_EQ(sw.minTraversal(), 0u);
}

TEST(TopologySwitch, ResetClearsPortState)
{
    TopologyParams star;
    star.hopLatency = 10;
    star.bytesPerNs = 1.0;
    TopologySwitch sw(2, star);
    sw.egress(0, 1, 5000, 0);
    sw.reset();
    EXPECT_EQ(sw.egress(0, 1, 1000, 0), 1010u);
}

TEST(TopologySwitch, FractionalBandwidthRoundsUp)
{
    TopologyParams star;
    star.hopLatency = 1;
    star.bytesPerNs = 3.0;
    TopologySwitch sw(2, star);
    // 10 bytes at 3 B/ns = 3.33 ns -> ceil 4, after the 1 ns hop.
    EXPECT_EQ(sw.egress(0, 1, 10, 0), 5u);
}

namespace
{

/**
 * Sources on different worker threads share a stateful switch's output
 * ports. Frames that all enter at t=0 for one port queue one behind
 * another whatever order the threads reach it in, so the exit ticks
 * are exactly first + k * serialization for k = 0..N-1; a lost port
 * update would repeat one of them.
 */
void
expectConcurrentEgressQueues(SwitchModel &sw)
{
    constexpr int threads = 4;
    constexpr int frames_per_thread = 20000;
    constexpr std::uint32_t bytes = 10;
    const Tick first = sw.egress(1, 0, bytes, 0);
    const Tick ser = sw.egress(1, 0, bytes, 0) - first;
    ASSERT_GT(ser, 0u);
    sw.reset();

    std::vector<std::vector<Tick>> exits(threads);
    std::atomic<int> ready{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&sw, &exits, &ready, t] {
            // Start together so the threads really contend.
            ready.fetch_add(1);
            while (ready.load() < threads) {
            }
            for (int i = 0; i < frames_per_thread; ++i)
                exits[t].push_back(sw.egress(
                    static_cast<NodeId>(t + 1), 0, bytes, 0));
        });
    }
    for (auto &th : pool)
        th.join();
    std::vector<Tick> all;
    for (const auto &e : exits)
        all.insert(all.end(), e.begin(), e.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(),
              static_cast<std::size_t>(threads * frames_per_thread));
    for (std::size_t k = 0; k < all.size(); ++k)
        ASSERT_EQ(all[k], first + ser * k) << "frame " << k;
}

} // namespace

TEST(TopologySwitch, ConcurrentEgressQueuesEveryFrame)
{
    TopologySwitch sw(5, TopologyParams{});
    expectConcurrentEgressQueues(sw);
}
