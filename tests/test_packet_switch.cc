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

TEST(StoreAndForwardSwitch, AddsTraversalAndSerialization)
{
    // 1 byte/ns, 100 ns traversal.
    StoreAndForwardSwitch sw(4, 1.0, 100);
    // 1000B frame entering at t=0: exits at 100 + 1000.
    EXPECT_EQ(sw.egress(0, 1, 1000, 0), 1100u);
    EXPECT_EQ(sw.minTraversal(), 100u);
}

TEST(StoreAndForwardSwitch, OutputPortContentionQueues)
{
    StoreAndForwardSwitch sw(4, 1.0, 100);
    EXPECT_EQ(sw.egress(0, 1, 1000, 0), 1100u);
    // Second frame to the same port at the same time queues behind.
    EXPECT_EQ(sw.egress(2, 1, 1000, 0), 2100u);
    // A frame to a different port does not queue.
    EXPECT_EQ(sw.egress(2, 3, 1000, 0), 1100u);
}

TEST(StoreAndForwardSwitch, ResetClearsPortState)
{
    StoreAndForwardSwitch sw(2, 1.0, 10);
    sw.egress(0, 1, 5000, 0);
    sw.reset();
    EXPECT_EQ(sw.egress(0, 1, 1000, 0), 1010u);
}

TEST(StoreAndForwardSwitch, FractionalBandwidthRoundsUp)
{
    StoreAndForwardSwitch sw(2, 3.0, 0); // 3 bytes/ns
    // 10 bytes at 3 B/ns = 3.33 ns -> ceil 4.
    EXPECT_EQ(sw.egress(0, 1, 10, 0), 4u);
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

TEST(StoreAndForwardSwitch, ConcurrentEgressQueuesEveryFrame)
{
    StoreAndForwardSwitch sw(5, 1.0, 100);
    expectConcurrentEgressQueues(sw);
}

TEST(TopologySwitch, ConcurrentEgressQueuesEveryFrame)
{
    TopologySwitch sw(5, TopologyParams{});
    expectConcurrentEgressQueues(sw);
}
