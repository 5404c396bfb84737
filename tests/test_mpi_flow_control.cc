/** Tests for the windowed (TCP-style) flow control of long messages. */

#include <gtest/gtest.h>

#include <atomic>

#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::workloads;
using test::runLambda;

namespace
{

/** Frame payload capacity with the default parameters. */
constexpr std::uint64_t payloadCap = 9000 - 78;
/** Fragments per 64 KiB window. */
constexpr std::uint64_t windowFrags = (64 * 1024) / payloadCap;

engine::RunResult
transfer(std::uint64_t bytes, std::atomic<std::uint64_t> *got = nullptr)
{
    return runLambda(2, [&, got](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.comm().send(1, 1, bytes);
        } else {
            mpi::Message m = co_await ctx.comm().recv(0, 1);
            if (got)
                *got = m.bytes;
        }
    });
}

} // namespace

TEST(FlowControl, MessageJustAboveEagerUsesRendezvousNoAck)
{
    // 64KiB + 1: rendezvous, but only ~8 fragments (just above one
    // window) — one ACK at most.
    std::atomic<std::uint64_t> got{0};
    const std::uint64_t bytes = 64 * 1024 + 1;
    auto result = transfer(bytes, &got);
    EXPECT_EQ(got.load(), bytes);
    const auto frags = mpi::fragmentCount(bytes, payloadCap);
    const auto windows = (frags + windowFrags - 1) / windowFrags;
    EXPECT_EQ(result.packets, frags + 2 + (windows - 1));
}

TEST(FlowControl, ExactWindowMultipleHasNoTrailingAck)
{
    // Exactly 2 windows of fragments: one ACK (after window 1), none
    // after the final window.
    const std::uint64_t bytes = 2 * windowFrags * payloadCap;
    std::atomic<std::uint64_t> got{0};
    auto result = transfer(bytes, &got);
    EXPECT_EQ(got.load(), bytes);
    const auto frags = mpi::fragmentCount(bytes, payloadCap);
    EXPECT_EQ(frags, 2 * windowFrags);
    EXPECT_EQ(result.packets, frags + 2 + 1);
}

TEST(FlowControl, VeryLargeTransferScalesWindows)
{
    const std::uint64_t bytes = 4 << 20; // 4 MiB
    std::atomic<std::uint64_t> got{0};
    auto result = transfer(bytes, &got);
    EXPECT_EQ(got.load(), bytes);
    const auto frags = mpi::fragmentCount(bytes, payloadCap);
    const auto windows = (frags + windowFrags - 1) / windowFrags;
    EXPECT_EQ(result.packets, frags + 2 + (windows - 1));
    EXPECT_EQ(result.stragglers, 0u); // conservative ground truth
}

TEST(FlowControl, ConcurrentRendezvousToOneReceiver)
{
    // Three senders stream long messages to rank 0 simultaneously;
    // per-msgId ACK bookkeeping must not cross wires.
    std::atomic<int> received{0};
    runLambda(4, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            for (int i = 0; i < 3; ++i) {
                co_await ctx.comm().recv(mpi::anySource, 2);
                ++received;
            }
        } else {
            co_await ctx.comm().send(0, 2, 300000 + ctx.rank());
        }
    });
    EXPECT_EQ(received.load(), 3);
}

TEST(FlowControl, ForkedSendsEachWaitOnTheirOwnWindowAcks)
{
    // Rank 0 streams two four-window messages at once: its CTS and
    // window-ACK waiters of both messages sit side by side in the
    // endpoint's maps, each send awaiting its own trigger where it
    // lies while the other message's waiters come and go.
    const std::uint64_t bytes = 3 * windowFrags * payloadCap + 1;
    const auto frags = mpi::fragmentCount(bytes, payloadCap);
    const auto windows = (frags + windowFrags - 1) / windowFrags;
    ASSERT_EQ(windows, 4u);
    std::atomic<int> received{0};
    auto result = runLambda(3, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            auto first = ctx.comm().send(1, 4, bytes);
            auto second = ctx.comm().send(2, 4, bytes);
            first.start();
            second.start();
            co_await std::move(first);
            co_await std::move(second);
        } else {
            mpi::Message m = co_await ctx.comm().recv(0, 4);
            if (m.bytes == bytes)
                ++received;
        }
    });
    EXPECT_EQ(received.load(), 2);
    // Per message: its fragments, RTS and CTS, and one ACK per
    // window boundary crossed.
    EXPECT_EQ(result.packets, 2 * (frags + 2 + (windows - 1)));
}

TEST(FlowControl, BidirectionalConcurrentWindowedTransfers)
{
    std::atomic<int> done{0};
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        const Rank peer = 1 - ctx.rank();
        auto s = ctx.comm().send(peer, 3, 1 << 20);
        s.start();
        co_await ctx.comm().recv(static_cast<int>(peer), 3);
        co_await std::move(s);
        ++done;
    });
    EXPECT_EQ(done.load(), 2);
}

TEST(FlowControl, WindowRoundTripsGateTransferLatency)
{
    // The windowed transfer's simulated duration includes one ack
    // round trip per non-final window — measure a 512 KiB transfer
    // and check it exceeds pure serialization by roughly the ack
    // RTTs.
    std::vector<Tick> arrival;
    const std::uint64_t bytes = 512 * 1024;
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.comm().send(1, 1, bytes);
        } else {
            co_await ctx.comm().recv(0, 1);
            arrival.push_back(ctx.now());
        }
    });
    ASSERT_EQ(arrival.size(), 1u);
    // Pure wire time: ~512K/10 B/ns = 52us. With RTS/CTS + 8 windows,
    // the measured completion must be noticeably larger but bounded.
    EXPECT_GT(arrival[0], microseconds(55));
    EXPECT_LT(arrival[0], microseconds(200));
}

TEST(FlowControl, DilationUnderCoarseQuantumGrowsWithWindows)
{
    // Under a 500us quantum, each ACK round trip snaps toward a
    // quantum boundary, so transfer time grows with window count.
    auto timed = [&](std::uint64_t bytes, const char *policy) {
        std::vector<Tick> arrival;
        runLambda(
            2,
            [&](AppContext &ctx) -> sim::Process {
                if (ctx.rank() == 0) {
                    co_await ctx.comm().send(1, 1, bytes);
                } else {
                    co_await ctx.comm().recv(0, 1);
                    arrival.push_back(ctx.now());
                }
            },
            policy);
        return arrival.at(0);
    };
    const Tick gt = timed(1 << 20, "fixed:1us");
    const Tick coarse = timed(1 << 20, "fixed:500us");
    EXPECT_GT(coarse, 2 * gt);
}
