/** Tests for the message-passing endpoint: matching, protocols. */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "ckpt/ckpt_io.hh"
#include "supervise/run_supervisor.hh"
#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::workloads;
using test::LambdaWorkload;
using test::runLambda;

TEST(Endpoint, BlockingSendRecvDeliversOnce)
{
    std::atomic<int> received{0};
    std::atomic<std::uint64_t> bytes{0};
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.comm().send(1, 5, 1234);
        } else {
            mpi::Message m = co_await ctx.comm().recv(0, 5);
            ++received;
            bytes = m.bytes;
            EXPECT_EQ(m.src, 0u);
            EXPECT_EQ(m.tag, 5);
        }
    });
    EXPECT_EQ(received.load(), 1);
    EXPECT_EQ(bytes.load(), 1234u);
}

TEST(Endpoint, RecvBeforeSendAndAfterSendBothMatch)
{
    // First message arrives before the recv is posted (unexpected
    // queue); second recv is posted before the message arrives.
    std::vector<Tick> recv_times;
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.comm().send(1, 1, 100);
            co_await ctx.delay(microseconds(50));
            co_await ctx.comm().send(1, 1, 100);
        } else {
            co_await ctx.delay(microseconds(20)); // late post
            co_await ctx.comm().recv(0, 1);
            recv_times.push_back(ctx.now());
            co_await ctx.comm().recv(0, 1); // early post
            recv_times.push_back(ctx.now());
        }
    });
    ASSERT_EQ(recv_times.size(), 2u);
    EXPECT_GE(recv_times[0], microseconds(20));
    EXPECT_GT(recv_times[1], microseconds(50));
}

TEST(Endpoint, MessagesMatchInSendOrderPerSource)
{
    std::vector<std::uint64_t> sizes;
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.comm().send(1, 9, 111);
            co_await ctx.comm().send(1, 9, 222);
            co_await ctx.comm().send(1, 9, 333);
        } else {
            for (int i = 0; i < 3; ++i) {
                mpi::Message m = co_await ctx.comm().recv(0, 9);
                sizes.push_back(m.bytes);
            }
        }
    });
    EXPECT_EQ(sizes, (std::vector<std::uint64_t>{111, 222, 333}));
}

TEST(Endpoint, TagsSeparateMessageStreams)
{
    std::vector<int> tags;
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.comm().send(1, 1, 64);
            co_await ctx.comm().send(1, 2, 64);
        } else {
            // Receive in reverse tag order: matching must be by tag,
            // not arrival order.
            co_await ctx.comm().recv(0, 2);
            tags.push_back(2);
            co_await ctx.comm().recv(0, 1);
            tags.push_back(1);
        }
    });
    EXPECT_EQ(tags, (std::vector<int>{2, 1}));
}

TEST(Endpoint, AnySourceMatchesEarliestArrival)
{
    std::vector<Rank> sources;
    runLambda(3, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 1) {
            co_await ctx.delay(microseconds(30));
            co_await ctx.comm().send(0, 4, 64);
        } else if (ctx.rank() == 2) {
            co_await ctx.comm().send(0, 4, 64);
        } else {
            for (int i = 0; i < 2; ++i) {
                mpi::Message m =
                    co_await ctx.comm().recv(mpi::anySource, 4);
                sources.push_back(m.src);
            }
        }
    });
    // Rank 2 sent immediately, rank 1 after 30 us.
    EXPECT_EQ(sources, (std::vector<Rank>{2, 1}));
}

namespace
{

struct Send
{
    int tag;
    std::uint64_t bytes;
};

struct Recv
{
    int src;
    int tag;
};

/**
 * Rank 0 forks @p sends to rank 1 in order; rank 1 posts @p recvs one
 * after another, late, and records the sizes in match order.
 */
std::vector<std::uint64_t>
lateRecvMatchOrder(const std::vector<Send> &sends,
                   const std::vector<Recv> &recvs)
{
    std::vector<std::uint64_t> sizes;
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            std::vector<sim::Process> forked;
            for (const Send &s : sends) {
                forked.push_back(ctx.comm().send(1, s.tag, s.bytes));
                forked.back().start();
            }
            for (sim::Process &p : forked)
                co_await std::move(p);
        } else {
            co_await ctx.delay(microseconds(500));
            for (const Recv &r : recvs) {
                mpi::Message m = co_await ctx.comm().recv(r.src, r.tag);
                sizes.push_back(m.bytes);
            }
        }
    });
    return sizes;
}

/**
 * Rank 0 forks two tag-3 sends of @p first then @p second bytes;
 * rank 1 posts two recv(@p src, 3) late and records the sizes in
 * match order.
 */
std::vector<std::uint64_t>
forkedPairMatchOrder(std::uint64_t first, std::uint64_t second, int src)
{
    return lateRecvMatchOrder({{3, first}, {3, second}},
                              {{src, 3}, {src, 3}});
}

/**
 * Sends for a mid-list match: two tag-3 messages, then a tag-4 one
 * that arrives between them (the first, long one completes last).
 */
std::vector<Send>
tag4InTheMiddle(std::uint64_t first, std::uint64_t second,
                std::uint64_t tag4)
{
    return {{3, first}, {3, second}, {4, tag4}};
}

} // namespace

TEST(Endpoint, UnexpectedMatchesSendOrderByNameArrivalOrderByAnySource)
{
    // The forked 64 B send completes before the earlier 60000 B one.
    // A named receive follows send order (MPI non-overtaking); an
    // anySource receive takes the earliest completion.
    EXPECT_EQ(forkedPairMatchOrder(60000, 64, 0),
              (std::vector<std::uint64_t>{60000, 64}));
    EXPECT_EQ(forkedPairMatchOrder(60000, 64, mpi::anySource),
              (std::vector<std::uint64_t>{64, 60000}));
}

TEST(Endpoint, PendingRtsBindsInSendOrderByName)
{
    // Both sends are rendezvous; the smaller one's RTS arrives first,
    // yet the named receive must bind the earlier send.
    EXPECT_EQ(forkedPairMatchOrder(1000000, 100000, 0),
              (std::vector<std::uint64_t>{1000000, 100000}));
}

TEST(Endpoint, UnexpectedMidListMatchKeepsTheRestInOrder)
{
    const auto sends = tag4InTheMiddle(60000, 64, 96);
    // Arrival order: 64, the tag-4 96, then the long 60000.
    ASSERT_EQ(lateRecvMatchOrder(sends, {{mpi::anySource, mpi::anyTag},
                                         {mpi::anySource, mpi::anyTag},
                                         {mpi::anySource, mpi::anyTag}}),
              (std::vector<std::uint64_t>{64, 96, 60000}));
    // Taking the middle entry leaves 64 ahead of 60000 for anySource,
    // and a named receive still takes the lower msgId (60000) first.
    EXPECT_EQ(lateRecvMatchOrder(sends, {{0, 4},
                                         {mpi::anySource, 3},
                                         {mpi::anySource, 3}}),
              (std::vector<std::uint64_t>{96, 64, 60000}));
    EXPECT_EQ(lateRecvMatchOrder(sends, {{0, 4}, {0, 3}, {0, 3}}),
              (std::vector<std::uint64_t>{96, 60000, 64}));
}

TEST(Endpoint, PendingRtsMidListMatchKeepsTheRestInOrder)
{
    const auto sends = tag4InTheMiddle(1000000, 100000, 200000);
    // All three are rendezvous. RTS arrival order: 100000, the tag-4
    // 200000, then 1000000.
    ASSERT_EQ(lateRecvMatchOrder(sends, {{mpi::anySource, mpi::anyTag},
                                         {mpi::anySource, mpi::anyTag},
                                         {mpi::anySource, mpi::anyTag}}),
              (std::vector<std::uint64_t>{100000, 200000, 1000000}));
    EXPECT_EQ(lateRecvMatchOrder(sends, {{0, 4},
                                         {mpi::anySource, 3},
                                         {mpi::anySource, 3}}),
              (std::vector<std::uint64_t>{200000, 100000, 1000000}));
    EXPECT_EQ(lateRecvMatchOrder(sends, {{0, 4}, {0, 3}, {0, 3}}),
              (std::vector<std::uint64_t>{200000, 1000000, 100000}));
}

TEST(Endpoint, PostedMidListMatchKeepsTheRestInOrder)
{
    // Posted: (0, 1), (0, 2), then two (0, anyTag). The tag-2 message
    // takes the second entry; the two tag-9 messages must then fill
    // the anyTag receives in post order.
    std::vector<std::uint64_t> sizes;
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.delay(microseconds(100));
            co_await ctx.comm().send(1, 2, 20);
            co_await ctx.comm().send(1, 9, 90);
            co_await ctx.comm().send(1, 9, 91);
            co_await ctx.comm().send(1, 1, 10);
        } else {
            auto tag1 = ctx.comm().irecv(0, 1);
            auto tag2 = ctx.comm().irecv(0, 2);
            auto any1 = ctx.comm().irecv(0, mpi::anyTag);
            auto any2 = ctx.comm().irecv(0, mpi::anyTag);
            for (auto *req : {&tag1, &tag2, &any1, &any2}) {
                mpi::Message m = co_await *req;
                sizes.push_back(m.bytes);
            }
        }
    });
    EXPECT_EQ(sizes, (std::vector<std::uint64_t>{10, 20, 90, 91}));
}

TEST(Endpoint, AnyTagMatches)
{
    std::atomic<int> got{0};
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.comm().send(1, 77, 64);
        } else {
            mpi::Message m = co_await ctx.comm().recv(0, mpi::anyTag);
            got = m.tag;
        }
    });
    EXPECT_EQ(got.load(), 77);
}

TEST(Endpoint, LargeMessageUsesRendezvousAndArrivesIntact)
{
    // > eagerThreshold (64 KiB) triggers RTS/CTS.
    std::atomic<std::uint64_t> got_bytes{0};
    constexpr std::uint64_t big = 1 << 20; // 1 MiB
    auto result =
        runLambda(2, [&](AppContext &ctx) -> sim::Process {
            if (ctx.rank() == 0) {
                co_await ctx.comm().send(1, 3, big);
            } else {
                mpi::Message m = co_await ctx.comm().recv(0, 3);
                got_bytes = m.bytes;
            }
        });
    EXPECT_EQ(got_bytes.load(), big);
    // 1 MiB in ~8922-byte fragments plus RTS + CTS control frames
    // plus one flow-control ACK per non-final 64 KiB window.
    const auto frags = mpi::fragmentCount(big, 9000 - 78);
    const std::uint32_t window = 64 * 1024 / (9000 - 78);
    const auto acks = (frags + window - 1) / window - 1;
    EXPECT_EQ(result.packets, frags + 2 + acks);
}

TEST(Endpoint, EagerMessageHasNoControlFrames)
{
    auto result =
        runLambda(2, [&](AppContext &ctx) -> sim::Process {
            if (ctx.rank() == 0) {
                co_await ctx.comm().send(1, 3, 1000);
            } else {
                co_await ctx.comm().recv(0, 3);
            }
        });
    EXPECT_EQ(result.packets, 1u);
}

TEST(Endpoint, RendezvousWhenRecvPostedFirst)
{
    std::atomic<int> ok{0};
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.delay(microseconds(100));
            co_await ctx.comm().send(1, 3, 200000);
        } else {
            co_await ctx.comm().recv(0, 3); // posted before RTS
            ++ok;
        }
    });
    EXPECT_EQ(ok.load(), 1);
}

TEST(Endpoint, RendezvousWhenRtsArrivesFirst)
{
    std::atomic<int> ok{0};
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.comm().send(1, 3, 200000);
        } else {
            co_await ctx.delay(microseconds(100)); // RTS waits
            co_await ctx.comm().recv(0, 3);
            ++ok;
        }
    });
    EXPECT_EQ(ok.load(), 1);
}

TEST(Endpoint, ConcurrentBidirectionalLargeSendsDoNotDeadlock)
{
    std::atomic<int> done{0};
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        const Rank peer = ctx.rank() == 0 ? 1 : 0;
        auto s = ctx.comm().send(peer, 8, 500000);
        s.start();
        co_await ctx.comm().recv(static_cast<int>(peer), 8);
        co_await std::move(s);
        ++done;
    });
    EXPECT_EQ(done.load(), 2);
}

TEST(Endpoint, ManySmallMessagesAllDelivered)
{
    std::atomic<int> count{0};
    constexpr int n_msgs = 200;
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            for (int i = 0; i < n_msgs; ++i)
                co_await ctx.comm().send(1, 6, 64 + i);
        } else {
            for (int i = 0; i < n_msgs; ++i) {
                mpi::Message m = co_await ctx.comm().recv(0, 6);
                EXPECT_EQ(m.bytes,
                          static_cast<std::uint64_t>(64 + i));
                ++count;
            }
        }
    });
    EXPECT_EQ(count.load(), n_msgs);
}

TEST(Endpoint, ZeroByteMessageStillSynchronizes)
{
    std::atomic<int> got{0};
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.comm().send(1, 2, 0);
        } else {
            mpi::Message m = co_await ctx.comm().recv(0, 2);
            EXPECT_EQ(m.bytes, 0u);
            ++got;
        }
    });
    EXPECT_EQ(got.load(), 1);
}

TEST(Endpoint, DeadlockIsDetectedAndReported)
{
    // Both ranks wait for a message that is never sent.
    EXPECT_DEATH(
        runLambda(2,
                  [&](AppContext &ctx) -> sim::Process {
                      co_await ctx.comm().recv(
                          static_cast<int>(1 - ctx.rank()), 1);
                  }),
        "deadlock");
}

TEST(Endpoint, RoundtripLatencyMatchesPhysicalModel)
{
    // One 1000-byte ping and pong with conservative sync: the
    // measured roundtrip must equal the deterministic component sum.
    std::vector<Tick> rtt;
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            const Tick t0 = ctx.now();
            co_await ctx.comm().send(1, 1, 1000);
            co_await ctx.comm().recv(1, 1);
            rtt.push_back(ctx.now() - t0);
        } else {
            co_await ctx.comm().recv(0, 1);
            co_await ctx.comm().send(0, 1, 1000);
        }
    });
    ASSERT_EQ(rtt.size(), 1u);
    // One direction: sendOverhead 400 + copy(1000/6=167) + txOverhead
    // 100 + serialization(1078B/10=108) + txLatency 500 + rxLatency
    // 500 + recvOverhead 400; the pong adds the same again.
    const Tick one_way = 400 + 167 + 100 + 108 + 500 + 500 + 400;
    EXPECT_NEAR(static_cast<double>(rtt[0]),
                static_cast<double>(2 * one_way), 10.0);
}

TEST(Endpoint, MessageLatencyMatchesRoundtripComponents)
{
    // Message::latency() reports send-to-arrival; for a 1000-byte
    // eager message this is the deterministic one-way component sum
    // minus the receive overhead (charged after completion).
    std::vector<Tick> latencies;
    runLambda(2, [&](AppContext &ctx) -> sim::Process {
        if (ctx.rank() == 0) {
            co_await ctx.comm().send(1, 1, 1000);
        } else {
            mpi::Message m = co_await ctx.comm().recv(0, 1);
            latencies.push_back(m.latency());
        }
    });
    ASSERT_EQ(latencies.size(), 1u);
    // sendOverhead 400 + copy 167 + txOverhead 100 + serialization
    // 108 + txLatency 500 + rxLatency 500 = 1775.
    EXPECT_NEAR(static_cast<double>(latencies[0]), 1775.0, 10.0);
}

TEST(Endpoint, LatencyInflatesUnderCoarseQuanta)
{
    auto measure = [](const char *policy) {
        std::vector<Tick> latencies;
        runLambda(
            2,
            [&](AppContext &ctx) -> sim::Process {
                if (ctx.rank() == 0) {
                    for (int i = 0; i < 20; ++i) {
                        co_await ctx.comm().send(1, 1, 1000);
                        co_await ctx.comm().recv(1, 2);
                    }
                } else {
                    for (int i = 0; i < 20; ++i) {
                        mpi::Message m =
                            co_await ctx.comm().recv(0, 1);
                        latencies.push_back(m.latency());
                        co_await ctx.comm().send(0, 2, 64);
                    }
                }
            },
            policy);
        Tick total = 0;
        for (Tick l : latencies)
            total += l;
        return static_cast<double>(total) /
               static_cast<double>(latencies.size());
    };
    const double exact = measure("fixed:1us");
    const double coarse = measure("fixed:200us");
    EXPECT_GT(coarse, 2.0 * exact);
}

TEST(Endpoint, StateIsIndependentOfPeersAndClusterSize)
{
    // Rank 0 sends to ranks 2 and 1 (out of rank order); rank 3 and
    // everyone past it neither send nor receive. An endpoint keeps no
    // per-peer state, so neither the peers it sent to nor N may change
    // the size of its quiescent state.
    auto serializedSizes = [](std::size_t num_nodes) {
        LambdaWorkload workload([](AppContext &ctx) -> sim::Process {
            if (ctx.rank() == 0) {
                co_await ctx.comm().send(2, 1, 64);
                co_await ctx.comm().send(1, 1, 64);
            } else if (ctx.rank() == 1 || ctx.rank() == 2) {
                co_await ctx.comm().recv(0, 1);
            }
        });
        auto policy = core::parsePolicy("fixed:1us");
        supervise::RunRequest request;
        request.cluster = harness::defaultCluster(num_nodes, 1);
        request.workload = &workload;
        request.policy = policy.get();
        supervise::RunSupervisor supervisor({});
        supervisor.run(request);
        const std::unique_ptr<engine::Cluster> cluster =
            supervisor.takeCluster();
        auto size = [&](NodeId id) {
            ckpt::Writer w;
            cluster->endpoint(id).serialize(w);
            return w.size();
        };
        return std::pair{size(0), size(3)};
    };
    const auto [sender_small, idle_small] = serializedSizes(8);
    const auto [sender_large, idle_large] = serializedSizes(1024);
    EXPECT_EQ(sender_small, sender_large);
    EXPECT_EQ(idle_small, idle_large);
    EXPECT_EQ(sender_small, idle_small);
}
