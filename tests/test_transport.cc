/**
 * Transport-layer tests: frame encode/decode self-checking (CRC,
 * length, type validation), socket channel semantics (ordering,
 * drain-after-close, a partial frame kept across a timed-out read)
 * and failure mapping (deadline-bounded waits, EOF on close, torn
 * writes), all through DuplexRound, the only way to wait on a
 * channel; the full-duplex round, the heartbeat beacon, and the
 * peer-drill spec parser.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "ckpt/ckpt_io.hh"
#include "fault/peer_drill.hh"
#include "transport/frame.hh"
#include "transport/heartbeat.hh"
#include "transport/socket.hh"

using namespace aqsim;
using namespace aqsim::transport;

namespace
{

Frame
makeFrame(FrameType type, std::uint64_t value)
{
    Frame frame;
    frame.type = type;
    ckpt::Writer w;
    w.u64(value);
    frame.body = w.buffer();
    return frame;
}

/** Decode an encoded wire buffer back through decodeFrame. */
RecvStatus
redecode(std::vector<std::uint8_t> wire, Frame &out)
{
    EXPECT_GE(wire.size(), frameHeaderBytes);
    std::uint32_t header[3];
    std::memcpy(header, wire.data(), frameHeaderBytes);
    std::vector<std::uint8_t> body(wire.begin() + frameHeaderBytes,
                                   wire.end());
    return decodeFrame(header[0], header[1], header[2],
                       std::move(body), out);
}

/**
 * Write @p frame on @p ch through a one-link round, waiting at most
 * @p seconds. @return Ok, Timeout if the round gave up, or the failed
 * link's status.
 */
RecvStatus
roundSend(SocketChannel &ch, const Frame &frame, double seconds)
{
    DuplexRound round(1);
    round.send(0, ch, frame);
    DuplexRound::Event e;
    if (!round.advance(e, seconds))
        return RecvStatus::Timeout;
    return e.status;
}

/** Read one frame from @p ch into @p frame as roundSend() writes. */
RecvStatus
roundRecv(SocketChannel &ch, Frame &frame, double seconds)
{
    DuplexRound round(1);
    round.receive(0, ch);
    DuplexRound::Event e;
    if (!round.advance(e, seconds))
        return RecvStatus::Timeout;
    if (e.status == RecvStatus::Ok)
        frame = std::move(e.frame);
    return e.status;
}

/** SO_SNDBUF of @p ch's socket. */
std::size_t
sendBuffer(const SocketChannel &ch)
{
    int sndbuf = 0;
    socklen_t len = sizeof(sndbuf);
    EXPECT_EQ(::getsockopt(ch.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf, &len),
              0);
    return static_cast<std::size_t>(sndbuf);
}

/** Seconds elapsed since @p start. */
double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

TEST(Frame, EncodeDecodeRoundTrip)
{
    const Frame frame = makeFrame(FrameType::Exchange, 0xdeadbeef);
    Frame out;
    ASSERT_EQ(redecode(encodeFrame(frame), out), RecvStatus::Ok);
    EXPECT_EQ(out.type, FrameType::Exchange);
    EXPECT_EQ(out.body, frame.body);
}

TEST(Frame, EmptyBodyRoundTrips)
{
    Frame stop;
    stop.type = FrameType::Stop;
    Frame out;
    ASSERT_EQ(redecode(encodeFrame(stop), out), RecvStatus::Ok);
    EXPECT_EQ(out.type, FrameType::Stop);
    EXPECT_TRUE(out.body.empty());
}

TEST(Frame, BitFlipInBodyIsCorrupt)
{
    auto wire = encodeFrame(makeFrame(FrameType::Exchange, 7));
    wire[frameHeaderBytes] ^= 0x01;
    Frame out;
    EXPECT_EQ(redecode(std::move(wire), out), RecvStatus::Corrupt);
}

TEST(Frame, UnknownTypeIsCorrupt)
{
    auto wire = encodeFrame(makeFrame(FrameType::Exchange, 7));
    const std::uint32_t bogus = 999;
    std::memcpy(wire.data() + 4, &bogus, 4);
    Frame out;
    EXPECT_EQ(redecode(std::move(wire), out), RecvStatus::Corrupt);
}

TEST(Frame, OversizeLengthIsCorrupt)
{
    Frame out;
    EXPECT_EQ(decodeFrame(maxFrameBody + 1,
                          static_cast<std::uint32_t>(FrameType::Exchange),
                          0, {}, out),
              RecvStatus::Corrupt);
}

TEST(Frame, TypeNamesAreStable)
{
    EXPECT_STREQ(frameTypeName(FrameType::Exchange), "exchange");
    EXPECT_STREQ(frameTypeName(FrameType::Heartbeat), "heartbeat");
    EXPECT_STREQ(recvStatusName(RecvStatus::Timeout), "timeout");
}

TEST(SocketChannel, RoundTripOverSocketpair)
{
    auto [a, b] = socketChannelPair();
    ASSERT_EQ(roundSend(*a, makeFrame(FrameType::StateReq, 99), 2.0),
              RecvStatus::Ok);
    Frame f;
    ASSERT_EQ(roundRecv(*b, f, 2.0), RecvStatus::Ok);
    EXPECT_EQ(f.type, FrameType::StateReq);
    ckpt::Reader r(f.body, "test");
    EXPECT_EQ(r.u64(), 99u);
}

TEST(SocketChannel, OrderedDelivery)
{
    auto [a, b] = socketChannelPair();
    for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_EQ(roundSend(*a, makeFrame(FrameType::Quantum, i), 1.0),
                  RecvStatus::Ok);
    for (std::uint64_t i = 0; i < 10; ++i) {
        Frame f;
        ASSERT_EQ(roundRecv(*b, f, 1.0), RecvStatus::Ok);
        EXPECT_EQ(f.type, FrameType::Quantum);
        ckpt::Reader r(f.body, "test");
        EXPECT_EQ(r.u64(), i);
    }
}

TEST(SocketChannel, QueuedFramesDrainAfterClose)
{
    // A worker that sent its Exchange and then closed must still have
    // that frame readable: close is not data loss.
    auto [a, b] = socketChannelPair();
    ASSERT_EQ(roundSend(*a, makeFrame(FrameType::Exchange, 42), 1.0),
              RecvStatus::Ok);
    a->close();
    Frame f;
    ASSERT_EQ(roundRecv(*b, f, 1.0), RecvStatus::Ok);
    EXPECT_EQ(f.type, FrameType::Exchange);
    ckpt::Reader r(f.body, "test");
    EXPECT_EQ(r.u64(), 42u);
    EXPECT_EQ(roundRecv(*b, f, 1.0), RecvStatus::Closed);
    EXPECT_EQ(roundSend(*a, makeFrame(FrameType::Exchange, 0), 1.0),
              RecvStatus::Closed);
}

TEST(SocketChannel, RecvIsDeadlineBounded)
{
    auto [a, b] = socketChannelPair();
    const auto start = std::chrono::steady_clock::now();
    Frame f;
    EXPECT_EQ(roundRecv(*b, f, 0.1), RecvStatus::Timeout);
    const double waited =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(waited, 0.09);
    EXPECT_LT(waited, 5.0);
}

TEST(SocketChannel, SendIsDeadlineBoundedWhenTheReaderStops)
{
    // A frame larger than the socket buffer, to a reader that never
    // reads: the write waits for room in poll slices and gives up at
    // the deadline, instead of blocking forever.
    auto [a, b] = socketChannelPair();
    Frame big;
    big.type = FrameType::Exchange;
    big.body.assign(4 * sendBuffer(*a), 0x5a);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(roundSend(*a, big, 0.2), RecvStatus::Timeout);
    const double waited = secondsSince(start);
    EXPECT_GE(waited, 0.19);
    EXPECT_LT(waited, 5.0);
    // A frame that fits goes out at once, deadline or not.
    auto [c, d] = socketChannelPair();
    EXPECT_EQ(roundSend(*c, makeFrame(FrameType::Quantum, 3), 0.0),
              RecvStatus::Ok);
    d->close();
    EXPECT_EQ(roundSend(*c, makeFrame(FrameType::Quantum, 4), 1.0),
              RecvStatus::Closed);
}

TEST(SocketChannel, FrameAfterSpinBudgetArrivesOk)
{
    // The sender is 5 ms late — far past the receive spin — so the
    // read must fall back to poll and still take the frame.
    auto [a, b] = socketChannelPair();
    std::thread sender([&a] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        roundSend(*a, makeFrame(FrameType::Quantum, 17), 5.0);
    });
    Frame f;
    const RecvStatus status = roundRecv(*b, f, 5.0);
    sender.join();
    ASSERT_EQ(status, RecvStatus::Ok);
    EXPECT_EQ(f.type, FrameType::Quantum);
    ckpt::Reader r(f.body, "test");
    EXPECT_EQ(r.u64(), 17u);
}

TEST(SocketChannel, PeerClosingDuringSpinReadsClosedAtOnce)
{
    // A peer that goes away while the reader is still spinning is
    // reported as soon as the EOF is seen, not at the deadline.
    for (int delay_us : {0, 20}) {
        auto [a, b] = socketChannelPair();
        const auto start = std::chrono::steady_clock::now();
        std::thread closer([&a, delay_us] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(delay_us));
            a.reset();
        });
        Frame f;
        const RecvStatus status = roundRecv(*b, f, 10.0);
        closer.join();
        EXPECT_EQ(status, RecvStatus::Closed) << delay_us;
        EXPECT_LT(secondsSince(start), 2.0) << delay_us;
    }
}

TEST(SocketChannel, SilentPeerTimesOutAtDeadline)
{
    // The spin only delays the first poll: a peer that never writes
    // still costs exactly the deadline, no more and no less.
    auto [a, b] = socketChannelPair();
    const auto start = std::chrono::steady_clock::now();
    Frame f;
    EXPECT_EQ(roundRecv(*b, f, 0.25), RecvStatus::Timeout);
    const double waited = secondsSince(start);
    EXPECT_GE(waited, 0.24);
    EXPECT_LT(waited, 5.0);
}

TEST(SocketChannel, PeerDestructionReadsClosed)
{
    auto [a, b] = socketChannelPair();
    a.reset(); // peer process died: kernel closes its fds
    Frame f;
    EXPECT_EQ(roundRecv(*b, f, 1.0), RecvStatus::Closed);
}

TEST(SocketChannel, SendIntoClosedPipeFailsWithoutSignal)
{
    auto [a, b] = socketChannelPair();
    b.reset();
    // Depending on buffering the first send may be absorbed by the
    // kernel; a bounded number of sends must observe the dead pipe
    // (and none may raise SIGPIPE, which would kill the test).
    bool failed = false;
    for (int i = 0; i < 64 && !failed; ++i)
        failed = roundSend(*a, makeFrame(FrameType::Quantum, 1), 1.0) ==
                 RecvStatus::Closed;
    EXPECT_TRUE(failed);
}

TEST(SocketChannel, TornFrameIsTimeoutNotHang)
{
    // A peer that wedges mid-frame must not stall the reader past its
    // deadline: write only half a header, then nothing.
    auto [a, b] = socketChannelPair();
    const auto wire = encodeFrame(makeFrame(FrameType::Exchange, 5));
    ASSERT_EQ(::write(a->fd(), wire.data(), 6), 6);
    Frame f;
    EXPECT_EQ(roundRecv(*b, f, 0.2), RecvStatus::Timeout);
}

TEST(SocketChannel, CorruptBytesOnWireAreCorrupt)
{
    auto [a, b] = socketChannelPair();
    auto wire = encodeFrame(makeFrame(FrameType::Exchange, 5));
    wire.back() ^= 0xff;
    ASSERT_EQ(::write(a->fd(), wire.data(),
                      static_cast<ssize_t>(wire.size())),
              static_cast<ssize_t>(wire.size()));
    Frame f;
    EXPECT_EQ(roundRecv(*b, f, 2.0), RecvStatus::Corrupt);
}

TEST(SocketChannel, PartialFrameSurvivesATimedOutRecv)
{
    // A receive that times out mid-frame keeps the bytes it read: the
    // next receive completes the same frame instead of reading its
    // tail as a new header.
    auto [a, b] = socketChannelPair();
    const auto wire = encodeFrame(makeFrame(FrameType::Exchange, 77));
    ASSERT_EQ(::write(a->fd(), wire.data(), 6), 6);
    Frame f;
    EXPECT_EQ(roundRecv(*b, f, 0.05), RecvStatus::Timeout);
    EXPECT_EQ(b->tryRecv(f), RecvStatus::Timeout);
    const auto rest = static_cast<ssize_t>(wire.size() - 6);
    ASSERT_EQ(::write(a->fd(), wire.data() + 6, rest), rest);
    ASSERT_EQ(roundRecv(*b, f, 1.0), RecvStatus::Ok);
    EXPECT_EQ(f.type, FrameType::Exchange);
    ckpt::Reader r(f.body, "test");
    EXPECT_EQ(r.u64(), 77u);
}

TEST(DuplexRound, FramesLargerThanTheBufferCrossBothWays)
{
    // Both ends send a frame four times the socket buffer before
    // either reads: a blocking send on each side would deadlock, the
    // round interleaves writes and reads and completes.
    auto [a, b] = socketChannelPair();
    Frame big;
    big.type = FrameType::Exchange;
    big.body.assign(4 * sendBuffer(*a), 0x5a);
    const auto exchange = [&big](SocketChannel &ch, Frame &got) {
        DuplexRound round(1);
        round.send(0, ch, big);
        round.receive(0, ch);
        int sent = 0;
        int received = 0;
        DuplexRound::Event e;
        while (round.busy()) {
            if (!round.advance(e, 5.0))
                return false;
            if (e.kind == DuplexRound::EventKind::Failed)
                return false;
            if (e.kind == DuplexRound::EventKind::Sent)
                ++sent;
            if (e.kind == DuplexRound::EventKind::Received) {
                ++received;
                got = std::move(e.frame);
            }
        }
        return sent == 1 && received == 1;
    };
    Frame got_a;
    Frame got_b;
    bool ok_b = false;
    std::thread other([&] { ok_b = exchange(*b, got_b); });
    const bool ok_a = exchange(*a, got_a);
    other.join();
    EXPECT_TRUE(ok_a);
    EXPECT_TRUE(ok_b);
    EXPECT_EQ(got_a.body, big.body);
    EXPECT_EQ(got_b.body, big.body);
}

TEST(DuplexRound, DrainWritesWhatEarlierPostsLeft)
{
    // A frame posted and flushed without waiting (process 0's
    // dispatch) leaves what the socket did not take in the channel; a
    // later round's drain writes it, and the reader gets it whole.
    auto [a, b] = socketChannelPair();
    Frame big;
    big.type = FrameType::StateReq;
    big.body.assign(4 * sendBuffer(*a), 0x5a);
    a->post(big);
    ASSERT_EQ(a->flush(), RecvStatus::Timeout);
    Frame got;
    RecvStatus read = RecvStatus::Timeout;
    std::thread reader([&] { read = roundRecv(*b, got, 5.0); });
    DuplexRound round(2);
    round.drain(1, *a);
    DuplexRound::Event e;
    const bool done = round.advance(e, 5.0);
    reader.join();
    ASSERT_TRUE(done);
    EXPECT_EQ(e.kind, DuplexRound::EventKind::Sent);
    EXPECT_EQ(e.link, 1u);
    EXPECT_FALSE(round.busy());
    EXPECT_EQ(read, RecvStatus::Ok);
    EXPECT_EQ(got.body, big.body);
}

TEST(DuplexRound, ClosedPeerIsAFailedLink)
{
    auto [a, b] = socketChannelPair();
    b.reset();
    DuplexRound round(2);
    round.receive(1, *a);
    DuplexRound::Event e;
    ASSERT_TRUE(round.advance(e, 2.0));
    EXPECT_EQ(e.kind, DuplexRound::EventKind::Failed);
    EXPECT_EQ(e.link, 1u);
    EXPECT_EQ(e.status, RecvStatus::Closed);
    EXPECT_FALSE(round.busy());
}

TEST(Heartbeat, BeaconsArriveAndCarrySequence)
{
    auto [a, b] = socketChannelPair();
    HeartbeatSender beacon(*b, 0.01);
    std::uint64_t last_seq = 0;
    for (int i = 0; i < 3; ++i) {
        Frame f;
        ASSERT_EQ(roundRecv(*a, f, 2.0), RecvStatus::Ok);
        ASSERT_EQ(f.type, FrameType::Heartbeat);
        ckpt::Reader r(f.body, "test");
        const std::uint64_t seq = r.u64();
        EXPECT_GE(seq, last_seq);
        last_seq = seq;
    }
    beacon.stop();
}

TEST(Heartbeat, StopsCleanlyOnDeadPipe)
{
    auto [a, b] = socketChannelPair();
    HeartbeatSender beacon(*b, 0.005);
    a.reset();
    // The beacon must notice the dead pipe on its own and stop
    // without wedging the destructor.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(Heartbeat, PostsWholeFramesDuringALargeRoundSend)
{
    // The protocol thread writes a frame four times the socket buffer
    // while the beacon keeps posting on the same channel from its own
    // thread, and the reader holds off at first, so the round has to
    // wait for room. Every frame must arrive whole, the heartbeats in
    // sequence order on both sides of the large frame.
    auto [a, b] = socketChannelPair();
    Frame big;
    big.type = FrameType::State;
    big.body.assign(4 * sendBuffer(*a), 0x5a);
    HeartbeatSender beacon(*a, 0.001);
    bool sent = false;
    std::thread writer(
        [&] { sent = roundSend(*a, big, 10.0) == RecvStatus::Ok; });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<Frame> frames;
    std::size_t bigs = 0;
    std::size_t beats_after = 0;
    while (frames.size() < 100000 && (bigs == 0 || beats_after < 3)) {
        Frame f;
        if (roundRecv(*b, f, 5.0) != RecvStatus::Ok)
            break;
        if (f.type != FrameType::Heartbeat)
            ++bigs;
        else if (bigs > 0)
            ++beats_after;
        frames.push_back(std::move(f));
    }
    writer.join();
    beacon.stop();
    EXPECT_TRUE(sent);
    EXPECT_EQ(bigs, 1u);
    EXPECT_GE(beats_after, 3u);
    std::uint64_t seq = 0;
    for (const Frame &f : frames) {
        if (f.type == FrameType::Heartbeat) {
            ckpt::Reader r(f.body, "test");
            EXPECT_EQ(r.u64(), seq++);
        } else {
            EXPECT_EQ(f.type, FrameType::State);
            EXPECT_EQ(f.body, big.body);
        }
    }
}

TEST(PeerDrill, ParsesFullSpec)
{
    const auto drills = fault::parsePeerDrills(
        "kill:peer=1,quantum=3,phase=exchange;"
        "stop:peer=0,quantum=7,phase=ack;exit:peer=2,phase=hello");
    ASSERT_EQ(drills.size(), 3u);
    EXPECT_EQ(drills[0].op, fault::PeerDrillOp::Kill);
    EXPECT_EQ(drills[0].peer, 1u);
    EXPECT_EQ(drills[0].quantum, 3u);
    EXPECT_EQ(drills[0].phase, fault::PeerDrillPhase::Exchange);
    EXPECT_EQ(drills[1].op, fault::PeerDrillOp::Stop);
    EXPECT_EQ(drills[1].phase, fault::PeerDrillPhase::Ack);
    EXPECT_EQ(drills[2].op, fault::PeerDrillOp::Exit);
    EXPECT_EQ(drills[2].phase, fault::PeerDrillPhase::Hello);
}

TEST(PeerDrill, ParsesSentPhase)
{
    const auto drills =
        fault::parsePeerDrills("stop:peer=1,quantum=2,phase=sent");
    ASSERT_EQ(drills.size(), 1u);
    EXPECT_EQ(drills[0].op, fault::PeerDrillOp::Stop);
    EXPECT_EQ(drills[0].quantum, 2u);
    EXPECT_EQ(drills[0].phase, fault::PeerDrillPhase::Sent);
}

TEST(PeerDrill, DefaultsAndEmpty)
{
    EXPECT_TRUE(fault::parsePeerDrills("").empty());
    const auto drills = fault::parsePeerDrills("kill:peer=0");
    ASSERT_EQ(drills.size(), 1u);
    EXPECT_EQ(drills[0].quantum, 1u);
    EXPECT_EQ(drills[0].phase, fault::PeerDrillPhase::Exchange);
}

TEST(PeerDrillDeathTest, RejectsMalformedSpecs)
{
    EXPECT_DEATH(fault::parsePeerDrills("melt:peer=0"), "unknown op");
    EXPECT_DEATH(fault::parsePeerDrills("kill:quantum=1"),
                 "peer= is required");
    EXPECT_DEATH(fault::parsePeerDrills("kill:peer=0,quantum=0"),
                 "1-based");
    EXPECT_DEATH(fault::parsePeerDrills("kill:peer=0,phase=nope"),
                 "unknown phase");
}
