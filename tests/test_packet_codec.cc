/**
 * Tests for frames as values: the inline payload area of net::Packet
 * and the distributed-exchange wire codec (mpi/packet_codec.hh).
 *
 * The golden byte strings were produced by the codec as it stood when
 * payloads were still heap objects behind the frame, so they pin the
 * wire format across the move to inline payloads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "ckpt/ckpt_io.hh"
#include "mpi/message.hh"
#include "mpi/packet_codec.hh"
#include "net/packet.hh"

using namespace aqsim;
using namespace aqsim::mpi;

static_assert(std::is_trivially_copyable_v<net::Packet>);

namespace
{

using Bytes = std::vector<std::uint8_t>;

MsgHeader
header()
{
    MsgHeader h;
    h.msgId = (std::uint64_t{3 + 1} << 40) | 17;
    h.src = 3;
    h.dst = 5;
    h.tag = 42;
    h.bytes = 123456;
    h.sendTick = 987654321;
    h.seal();
    return h;
}

/** The frame fields every golden case shares. */
net::Packet
stamped(net::Packet pkt, bool corrupted = false)
{
    pkt.id = (std::uint64_t{4} << 40) | 99;
    pkt.src = 3;
    pkt.dst = 5;
    pkt.bytes = 1234;
    pkt.sendTick = 1000;
    pkt.departTick = 1700;
    pkt.idealArrival = 2200;
    pkt.corrupted = corrupted;
    return pkt;
}

/** Golden encoding of stamped()'s fields (the corrupted byte last). */
Bytes
goldenFields(bool corrupted)
{
    return {0x63, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, // id
            0x03, 0x00, 0x00, 0x00,                         // src
            0x05, 0x00, 0x00, 0x00,                         // dst
            0xd2, 0x04, 0x00, 0x00,                         // bytes
            0xe8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sendTick
            0xa4, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // departTick
            0x98, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // idealArrival
            static_cast<std::uint8_t>(corrupted ? 0x01 : 0x00)};
}

/** Golden encoding of header(). */
const Bytes goldenHeader = {
    0x11, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, // msgId
    0x03, 0x00, 0x00, 0x00,                         // src
    0x05, 0x00, 0x00, 0x00,                         // dst
    0x2a, 0x00, 0x00, 0x00,                         // tag
    0x40, 0xe2, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, // bytes
    0xb1, 0x68, 0xde, 0x3a, 0x00, 0x00, 0x00, 0x00, // sendTick
    0x19, 0xe7, 0x9e, 0x46, 0xd5, 0x53, 0xec, 0x3c, // checksum
};

Bytes
concat(std::initializer_list<Bytes> parts)
{
    Bytes out;
    for (const Bytes &part : parts)
        out.insert(out.end(), part.begin(), part.end());
    return out;
}

Bytes
encode(const net::Packet &pkt)
{
    ckpt::Writer w;
    putPacket(w, pkt);
    return w.buffer();
}

net::Packet
decode(const Bytes &bytes)
{
    ckpt::Reader r(bytes, "packet");
    net::Packet pkt;
    EXPECT_TRUE(getPacket(r, pkt));
    EXPECT_EQ(r.remaining(), 0u);
    return pkt;
}

void
expectSameHeader(const MsgHeader &a, const MsgHeader &b)
{
    EXPECT_EQ(a.msgId, b.msgId);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.sendTick, b.sendTick);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_TRUE(b.verify());
}

void
expectSameFields(const net::Packet &a, const net::Packet &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.sendTick, b.sendTick);
    EXPECT_EQ(a.departTick, b.departTick);
    EXPECT_EQ(a.idealArrival, b.idealArrival);
    EXPECT_EQ(a.corrupted, b.corrupted);
    EXPECT_EQ(a.payloadKind, b.payloadKind);
}

/** One control kind through the inline area and the codec. */
void
checkControl(ControlPayload::Kind kind, std::uint32_t progress,
             bool corrupted, std::uint8_t golden_kind)
{
    const net::Packet pkt = stamped(
        controlFrame(ControlPayload(kind, header(), progress)), corrupted);
    ASSERT_EQ(frameKind(pkt), FrameKind::Control);
    const auto inline_ctrl = pkt.payloadAs<ControlPayload>();
    EXPECT_EQ(inline_ctrl.kind, kind);
    EXPECT_EQ(inline_ctrl.progress, progress);
    expectSameHeader(header(), inline_ctrl.header);

    const Bytes progress_bytes = {
        static_cast<std::uint8_t>(progress & 0xff),
        static_cast<std::uint8_t>(progress >> 8 & 0xff),
        static_cast<std::uint8_t>(progress >> 16 & 0xff),
        static_cast<std::uint8_t>(progress >> 24)};
    const Bytes golden =
        concat({goldenFields(corrupted), {0x02, golden_kind},
                goldenHeader, progress_bytes});
    EXPECT_EQ(encode(pkt), golden);

    const net::Packet back = decode(golden);
    expectSameFields(pkt, back);
    const auto ctrl = back.payloadAs<ControlPayload>();
    EXPECT_EQ(ctrl.kind, kind);
    EXPECT_EQ(ctrl.progress, progress);
    expectSameHeader(header(), ctrl.header);
}

} // namespace

TEST(FrameValue, EagerFragmentRoundTrips)
{
    const net::Packet pkt =
        stamped(fragmentFrame(FragmentPayload(header(), 2, 14)));
    ASSERT_EQ(frameKind(pkt), FrameKind::Fragment);
    const auto inline_frag = pkt.payloadAs<FragmentPayload>();
    EXPECT_EQ(inline_frag.fragIndex, 2u);
    EXPECT_EQ(inline_frag.numFrags, 14u);
    expectSameHeader(header(), inline_frag.header);

    const Bytes golden =
        concat({goldenFields(false), {0x01}, goldenHeader,
                {0x02, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00}});
    EXPECT_EQ(encode(pkt), golden);

    const net::Packet back = decode(golden);
    expectSameFields(pkt, back);
    const auto frag = back.payloadAs<FragmentPayload>();
    EXPECT_EQ(frag.fragIndex, 2u);
    EXPECT_EQ(frag.numFrags, 14u);
    expectSameHeader(header(), frag.header);
}

TEST(FrameValue, RtsRoundTrips)
{
    checkControl(ControlPayload::Kind::Rts, 0, false, 0x00);
}

TEST(FrameValue, CtsRoundTrips)
{
    checkControl(ControlPayload::Kind::Cts, 0, false, 0x01);
}

TEST(FrameValue, AckWithProgressRoundTrips)
{
    checkControl(ControlPayload::Kind::Ack, 7, false, 0x02);
}

TEST(FrameValue, CorruptRackRoundTrips)
{
    checkControl(ControlPayload::Kind::Rack, 0, true, 0x03);
}

TEST(FrameValue, PayloadlessFrameRoundTrips)
{
    const net::Packet pkt = stamped(net::Packet{});
    EXPECT_EQ(frameKind(pkt), FrameKind::None);
    const Bytes golden = concat({goldenFields(false), {0x00}});
    EXPECT_EQ(encode(pkt), golden);
    expectSameFields(pkt, decode(golden));
}

TEST(FrameValue, CopyCarriesPayloadAndCorruptFlag)
{
    // What the fault layer's duplicate does: copy a frame whose
    // corrupt flag is already set.
    net::Packet pkt = fragmentFrame(FragmentPayload(header(), 1, 3));
    pkt.corrupted = true;
    const net::Packet copy = pkt;
    EXPECT_TRUE(copy.corrupted);
    EXPECT_EQ(encode(copy), encode(pkt));
    EXPECT_EQ(copy.payloadAs<FragmentPayload>().fragIndex, 1u);
}

TEST(FrameValue, MalformedTagsFailTheReader)
{
    Bytes bad_tag = concat({goldenFields(false), {0x07}});
    ckpt::Reader r1(bad_tag, "packet");
    net::Packet pkt;
    EXPECT_FALSE(getPacket(r1, pkt));
    EXPECT_FALSE(r1.ok());

    Bytes bad_kind =
        concat({goldenFields(false), {0x02, 0x04}, goldenHeader,
                {0x00, 0x00, 0x00, 0x00}});
    ckpt::Reader r2(bad_kind, "packet");
    EXPECT_FALSE(getPacket(r2, pkt));
    EXPECT_FALSE(r2.ok());
}
