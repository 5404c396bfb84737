#include "mpi/packet_codec.hh"

#include "mpi/message.hh"

namespace aqsim::mpi
{

namespace
{

void
putHeader(ckpt::Writer &w, const MsgHeader &h)
{
    // Explicit field order: this codec owns its layout (the checkpoint
    // serialize() path is free to evolve independently).
    w.u64(h.msgId);
    w.u32(h.src);
    w.u32(h.dst);
    w.i32(h.tag);
    w.u64(h.bytes);
    w.u64(h.sendTick);
    w.u64(h.checksum);
}

MsgHeader
getHeader(ckpt::Reader &r)
{
    MsgHeader h;
    h.msgId = r.u64();
    h.src = r.u32();
    h.dst = r.u32();
    h.tag = r.i32();
    h.bytes = r.u64();
    h.sendTick = r.u64();
    h.checksum = r.u64();
    return h;
}

} // namespace

void
putPacket(ckpt::Writer &w, const net::Packet &pkt)
{
    w.u64(pkt.id);
    w.u32(pkt.src);
    w.u32(pkt.dst);
    w.u32(pkt.bytes);
    w.u64(pkt.sendTick);
    w.u64(pkt.departTick);
    w.u64(pkt.idealArrival);
    w.boolean(pkt.corrupted);
    switch (frameKind(pkt)) {
    case FrameKind::Fragment: {
        const auto frag = pkt.payloadAs<FragmentPayload>();
        w.u8(static_cast<std::uint8_t>(FrameKind::Fragment));
        putHeader(w, frag.header);
        w.u32(frag.fragIndex);
        w.u32(frag.numFrags);
        break;
    }
    case FrameKind::Control: {
        const auto ctl = pkt.payloadAs<ControlPayload>();
        w.u8(static_cast<std::uint8_t>(FrameKind::Control));
        w.u8(static_cast<std::uint8_t>(ctl.kind));
        putHeader(w, ctl.header);
        w.u32(ctl.progress);
        break;
    }
    default:
        w.u8(static_cast<std::uint8_t>(FrameKind::None));
        break;
    }
}

bool
getPacket(ckpt::Reader &r, net::Packet &pkt)
{
    const std::uint64_t id = r.u64();
    const NodeId src = r.u32();
    const NodeId dst = r.u32();
    const std::uint32_t bytes = r.u32();
    const Tick send_tick = r.u64();
    const Tick depart_tick = r.u64();
    const Tick ideal_arrival = r.u64();
    const bool corrupted = r.boolean();
    switch (static_cast<FrameKind>(r.u8())) {
    case FrameKind::None:
        pkt = net::Packet{};
        break;
    case FrameKind::Fragment: {
        const MsgHeader h = getHeader(r);
        const std::uint32_t index = r.u32();
        const std::uint32_t total = r.u32();
        pkt = fragmentFrame(FragmentPayload(h, index, total));
        break;
    }
    case FrameKind::Control: {
        const std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(ControlPayload::Kind::Rack)) {
            r.fail("bad control-payload kind");
            return false;
        }
        const MsgHeader h = getHeader(r);
        const std::uint32_t progress = r.u32();
        pkt = controlFrame(ControlPayload(
            static_cast<ControlPayload::Kind>(kind), h, progress));
        break;
    }
    default:
        r.fail("bad payload tag");
        return false;
    }
    pkt.id = id;
    pkt.src = src;
    pkt.dst = dst;
    pkt.bytes = bytes;
    pkt.sendTick = send_tick;
    pkt.departTick = depart_tick;
    pkt.idealArrival = ideal_arrival;
    pkt.corrupted = corrupted;
    return r.ok();
}

} // namespace aqsim::mpi
