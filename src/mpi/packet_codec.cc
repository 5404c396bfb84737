#include "mpi/packet_codec.hh"

#include <memory>

#include "mpi/message.hh"

namespace aqsim::mpi
{

namespace
{

/** Payload discriminator tag on the wire. */
enum : std::uint8_t
{
    payloadNone = 0,
    payloadFragment = 1,
    payloadControl = 2,
};

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
    if (const auto *frag =
            dynamic_cast<const FragmentPayload *>(pkt.payload.get())) {
        w.u8(payloadFragment);
        putHeader(w, frag->header);
        w.u32(frag->fragIndex);
        w.u32(frag->numFrags);
    } else if (const auto *ctl = dynamic_cast<const ControlPayload *>(
                   pkt.payload.get())) {
        w.u8(payloadControl);
        w.u8(static_cast<std::uint8_t>(ctl->kind));
        putHeader(w, ctl->header);
        w.u32(ctl->progress);
    } else {
        w.u8(payloadNone);
    }
}

net::PacketPtr
getPacket(ckpt::Reader &r)
{
    auto pkt = std::make_shared<net::Packet>();
    pkt->id = r.u64();
    pkt->src = r.u32();
    pkt->dst = r.u32();
    pkt->bytes = r.u32();
    pkt->sendTick = r.u64();
    pkt->departTick = r.u64();
    pkt->idealArrival = r.u64();
    pkt->corrupted = r.boolean();
    const std::uint8_t tag = r.u8();
    switch (tag) {
    case payloadNone:
        break;
    case payloadFragment: {
        const MsgHeader h = getHeader(r);
        const std::uint32_t index = r.u32();
        const std::uint32_t total = r.u32();
        pkt->payload =
            std::make_shared<FragmentPayload>(h, index, total);
        break;
    }
    case payloadControl: {
        const std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(ControlPayload::Kind::Rack)) {
            r.fail("bad control-payload kind");
            return nullptr;
        }
        const MsgHeader h = getHeader(r);
        const std::uint32_t progress = r.u32();
        pkt->payload = std::make_shared<ControlPayload>(
            static_cast<ControlPayload::Kind>(kind), h, progress);
        break;
    }
    default:
        r.fail("bad payload tag");
        return nullptr;
    }
    if (!r.ok())
        return nullptr;
    return pkt;
}

} // namespace aqsim::mpi
