#include "transport/frame.hh"

#include <cstring>

#include "ckpt/ckpt_io.hh"

namespace aqsim::transport
{

const char *
frameTypeName(FrameType type)
{
    switch (type) {
    case FrameType::Hello:
        return "hello";
    case FrameType::Quantum:
        return "quantum";
    case FrameType::Exchange:
        return "exchange";
    case FrameType::StateReq:
        return "state-req";
    case FrameType::State:
        return "state";
    case FrameType::Heartbeat:
        return "heartbeat";
    case FrameType::Stop:
        return "stop";
    case FrameType::Abort:
        return "abort";
    }
    return "unknown";
}

const char *
recvStatusName(RecvStatus status)
{
    switch (status) {
    case RecvStatus::Ok:
        return "ok";
    case RecvStatus::Timeout:
        return "timeout";
    case RecvStatus::Closed:
        return "closed";
    case RecvStatus::Corrupt:
        return "corrupt";
    }
    return "unknown";
}

std::vector<std::uint8_t>
encodeFrame(const Frame &frame)
{
    std::vector<std::uint8_t> wire(frameHeaderBytes + frame.body.size());
    const std::uint32_t body_len =
        static_cast<std::uint32_t>(frame.body.size());
    const std::uint32_t type = static_cast<std::uint32_t>(frame.type);
    const std::uint32_t crc =
        ckpt::crc32(frame.body.data(), frame.body.size());
    std::memcpy(wire.data(), &body_len, 4);
    std::memcpy(wire.data() + 4, &type, 4);
    std::memcpy(wire.data() + 8, &crc, 4);
    if (!frame.body.empty())
        std::memcpy(wire.data() + frameHeaderBytes, frame.body.data(),
                    frame.body.size());
    return wire;
}

RecvStatus
decodeFrame(std::uint32_t body_len, std::uint32_t type,
            std::uint32_t body_crc, std::vector<std::uint8_t> body,
            Frame &frame)
{
    if (body.size() != body_len || body_len > maxFrameBody)
        return RecvStatus::Corrupt;
    if (type < static_cast<std::uint32_t>(FrameType::Hello) ||
        type > static_cast<std::uint32_t>(FrameType::Abort))
        return RecvStatus::Corrupt;
    if (ckpt::crc32(body.data(), body.size()) != body_crc)
        return RecvStatus::Corrupt;
    frame.type = static_cast<FrameType>(type);
    frame.body = std::move(body);
    return RecvStatus::Ok;
}

} // namespace aqsim::transport
