/**
 * @file
 * Wire frames for the distributed-engine control channel.
 *
 * Every message between the DistributedEngine coordinator and its
 * worker processes is one length-prefixed, CRC-guarded frame:
 *
 *   frame := bodyLen(u32) type(u32) bodyCrc(u32) body
 *
 * The 12-byte header is fixed; the body is a ckpt::Writer buffer
 * decoded with ckpt::Reader, so the distributed protocol reuses the
 * same self-checking encoding discipline as the checkpoint container
 * (docs/checkpoint-restore.md). A torn, truncated, or bit-flipped
 * frame decodes to RecvStatus::Corrupt — a structured peer failure —
 * never to silently wrong simulation state. SocketChannel
 * (socket.hh) moves the encoded bytes.
 */

#ifndef AQSIM_TRANSPORT_FRAME_HH
#define AQSIM_TRANSPORT_FRAME_HH

#include <cstdint>
#include <vector>

namespace aqsim::transport
{

/** Distributed barrier-protocol message types (see docs/distributed.md). */
enum class FrameType : std::uint32_t
{
    /** Peer -> coordinator: worker is alive and speaks the protocol. */
    Hello = 1,
    /** Coordinator -> peer: merge the previous quantum's inbound
     * delivery runs (carried at the head), then run one quantum up to
     * its end qe. */
    Quantum,
    /** Peer -> coordinator: counter deltas, local progress and the
     * outbound delivery runs. */
    Exchange,
    /** Coordinator -> peer: merge the pending inbound delivery runs
     * (carried at the head), then serialize your state slice. */
    StateReq,
    /** Peer -> coordinator: the requested state slice. */
    State,
    /** Peer -> coordinator: liveness beacon between protocol frames. */
    Heartbeat,
    /** Coordinator -> peer: run complete, exit cleanly. */
    Stop,
    /** Either direction: sender is failing; body carries the reason. */
    Abort,
};

/** @return a stable lowercase name for diagnostics ("exchange"...). */
const char *frameTypeName(FrameType type);

/** One decoded protocol message. */
struct Frame
{
    FrameType type = FrameType::Hello;
    /** Body bytes (a ckpt::Writer buffer; may be empty). */
    std::vector<std::uint8_t> body;
};

/** Outcome of one bounded receive attempt. */
enum class RecvStatus
{
    /** A well-formed frame was decoded into the out-param. */
    Ok,
    /** Deadline elapsed with no complete frame (peer hung or slow). */
    Timeout,
    /** Orderly or abortive close (EOF / ECONNRESET): peer is gone. */
    Closed,
    /** CRC mismatch, oversize body, or unknown type: protocol damage. */
    Corrupt,
};

/** @return a stable lowercase name for diagnostics ("timeout"...). */
const char *recvStatusName(RecvStatus status);

/**
 * Largest accepted frame body. State frames carry whole per-peer
 * cluster slices, so the cap is generous; anything larger is protocol
 * damage (a corrupt length prefix), not a real message.
 */
constexpr std::uint32_t maxFrameBody = 256u * 1024u * 1024u;

/** Fixed wire-header size: bodyLen + type + bodyCrc. */
constexpr std::size_t frameHeaderBytes = 12;

/** Encode @p frame into the wire form (header + body). */
std::vector<std::uint8_t> encodeFrame(const Frame &frame);

/**
 * Validate a received header triple and CRC-check the body.
 *
 * @return Ok and fills @p frame, or Corrupt (length/type/CRC damage).
 */
RecvStatus decodeFrame(std::uint32_t body_len, std::uint32_t type,
                       std::uint32_t body_crc,
                       std::vector<std::uint8_t> body, Frame &frame);

} // namespace aqsim::transport

#endif // AQSIM_TRANSPORT_FRAME_HH
