/**
 * @file
 * Wire frames for the distributed engine's socket mesh.
 *
 * Every message between two DistributedEngine processes is one
 * length-prefixed, CRC-guarded frame:
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

/**
 * Distributed mesh-protocol message types (see docs/distributed.md).
 * Process 0 runs the quantum driver and shard 0; processes 1..K-1 are
 * its forked peers. Only Exchange frames travel between two peers.
 */
enum class FrameType : std::uint32_t
{
    /** Peer -> process 0: the peer is alive and speaks the protocol. */
    Hello = 1,
    /** Process 0 -> peer: run one quantum up to its end qe, then
     * exchange and merge. */
    Quantum,
    /** Any process -> any other: the delivery rows it staged for the
     * receiver's shard this quantum; toward process 0 also the
     * counter deltas and the done/pending flags. */
    Exchange,
    /** Process 0 -> peer: serialize your state slice (every column is
     * already merged, so the frame carries no rows). */
    StateReq,
    /** Peer -> process 0: the requested state slice. */
    State,
    /** Peer -> process 0: liveness beacon between protocol frames. */
    Heartbeat,
    /** Process 0 -> peer: run complete, exit cleanly. */
    Stop,
    /** Between process 0 and a peer, either way: the sender is
     * failing; the body carries the reason. */
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
