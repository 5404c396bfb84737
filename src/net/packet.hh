/**
 * @file
 * Network packets exchanged between simulated nodes.
 *
 * A Packet is the unit the network controller routes and times: one
 * link-layer (jumbo Ethernet) frame. Higher layers (mpi/) segment
 * messages into packets and write their payload into the frame's
 * inline payload area for reassembly.
 *
 * A frame is a plain value: trivially copyable, with its payload held
 * inline rather than behind a pointer. Sending a frame allocates
 * nothing, and a frame that crosses from one worker to another is
 * copied, so no heap object or reference count is ever shared between
 * the sending and the receiving worker (docs/performance.md).
 */

#ifndef AQSIM_NET_PACKET_HH
#define AQSIM_NET_PACKET_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "base/types.hh"

namespace aqsim::net
{

/** One link-layer frame in flight between two nodes. */
struct Packet
{
    /**
     * Bytes of upper-layer payload a frame carries inline: the largest
     * mpi payload (a 48-byte message header plus two 32-bit fields).
     */
    static constexpr std::size_t payloadCapacity = 56;

    /** payloadKind of a frame that carries no payload. */
    static constexpr std::uint8_t noPayload = 0;

    /** Globally unique id (assigned by the controller at injection). */
    std::uint64_t id = 0;

    NodeId src = 0;
    NodeId dst = 0;

    /** Tick at which the sending application handed data to the NIC. */
    Tick sendTick = 0;

    /**
     * Tick at which the frame left the source NIC: sendTick plus queueing
     * and serialization delay. The originating timestamp the paper tags
     * packets with.
     */
    Tick departTick = 0;

    /**
     * The physically correct arrival tick at the destination:
     * departTick + switch latency + destination NIC latency. Delivery at
     * any later tick is a straggler effect.
     */
    Tick idealArrival = 0;

    /** Frame size in bytes (headers included), <= MTU. */
    std::uint32_t bytes = 0;

    /**
     * Set by the fault-injection layer when the frame was damaged on
     * the wire. The payload is untouched (we model shape, not
     * content); receivers treat the flag like a failed link-layer CRC
     * and discard the frame.
     */
    bool corrupted = false;

    /**
     * What the payload area holds: noPayload, or a kind the upper
     * layer defines (mpi::FrameKind). The network never reads it.
     */
    std::uint8_t payloadKind = noPayload;

    /** Upper-layer payload bytes (e.g. an MPI message fragment). */
    alignas(8) unsigned char payload[payloadCapacity] = {};

    /** A frame carrying @p value as a payload of kind @p kind. */
    template <typename T>
    static Packet
    carrying(std::uint8_t kind, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(sizeof(T) <= payloadCapacity);
        Packet pkt;
        pkt.payloadKind = kind;
        std::memcpy(pkt.payload, &value, sizeof(T));
        return pkt;
    }

    /** The payload read back as the @p T it was written as. */
    template <typename T>
    T
    payloadAs() const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(sizeof(T) <= payloadCapacity);
        T value;
        std::memcpy(&value, payload, sizeof(T));
        return value;
    }

    /** Human-readable one-line summary for debugging. */
    std::string toString() const;
};

static_assert(std::is_trivially_copyable_v<Packet>,
              "a frame crosses workers by value");

} // namespace aqsim::net

#endif // AQSIM_NET_PACKET_HH
