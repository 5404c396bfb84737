/**
 * @file
 * Message-layer wire format: headers, fragments, control packets.
 *
 * The mpi layer segments messages into MTU-sized frames, reassembles
 * them at the receiver, and verifies integrity via a per-message
 * checksum carried on every fragment. We model payload *shape* (sizes,
 * ordering, identity) rather than payload *content*; the checksum makes
 * the transport functionally verifiable end to end.
 */

#ifndef AQSIM_MPI_MESSAGE_HH
#define AQSIM_MPI_MESSAGE_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "base/types.hh"
#include "net/packet.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::mpi
{

/** Matches any source rank in recv(). */
constexpr int anySource = -1;
/** Matches any tag in recv(). */
constexpr int anyTag = -1;

/** Identity and shape of one message. */
struct MsgHeader
{
    /**
     * Cluster-unique message id: (src + 1) << 40 | the sender's
     * message counter, so one sender's ids rise in its send order
     * (MPI ordering).
     */
    std::uint64_t msgId = 0;
    Rank src = 0;
    Rank dst = 0;
    int tag = 0;
    /** Total payload bytes. */
    std::uint64_t bytes = 0;
    /** Tick at which the application issued the send. */
    Tick sendTick = 0;
    /** Integrity checksum over the identity fields. */
    std::uint64_t checksum = 0;

    /** Compute the expected checksum for the other fields. */
    std::uint64_t expectedChecksum() const;

    /** Fill in the checksum field. */
    void seal();

    /** @return true if the checksum matches the identity fields. */
    bool verify() const;

    /** Checkpoint support: persist all identity fields. */
    void serialize(ckpt::Writer &w) const;
};

/**
 * What a frame's inline payload area holds (net::Packet::payloadKind).
 * The values are also the payload tags of the wire codec
 * (mpi/packet_codec.hh).
 */
enum class FrameKind : std::uint8_t
{
    None = net::Packet::noPayload,
    /** A FragmentPayload. */
    Fragment = 1,
    /** A ControlPayload. */
    Control = 2,
};

/**
 * One data fragment of a segmented message. Trivially copyable: it
 * travels inside the frame's inline payload area.
 */
struct FragmentPayload
{
    FragmentPayload() = default;
    FragmentPayload(MsgHeader header, std::uint32_t index,
                    std::uint32_t total)
        : header(header), fragIndex(index), numFrags(total)
    {}

    /**
     * Panic on a checksum mismatch; assert the index is in range. A
     * receiver runs this on every fragment it accounts.
     */
    void checkIntegrity() const;

    MsgHeader header;
    std::uint32_t fragIndex = 0;
    std::uint32_t numFrags = 0;
};

/**
 * Rendezvous-protocol control packets. Trivially copyable: they
 * travel inside the frame's inline payload area.
 */
struct ControlPayload
{
    enum class Kind : std::uint8_t
    {
        /** Request to send: large message announced by the sender. */
        Rts,
        /** Clear to send: receiver has a matching buffer posted. */
        Cts,
        /**
         * Flow-control acknowledgment: one transport window of a long
         * message fully received (TCP-style windowing; the source of
         * the per-window round trips that make bulk transfers
         * latency-sensitive).
         */
        Ack,
        /**
         * Reliable-delivery acknowledgment: the whole message was
         * received and delivered. The sender cancels its retransmit
         * timer; a duplicate delivery attempt is answered with a fresh
         * Rack (see docs/fault-injection.md).
         */
        Rack,
    };

    ControlPayload() = default;
    ControlPayload(Kind kind, MsgHeader header,
                   std::uint32_t progress = 0)
        : header(header), progress(progress), kind(kind)
    {}

    MsgHeader header;
    /**
     * Ack only: the receiver's cumulative distinct-fragment count at
     * the moment the Ack was generated. A retransmitted window can
     * produce more than one Ack for the same boundary (the hole-fill
     * and the trailing duplicate of the window's final fragment);
     * the sender uses this field to accept only the Ack for the
     * window it is actually stalled on, so a stale or repeated Ack
     * can never release a later window early.
     */
    std::uint32_t progress = 0;
    Kind kind = Kind::Rts;
};

static_assert(std::is_trivially_copyable_v<FragmentPayload> &&
              sizeof(FragmentPayload) <= net::Packet::payloadCapacity);
static_assert(std::is_trivially_copyable_v<ControlPayload> &&
              sizeof(ControlPayload) <= net::Packet::payloadCapacity);

/** A frame carrying one data fragment. */
inline net::Packet
fragmentFrame(const FragmentPayload &frag)
{
    return net::Packet::carrying(
        static_cast<std::uint8_t>(FrameKind::Fragment), frag);
}

/** A frame carrying one control packet. */
inline net::Packet
controlFrame(const ControlPayload &ctrl)
{
    return net::Packet::carrying(
        static_cast<std::uint8_t>(FrameKind::Control), ctrl);
}

/** The kind of payload @p pkt carries. */
inline FrameKind
frameKind(const net::Packet &pkt)
{
    return static_cast<FrameKind>(pkt.payloadKind);
}

/** A fully received, verified message as seen by the application. */
struct Message
{
    Rank src = 0;
    int tag = 0;
    std::uint64_t bytes = 0;
    /** Tick at which the last fragment was delivered. */
    Tick completedAt = 0;
    /** Tick at which the sender's application issued the send. */
    Tick sentAt = 0;

    /** Observed end-to-end latency (send to full arrival). */
    Tick
    latency() const
    {
        return completedAt - sentAt;
    }

    /** Checkpoint support. */
    void serialize(ckpt::Writer &w) const;
};

/**
 * Reassembly state of one in-flight inbound message.
 */
class RxBuffer
{
  public:
    /** Outcome of accounting one fragment. */
    enum class AddResult
    {
        /** New fragment accepted, message still incomplete. */
        Progress,
        /** New fragment accepted and the message is now complete. */
        Complete,
        /**
         * Fragment already seen (a retransmit or a duplicated frame);
         * ignored. Tolerated rather than fatal because the fault layer
         * and the reliable-delivery retransmit path both legitimately
         * produce duplicates.
         */
        Duplicate,
    };

    explicit RxBuffer(const MsgHeader &header);

    /** Account one fragment. */
    AddResult addFragment(const FragmentPayload &frag);

    const MsgHeader &header() const { return header_; }
    std::uint32_t received() const { return received_; }
    std::uint32_t expected() const { return numFrags_; }

    /** Checkpoint support: header + fragment bitmap. */
    void serialize(ckpt::Writer &w) const;

  private:
    MsgHeader header_;
    std::uint32_t numFrags_;
    std::uint32_t received_ = 0;
    std::vector<bool> seen_;
};

/** Number of MTU-sized fragments for a message of @p bytes. */
std::uint32_t fragmentCount(std::uint64_t bytes, std::uint32_t mtu);

} // namespace aqsim::mpi

#endif // AQSIM_MPI_MESSAGE_HH
