/**
 * @file
 * The distributed engine's transport: frames over a Unix stream.
 *
 * One SocketChannel is one bidirectional, ordered, reliable frame
 * pipe between two processes of a run; it wraps one connected stream
 * fd and moves the wire encoding from frame.hh. It never waits:
 * post() queues a frame whole, flush() writes what the socket takes
 * and tryRecv() reads what the socket holds, keeping the bytes of a
 * partly read frame for the next call.
 *
 * Every wait is a DuplexRound::advance, which serves the outstanding
 * writes and reads of any number of channels from one poll(2).
 * Failure semantics are the whole point:
 *
 *  - a wait first retries the non-blocking calls for a short, fixed
 *    spin budget (yielding between tries), then sleeps in short
 *    poll(2) slices, and it ends at its deadline: a SIGSTOPped or
 *    wedged peer, reading or writing, surfaces as a timed-out wait,
 *    never a hang;
 *  - EOF and ECONNRESET surface as Closed (a SIGKILLed peer's kernel
 *    closes its fds, so a dead peer is detected without any timeout);
 *  - a CRC mismatch or an absurd length prefix surfaces as Corrupt;
 *  - writes use MSG_NOSIGNAL, so writing into a half-open pipe
 *    reads Closed instead of raising SIGPIPE.
 *
 * socketChannelPair() (socketpair(2)) is the fork-model transport:
 * process 0 creates one pair per pair of processes before forking,
 * and each process keeps its own ends.
 *
 * Thread safety: post() and flush() are serialized and frames are
 * queued whole, so one thread may post (the heartbeat thread) while
 * another posts or receives. Multiple concurrent receivers are not
 * supported.
 */

#ifndef AQSIM_TRANSPORT_SOCKET_HH
#define AQSIM_TRANSPORT_SOCKET_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/mutex.hh"
#include "transport/frame.hh"

namespace aqsim::transport
{

/** Frame pipe over one connected stream socket (owns the fd). */
class SocketChannel
{
  public:
    /** Take ownership of connected stream fd @p fd. */
    explicit SocketChannel(int fd);
    ~SocketChannel();

    SocketChannel(const SocketChannel &) = delete;
    SocketChannel &operator=(const SocketChannel &) = delete;

    /** Queue @p frame, whole, behind any frame still queued; writes
     * nothing (flush() does). */
    void post(const Frame &frame) AQSIM_EXCLUDES(sendMutex_);

    /**
     * Write as much of the queue as the socket takes now.
     *
     * @return Ok once nothing is queued; Timeout while bytes remain
     *         (wait for POLLOUT); Closed if the peer is gone.
     */
    RecvStatus flush() AQSIM_EXCLUDES(sendMutex_);

    /**
     * Read what the socket holds now, without waiting. Bytes of a
     * frame not yet complete stay in the channel for the next call.
     *
     * @return Ok with @p frame once a whole frame is in; Timeout
     *         while none is (wait for POLLIN); Closed once the peer
     *         is gone and every frame it wrote before is read;
     *         Corrupt on wire damage.
     */
    RecvStatus tryRecv(Frame &frame);

    /**
     * shutdown(2) both directions; the fd itself is closed by the
     * destructor. A peer waiting on this link observes Closed.
     */
    void close();

    /** Raw fd (tests write torn or damaged bytes through it). */
    int fd() const { return fd_; }

  private:
    const int fd_;
    /** Serializes writers (protocol thread + heartbeat thread). */
    base::Mutex sendMutex_;
    /** Encoded frames not yet written, from outHead_ on. Frames are
     * queued whole, so two writers never interleave their bytes. */
    std::vector<std::uint8_t> out_ AQSIM_GUARDED_BY(sendMutex_);
    std::size_t outHead_ AQSIM_GUARDED_BY(sendMutex_) = 0;
    /** The frame being read (receiving thread only): its header,
     * then its body, inGot_ bytes of them so far. */
    std::uint8_t inHeader_[frameHeaderBytes] = {};
    std::vector<std::uint8_t> inBody_;
    std::size_t inGot_ = 0;
};

/**
 * One round of sends and receives over several channels, and the
 * only way to wait on one: every frame is queued before anything
 * waits, and one poll(2) serves all outstanding writes and reads, so
 * the round completes whatever the frame sizes and whatever order the
 * other ends work in. A round of one link is a single send or
 * receive.
 */
class DuplexRound
{
  public:
    enum class EventKind
    {
        /** The link's send is done: its channel's queue is written. */
        Sent,
        /** A frame arrived on the link (its receive is now done). */
        Received,
        /** The link failed (status Closed or Corrupt). */
        Failed,
    };

    struct Event
    {
        EventKind kind = EventKind::Failed;
        std::size_t link = 0;
        RecvStatus status = RecvStatus::Ok;
        /** The frame of a Received event. */
        Frame frame;
    };

    /** @param links number of links, indexed 0..links-1. */
    explicit DuplexRound(std::size_t links)
        : legs_(links), start_(std::chrono::steady_clock::now())
    {}

    /** Queue @p frame on @p channel as link @p link's send. */
    void send(std::size_t link, SocketChannel &channel,
              const Frame &frame);

    /**
     * Make link @p link's send the write of whatever @p channel still
     * has queued. A send is done once the channel's whole queue is
     * written, frames posted before it included.
     */
    void drain(std::size_t link, SocketChannel &channel);

    /** Expect one frame from @p channel as link @p link's receive. */
    void receive(std::size_t link, SocketChannel &channel);

    bool sending(std::size_t link) const { return legs_[link].sending; }
    bool
    receiving(std::size_t link) const
    {
        return legs_[link].receiving;
    }

    /** @return true while a send or receive is outstanding. */
    bool busy() const;

    /** @return host seconds since the round was made. */
    double age() const;

    /**
     * Progress every outstanding send and receive until one completes
     * or fails, for at most @p seconds.
     *
     * @return false if none did in time.
     */
    bool advance(Event &event, double seconds);

  private:
    struct Leg
    {
        SocketChannel *channel = nullptr;
        bool sending = false;
        bool receiving = false;
    };

    /** One non-blocking pass. @return true with the first event. */
    bool step(Event &event);

    std::vector<Leg> legs_;
    const std::chrono::steady_clock::time_point start_;
};

/**
 * Connected AF_UNIX stream pair (socketpair(2)). First is
 * conventionally the lower-indexed process's end.
 */
std::pair<std::unique_ptr<SocketChannel>, std::unique_ptr<SocketChannel>>
socketChannelPair();

} // namespace aqsim::transport

#endif // AQSIM_TRANSPORT_SOCKET_HH
