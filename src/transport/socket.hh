/**
 * @file
 * The distributed engine's transport: frames over a Unix stream.
 *
 * One SocketChannel is one bidirectional, ordered, reliable frame
 * pipe between two processes of a run; it wraps one connected stream
 * fd and moves the wire encoding from frame.hh.
 * Failure semantics are the whole point:
 *
 *  - recv() first retries a non-blocking read for a short, fixed
 *    spin budget (yielding between tries), then sleeps in short
 *    poll(2) slices, so every wait is deadline-bounded and a
 *    SIGSTOPped or wedged peer surfaces as RecvStatus::Timeout,
 *    never a hang;
 *  - EOF and ECONNRESET surface as Closed (a SIGKILLed peer's kernel
 *    closes its fds, so a dead peer is detected without any timeout);
 *  - a CRC mismatch or an absurd length prefix surfaces as Corrupt;
 *  - sendWithin() waits for socket buffer space in the same poll
 *    slices, so a reader that stopped reading surfaces as Timeout,
 *    never a writer blocked forever;
 *  - sends use MSG_NOSIGNAL, so writing into a half-open pipe
 *    returns false instead of raising SIGPIPE.
 *
 * socketChannelPair() (socketpair(2)) is the fork-model transport:
 * process 0 creates one pair per pair of processes before forking,
 * and each process keeps its own ends.
 *
 * Thread safety: send() is serialized, so one thread may send (the
 * heartbeat thread) while another sends or receives. Multiple
 * concurrent receivers are not supported.
 */

#ifndef AQSIM_TRANSPORT_SOCKET_HH
#define AQSIM_TRANSPORT_SOCKET_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

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

    /**
     * Write @p frame toward the peer, however long it takes the peer
     * to make room for it.
     *
     * @return false if the pipe is closed (peer gone); the caller maps
     *         this to a Disconnect-kind peer failure.
     */
    bool send(const Frame &frame) AQSIM_EXCLUDES(sendMutex_);

    /**
     * Write @p frame toward the peer within @p deadline_seconds.
     *
     * @return Ok; Closed if the pipe is closed (peer gone); Timeout if
     *         the peer did not drain the socket in time (stopped or
     *         wedged). After a Timeout part of the frame may be on
     *         the wire: the channel is fit only for close().
     */
    RecvStatus sendWithin(const Frame &frame, double deadline_seconds)
        AQSIM_EXCLUDES(sendMutex_);

    /**
     * Wait up to @p deadline_seconds for one complete frame. A frame
     * written before the peer closed stays readable; after it the
     * read is Closed.
     */
    RecvStatus recv(Frame &frame, double deadline_seconds);

    /**
     * shutdown(2) both directions; the fd itself is closed by the
     * destructor. A peer blocked in recv() observes Closed.
     */
    void close();

    /** Raw fd (tests write torn or damaged bytes through it). */
    int fd() const { return fd_; }

  private:
    using Deadline = std::chrono::steady_clock::time_point;

    /** Write @p frame before @p deadline (send/sendWithin). */
    RecvStatus write(const Frame &frame, Deadline deadline)
        AQSIM_EXCLUDES(sendMutex_);

    /**
     * Sleep in poll slices until the socket is ready for @p events
     * (or has failed: the next call reports how) or @p deadline
     * passes (Timeout).
     */
    RecvStatus waitReady(short events, Deadline deadline) const;

    /**
     * Read exactly @p size bytes before @p deadline. Partial data at
     * the deadline is Timeout (a wedged sender mid-frame must not
     * hang the reader); EOF mid-buffer is Closed.
     */
    RecvStatus readFully(std::uint8_t *data, std::size_t size,
                         Deadline deadline);

    const int fd_;
    /** Serializes writers (protocol thread + heartbeat thread). */
    base::Mutex sendMutex_;
};

/**
 * Connected AF_UNIX stream pair (socketpair(2)). First is
 * conventionally the lower-indexed process's end.
 */
std::pair<std::unique_ptr<SocketChannel>, std::unique_ptr<SocketChannel>>
socketChannelPair();

} // namespace aqsim::transport

#endif // AQSIM_TRANSPORT_SOCKET_HH
