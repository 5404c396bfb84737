/**
 * @file
 * Socket-backed Channel: frames over a Unix or TCP stream.
 *
 * The production transport for multi-process runs. One SocketChannel
 * wraps one connected stream fd; frames travel as the wire encoding
 * from frame.hh. Failure semantics are the whole point:
 *
 *  - recv() first retries a non-blocking read for a short, fixed
 *    spin budget (yielding between tries), then sleeps in short
 *    poll(2) slices, so every wait is deadline-bounded and a
 *    SIGSTOPped or wedged peer surfaces as RecvStatus::Timeout,
 *    never a hang;
 *  - EOF and ECONNRESET surface as Closed (a SIGKILLed peer's kernel
 *    closes its fds, so a dead peer is detected without any timeout);
 *  - a CRC mismatch or an absurd length prefix surfaces as Corrupt;
 *  - send() uses MSG_NOSIGNAL, so writing into a half-open pipe
 *    returns false instead of raising SIGPIPE.
 *
 * socketChannelPair() (socketpair(2)) is the fork-model transport:
 * the coordinator creates one pair per worker before forking, each
 * side keeps one end. tcpListen/tcpConnect exist for tests that need
 * a connection whose far side can vanish between connect and first
 * frame (the half-open case).
 */

#ifndef AQSIM_TRANSPORT_SOCKET_HH
#define AQSIM_TRANSPORT_SOCKET_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "base/mutex.hh"
#include "transport/channel.hh"

namespace aqsim::transport
{

/** Channel over one connected stream socket (owns the fd). */
class SocketChannel : public Channel
{
  public:
    /** Take ownership of connected stream fd @p fd. */
    explicit SocketChannel(int fd);
    ~SocketChannel() override;

    SocketChannel(const SocketChannel &) = delete;
    SocketChannel &operator=(const SocketChannel &) = delete;

    bool send(const Frame &frame) override AQSIM_EXCLUDES(sendMutex_);
    RecvStatus recv(Frame &frame, double deadline_seconds) override;

    /**
     * shutdown(2) both directions; the fd itself is closed by the
     * destructor. A peer blocked in recv() observes Closed.
     */
    void close() override;

    /** Raw fd (fork plumbing: children close siblings' fds). */
    int fd() const { return fd_; }

  private:
    /**
     * Read exactly @p size bytes before @p deadline. Partial data at
     * the deadline is Timeout (a wedged sender mid-frame must not
     * hang the reader); EOF mid-buffer is Closed.
     */
    RecvStatus readFully(std::uint8_t *data, std::size_t size,
                         std::chrono::steady_clock::time_point deadline);

    const int fd_;
    /** Serializes writers (protocol thread + heartbeat thread). */
    base::Mutex sendMutex_;
};

/**
 * Connected AF_UNIX stream pair (socketpair(2)). First is
 * conventionally the coordinator end, second the worker end.
 */
std::pair<std::unique_ptr<SocketChannel>, std::unique_ptr<SocketChannel>>
socketChannelPair();

/**
 * Listen on 127.0.0.1:@p port (0 = ephemeral). @return listening fd,
 * with the bound port stored in @p bound_port. Fatal on error.
 */
int tcpListen(std::uint16_t port, std::uint16_t &bound_port);

/** Connect to 127.0.0.1:@p port. @return connected fd; -1 on error. */
int tcpConnect(std::uint16_t port);

/**
 * Accept one connection on @p listen_fd, waiting at most
 * @p deadline_seconds. @return connected fd; -1 on timeout/error.
 */
int tcpAccept(int listen_fd, double deadline_seconds);

} // namespace aqsim::transport

#endif // AQSIM_TRANSPORT_SOCKET_HH
