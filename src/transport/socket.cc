#include "transport/socket.hh"

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "base/logging.hh"

namespace aqsim::transport
{

namespace
{

/** Poll slice: every blocking wait re-checks its deadline this often. */
constexpr int pollSliceMs = 100;

/**
 * How long a read retries a non-blocking recv, yielding the CPU
 * between tries, before it sleeps in poll. A protocol reply usually
 * lands within this window, which saves the sleep/wake per frame. The
 * yield matters: with more processes than CPUs, a busy spin would
 * keep the very peer being waited on off the CPU.
 */
constexpr auto spinBudget = std::chrono::microseconds(50);

int
remainingMs(std::chrono::steady_clock::time_point deadline)
{
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0)
        return 0;
    return static_cast<int>(
        std::min<long long>(left.count(), pollSliceMs));
}

std::chrono::steady_clock::time_point
deadlineAfter(double seconds)
{
    return std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(seconds));
}

} // namespace

SocketChannel::SocketChannel(int fd) : fd_(fd)
{
    AQSIM_ASSERT(fd >= 0);
}

SocketChannel::~SocketChannel()
{
    ::close(fd_);
}

bool
SocketChannel::send(const Frame &frame)
{
    return write(frame, Deadline::max()) == RecvStatus::Ok;
}

RecvStatus
SocketChannel::sendWithin(const Frame &frame, double deadline_seconds)
{
    return write(frame, deadlineAfter(deadline_seconds));
}

RecvStatus
SocketChannel::write(const Frame &frame, Deadline deadline)
{
    const std::vector<std::uint8_t> wire = encodeFrame(frame);
    base::MutexLock lock(sendMutex_);
    std::size_t sent = 0;
    while (sent < wire.size()) {
        const ssize_t n =
            ::send(fd_, wire.data() + sent, wire.size() - sent,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n >= 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        // EPIPE/ECONNRESET: peer is gone. The caller maps this
        // to a structured disconnect failure.
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            return RecvStatus::Closed;
        // The socket buffer is full: wait for the peer to drain it.
        const RecvStatus ready = waitReady(POLLOUT, deadline);
        if (ready != RecvStatus::Ok)
            return ready;
    }
    return RecvStatus::Ok;
}

RecvStatus
SocketChannel::waitReady(short events, Deadline deadline) const
{
    for (;;) {
        struct pollfd pfd;
        pfd.fd = fd_;
        pfd.events = events;
        pfd.revents = 0;
        const int ms = remainingMs(deadline);
        if (ms == 0 && std::chrono::steady_clock::now() >= deadline)
            return RecvStatus::Timeout;
        const int pr = ::poll(&pfd, 1, ms);
        if (pr > 0)
            return RecvStatus::Ok;
        if (pr < 0 && errno != EINTR)
            return RecvStatus::Closed;
        // Slice elapsed (or EINTR): loop re-checks the deadline.
    }
}

RecvStatus
SocketChannel::readFully(std::uint8_t *data, std::size_t size,
                         Deadline deadline)
{
    std::size_t got = 0;
    const auto spin_end = std::min(
        deadline, std::chrono::steady_clock::now() + spinBudget);
    while (got < size) {
        const ssize_t n =
            ::recv(fd_, data + got, size - got, MSG_DONTWAIT);
        if (n > 0) {
            got += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0)
            return RecvStatus::Closed; // orderly EOF (peer dead)
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            return RecvStatus::Closed; // ECONNRESET and friends
        if (std::chrono::steady_clock::now() >= spin_end)
            break;
        ::sched_yield();
    }
    while (got < size) {
        const RecvStatus ready = waitReady(POLLIN, deadline);
        if (ready != RecvStatus::Ok)
            return ready;
        const ssize_t n = ::recv(fd_, data + got, size - got, 0);
        if (n == 0)
            return RecvStatus::Closed; // orderly EOF (peer dead)
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            return RecvStatus::Closed; // ECONNRESET and friends
        }
        got += static_cast<std::size_t>(n);
    }
    return RecvStatus::Ok;
}

RecvStatus
SocketChannel::recv(Frame &frame, double deadline_seconds)
{
    const auto deadline = deadlineAfter(deadline_seconds);

    std::uint8_t header[frameHeaderBytes];
    RecvStatus status = readFully(header, sizeof(header), deadline);
    if (status != RecvStatus::Ok)
        return status;

    std::uint32_t body_len = 0, type = 0, body_crc = 0;
    std::memcpy(&body_len, header, 4);
    std::memcpy(&type, header + 4, 4);
    std::memcpy(&body_crc, header + 8, 4);
    if (body_len > maxFrameBody)
        return RecvStatus::Corrupt;

    std::vector<std::uint8_t> body(body_len);
    if (body_len > 0) {
        status = readFully(body.data(), body.size(), deadline);
        if (status != RecvStatus::Ok)
            return status;
    }
    return decodeFrame(body_len, type, body_crc, std::move(body), frame);
}

void
SocketChannel::close()
{
    ::shutdown(fd_, SHUT_RDWR);
}

std::pair<std::unique_ptr<SocketChannel>, std::unique_ptr<SocketChannel>>
socketChannelPair()
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        fatal("socketpair failed: %s", std::strerror(errno));
    return {std::make_unique<SocketChannel>(fds[0]),
            std::make_unique<SocketChannel>(fds[1])};
}

} // namespace aqsim::transport
