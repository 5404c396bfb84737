#include "transport/socket.hh"

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace aqsim::transport
{

namespace
{

/** Poll slice: a wait re-checks its deadline this often. */
constexpr int pollSliceMs = 100;

/**
 * How long a wait retries its non-blocking writes and reads, yielding
 * the CPU between tries, before it sleeps in poll. A protocol reply
 * usually lands within this window, which saves the sleep/wake per
 * frame. The yield matters: with more processes than CPUs, a busy
 * spin would keep the very peer being waited on off the CPU.
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

void
SocketChannel::post(const Frame &frame)
{
    std::vector<std::uint8_t> wire = encodeFrame(frame);
    base::MutexLock lock(sendMutex_);
    if (outHead_ == out_.size()) {
        out_ = std::move(wire);
        outHead_ = 0;
    } else {
        out_.insert(out_.end(), wire.begin(), wire.end());
    }
}

RecvStatus
SocketChannel::flush()
{
    base::MutexLock lock(sendMutex_);
    while (outHead_ < out_.size()) {
        const ssize_t n =
            ::send(fd_, out_.data() + outHead_, out_.size() - outHead_,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n >= 0) {
            outHead_ += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return RecvStatus::Timeout;
        // EPIPE/ECONNRESET: peer is gone. The caller maps this to a
        // structured disconnect failure.
        return RecvStatus::Closed;
    }
    return RecvStatus::Ok;
}

RecvStatus
SocketChannel::tryRecv(Frame &frame)
{
    for (;;) {
        std::uint8_t *dst;
        std::size_t want;
        if (inGot_ < frameHeaderBytes) {
            dst = inHeader_ + inGot_;
            want = frameHeaderBytes - inGot_;
        } else {
            const std::size_t body_got = inGot_ - frameHeaderBytes;
            if (body_got == inBody_.size()) {
                std::uint32_t body_len = 0, type = 0, body_crc = 0;
                std::memcpy(&body_len, inHeader_, 4);
                std::memcpy(&type, inHeader_ + 4, 4);
                std::memcpy(&body_crc, inHeader_ + 8, 4);
                inGot_ = 0;
                return decodeFrame(body_len, type, body_crc,
                                   std::move(inBody_), frame);
            }
            dst = inBody_.data() + body_got;
            want = inBody_.size() - body_got;
        }
        const ssize_t n = ::recv(fd_, dst, want, MSG_DONTWAIT);
        if (n > 0) {
            inGot_ += static_cast<std::size_t>(n);
            if (inGot_ == frameHeaderBytes) {
                std::uint32_t body_len = 0;
                std::memcpy(&body_len, inHeader_, 4);
                if (body_len > maxFrameBody)
                    return RecvStatus::Corrupt;
                inBody_ = std::vector<std::uint8_t>(body_len);
            }
            continue;
        }
        if (n == 0)
            return RecvStatus::Closed; // orderly EOF (peer dead)
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return RecvStatus::Timeout;
        return RecvStatus::Closed; // ECONNRESET and friends
    }
}

void
SocketChannel::close()
{
    ::shutdown(fd_, SHUT_RDWR);
}

void
DuplexRound::send(std::size_t link, SocketChannel &channel,
                  const Frame &frame)
{
    channel.post(frame);
    drain(link, channel);
}

void
DuplexRound::drain(std::size_t link, SocketChannel &channel)
{
    legs_[link].channel = &channel;
    legs_[link].sending = true;
}

void
DuplexRound::receive(std::size_t link, SocketChannel &channel)
{
    legs_[link].channel = &channel;
    legs_[link].receiving = true;
}

bool
DuplexRound::busy() const
{
    for (const Leg &leg : legs_)
        if (leg.sending || leg.receiving)
            return true;
    return false;
}

double
DuplexRound::age() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
}

bool
DuplexRound::step(Event &event)
{
    for (std::size_t link = 0; link < legs_.size(); ++link) {
        Leg &leg = legs_[link];
        event.link = link;
        // Receive first: a frame the other end wrote before it went
        // away (its Abort, say) explains more than the failed write.
        if (leg.receiving) {
            event.status = leg.channel->tryRecv(event.frame);
            if (event.status == RecvStatus::Ok) {
                leg.receiving = false;
                event.kind = EventKind::Received;
                return true;
            }
            if (event.status != RecvStatus::Timeout) {
                leg.sending = leg.receiving = false;
                event.kind = EventKind::Failed;
                return true;
            }
        }
        if (leg.sending) {
            event.status = leg.channel->flush();
            if (event.status == RecvStatus::Ok) {
                leg.sending = false;
                event.kind = EventKind::Sent;
                return true;
            }
            if (event.status != RecvStatus::Timeout) {
                leg.sending = leg.receiving = false;
                event.kind = EventKind::Failed;
                return true;
            }
        }
    }
    return false;
}

bool
DuplexRound::advance(Event &event, double seconds)
{
    const auto deadline = deadlineAfter(seconds);
    const auto spin_end = std::min(
        deadline, std::chrono::steady_clock::now() + spinBudget);
    std::vector<struct pollfd> fds;
    for (;;) {
        if (step(event))
            return true;
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline)
            return false;
        if (now < spin_end) {
            ::sched_yield();
            continue;
        }
        fds.clear();
        for (const Leg &leg : legs_) {
            if (!leg.sending && !leg.receiving)
                continue;
            struct pollfd pfd;
            pfd.fd = leg.channel->fd();
            pfd.events = static_cast<short>((leg.sending ? POLLOUT : 0) |
                                            (leg.receiving ? POLLIN : 0));
            pfd.revents = 0;
            fds.push_back(pfd);
        }
        if (fds.empty())
            return false;
        // Readiness, a slice's end or EINTR: the next pass finds out.
        ::poll(fds.data(), fds.size(), remainingMs(deadline));
    }
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
