#include "transport/heartbeat.hh"

#include <chrono>

#include "ckpt/ckpt_io.hh"

namespace aqsim::transport
{

HeartbeatSender::HeartbeatSender(SocketChannel &channel,
                                 double period_seconds)
    : channel_(channel), periodSeconds_(period_seconds)
{
    thread_ = std::thread([this] { loop(); });
}

HeartbeatSender::~HeartbeatSender()
{
    stop();
}

void
HeartbeatSender::stop()
{
    {
        base::MutexLock lock(mutex_);
        if (stop_) {
            // Already stopped; the thread may even be joined.
        }
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
HeartbeatSender::loop()
{
    const auto period = std::chrono::duration<double>(periodSeconds_);
    std::uint64_t seq = 0;
    for (;;) {
        {
            base::MutexLock lock(mutex_);
            if (cv_.waitFor(mutex_, period,
                            [this]() AQSIM_REQUIRES(mutex_) {
                                return stop_;
                            }))
                return;
        }
        Frame beat;
        beat.type = FrameType::Heartbeat;
        ckpt::Writer w;
        w.u64(seq++);
        beat.body = w.take();
        // Never wait for the reader: what the socket does not take
        // now goes out with the next flush of the channel, this
        // thread's or the protocol thread's.
        channel_.post(beat);
        if (channel_.flush() == RecvStatus::Closed)
            return; // pipe is gone; the protocol thread will notice
    }
}

} // namespace aqsim::transport
