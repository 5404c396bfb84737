/**
 * @file
 * Peer liveness beacon for the distributed barrier protocol.
 *
 * A peer that is merely *slow* (a long quantum, a large state
 * gather) must stay distinguishable from one that is *hung* — and
 * process 0 must learn the difference without inflating its frame
 * deadlines to cover the worst honest case. Each peer therefore
 * runs one HeartbeatSender thread that emits a small Heartbeat frame
 * to process 0 at a fixed period; process 0's receive loop absorbs
 * heartbeats while waiting for the frame it actually expects and
 * resets the peer's liveness clock on every frame of any type. A peer
 * whose heartbeats stop (SIGSTOP, scheduler wedge) ages past the
 * deadline and becomes a Hang-kind PeerFailure; one whose socket dies
 * becomes a Disconnect without waiting for any timer.
 */

#ifndef AQSIM_TRANSPORT_HEARTBEAT_HH
#define AQSIM_TRANSPORT_HEARTBEAT_HH

#include <cstdint>
#include <thread>

#include "base/mutex.hh"
#include "transport/socket.hh"

namespace aqsim::transport
{

/**
 * Emits Heartbeat frames on a channel at a fixed period from a
 * dedicated thread. Construction starts the beacon; stop() (or the
 * destructor) ends it. The beacon also stops on its own when a send
 * fails — a dead pipe needs no further beacons.
 */
class HeartbeatSender
{
  public:
    /**
     * @param channel outbound pipe (must outlive this object; its
     *        send() is thread-safe against the protocol thread)
     * @param period_seconds beacon period in host seconds
     */
    HeartbeatSender(SocketChannel &channel, double period_seconds);
    ~HeartbeatSender();

    HeartbeatSender(const HeartbeatSender &) = delete;
    HeartbeatSender &operator=(const HeartbeatSender &) = delete;

    /** Stop the beacon and join the thread. Idempotent. */
    void stop() AQSIM_EXCLUDES(mutex_);

  private:
    void loop() AQSIM_EXCLUDES(mutex_);

    SocketChannel &channel_;
    const double periodSeconds_;

    base::Mutex mutex_;
    base::CondVar cv_;
    bool stop_ AQSIM_GUARDED_BY(mutex_) = false;

    std::thread thread_;
};

} // namespace aqsim::transport

#endif // AQSIM_TRANSPORT_HEARTBEAT_HH
