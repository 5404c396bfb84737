/**
 * @file
 * Peer-process fault drills for the distributed engine.
 *
 * Chaos scenarios (chaos.hh) perturb the *simulated* network; peer
 * drills perturb the *host* processes running the simulation. A drill
 * spec names an exact, reproducible protocol point inside one worker
 * process:
 *
 *     kill:peer=1,quantum=3,phase=exchange
 *
 * and the worker executes the operation on itself when it reaches
 * that point — SIGKILL (a crashed peer), SIGSTOP (a hung peer whose
 * socket stays open, the heartbeat-loss case), or _exit before the
 * protocol handshake (the half-open case). Drills compose with ';'.
 * The supervisor clears the spec on respawned attempts so recovery
 * runs clean; tests and the chaos-soak CI use drills to prove every
 * barrier wait is deadline-bounded.
 */

#ifndef AQSIM_FAULT_PEER_DRILL_HH
#define AQSIM_FAULT_PEER_DRILL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace aqsim::fault
{

/** Host-process operation a drill performs on its worker. */
enum class PeerDrillOp
{
    /** raise(SIGKILL): abrupt death, fds closed by the kernel. */
    Kill,
    /** raise(SIGSTOP): alive but frozen — heartbeats stop, the
     * socket stays open (only a liveness deadline can detect it). */
    Stop,
    /** _exit(0) without protocol goodbye: the half-open case. */
    Exit,
};

/** Protocol point at which a drill fires (inside the worker). */
enum class PeerDrillPhase
{
    /** Before sending the Hello handshake frame. */
    Hello,
    /** After running the quantum, before sending Exchange. */
    Exchange,
    /**
     * After merging a quantum's inbound rows, at the end of its
     * exchange. The protocol has no Ack frame; `phase=ack` keeps
     * its spelling.
     */
    Ack,
};

/** One parsed drill. */
struct PeerDrill
{
    PeerDrillOp op = PeerDrillOp::Kill;
    /** Forked peer the drill fires in, 1..K-1 (process 0 runs
     * shard 0 and takes no drills). */
    std::size_t peer = 0;
    /** 1-based quantum at which it fires (ignored for phase=hello). */
    std::uint64_t quantum = 1;
    PeerDrillPhase phase = PeerDrillPhase::Exchange;
};

/**
 * Parse a ';'-separated drill spec
 * ("op:peer=P[,quantum=Q][,phase=hello|exchange|ack]").
 * fatal()s on syntax errors or unknown ops/phases. "" parses to {}.
 */
std::vector<PeerDrill> parsePeerDrills(const std::string &text);

} // namespace aqsim::fault

#endif // AQSIM_FAULT_PEER_DRILL_HH
