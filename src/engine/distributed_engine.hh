/**
 * @file
 * Fault-tolerant multi-process engine: forked peers, a socket mesh
 * between every pair of processes, and structured peer-failure
 * detection.
 *
 * The paper's deployment shape is N node simulators as separate host
 * processes synchronized by a central controller. DistributedEngine
 * reproduces that shape with K processes, each owning a contiguous
 * shard of ceil(N/K) nodes. Process 0 is the run's own process: it
 * runs shard 0 and the QuantumDriver the in-process engines use, and
 * forks K-1 peers. A socketpair joins every pair of processes before
 * the fork (transport/socket.hh), so each staged delivery row goes
 * from its source process straight to the process that owns its
 * destination; process 0 sees only its own rows, the peers' counter
 * deltas and progress flags, and decides the next quantum.
 *
 * Conservative runs only (quantum <= minimum network latency): every
 * cross-partition delivery then lands at or beyond the next quantum
 * boundary, so a packet can be executed on a peer that never sees the
 * receiver's mid-quantum state, and the merged per-destination
 * delivery order — hence the full RunResult and finalStateHash — is
 * bit-identical to the SequentialEngine. Process 0 enforces the
 * condition up front and every process re-checks it per delivery.
 *
 * Robustness is the point of the multi-process shape: a peer can
 * crash (SIGKILL), wedge (SIGSTOP, scheduler hang), or half-open its
 * socket. Every wait in process 0 is deadline-bounded and every peer
 * runs a heartbeat beacon, so each of those outcomes maps to a
 * structured PeerFailure — never a stuck barrier — which surfaces as
 * base::RunAbort{cause "peer-failure"} that supervise::RunSupervisor
 * catches, logs as an incident, and recovers from by checkpoint
 * replay with a fresh set of peers (docs/distributed.md). A fault in
 * shard 0 ends the run the way a threaded worker's fault does.
 */

#ifndef AQSIM_ENGINE_DISTRIBUTED_ENGINE_HH
#define AQSIM_ENGINE_DISTRIBUTED_ENGINE_HH

#include <cstdint>
#include <string>

#include "core/quantum_policy.hh"
#include "engine/cluster.hh"
#include "engine/run_result.hh"
#include "engine/sequential_engine.hh"
#include "workloads/workload.hh"

namespace aqsim::engine
{

/** How a forked peer was observed to fail. */
enum class PeerFailureKind
{
    /** Socket closed (EOF/ECONNRESET): the process died or closed
     * its channel without the protocol goodbye. */
    Disconnect,
    /** No frame (not even a heartbeat) within the deadline: the
     * process is alive but frozen or wedged. */
    Hang,
    /** A frame failed CRC/length/type validation: wire damage. */
    Corrupt,
    /** A well-formed frame violated the barrier protocol, or the
     * peer reported its own abort. */
    Protocol,
};

/** @return a stable lowercase name ("disconnect", "hang", ...). */
const char *peerFailureKindName(PeerFailureKind kind);

/**
 * Structured description of one failed peer, captured by process 0
 * at the wait that detected it. Rendered into the
 * RunAbort detail (cause "peer-failure") so the supervisor's incident
 * log names the peer, not just the quantum.
 */
struct PeerFailure
{
    PeerFailureKind kind = PeerFailureKind::Disconnect;
    /** Process index of the peer (shard owner), 1..K-1. */
    std::size_t peer = 0;
    /** Host pid of the peer process. */
    long pid = 0;
    /** Protocol phase process 0 was waiting in. */
    std::string phase;
    /** Host seconds since the peer's last frame of any kind. */
    double frameAge = 0.0;
    /** Extra context (peer-reported abort reason, decode error). */
    std::string detail;

    /** One-line human-readable description (the RunAbort detail). */
    std::string describe() const;
};

/**
 * Multi-process distributed engine (process 0's side).
 *
 * Unlike the in-process engines there is no run(Cluster&) overload:
 * every peer inherits process 0's replica through fork and needs it
 * pristine, so externally pre-built (possibly already executed)
 * clusters cannot be partitioned. Process 0 runs shard 0 on the
 * replica, which also holds the absorbed global counters and
 * assembles checkpoints; its other shards' nodes never execute.
 */
class DistributedEngine
{
  public:
    explicit DistributedEngine(EngineOptions options = {});

    /**
     * Run @p workload on a cluster built from @p params under
     * @p policy, partitioned across this process and K-1 forked
     * peers.
     *
     * @throw base::RunAbort cause "peer-failure" when a peer
     *        crashes, hangs, or corrupts the protocol mid-run (the
     *        surviving peers are torn down first).
     */
    RunResult run(const ClusterParams &params,
                  workloads::Workload &workload,
                  core::QuantumPolicy &policy);

    const EngineOptions &options() const { return options_; }

  private:
    EngineOptions options_;
};

} // namespace aqsim::engine

#endif // AQSIM_ENGINE_DISTRIBUTED_ENGINE_HH
