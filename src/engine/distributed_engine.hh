/**
 * @file
 * Fault-tolerant multi-process engine: forked workers, a quantum
 * barrier over sockets, and structured peer-failure detection.
 *
 * The paper's deployment shape is N node simulators as separate host
 * processes synchronized by a central controller. DistributedEngine
 * reproduces that shape: the coordinator forks K worker processes,
 * each owning a contiguous shard of ceil(N/K) nodes, and runs as one
 * more executor under the QuantumDriver the in-process engines use —
 * its barrier goes over one transport::SocketChannel per worker
 * (transport/socket.hh) instead of thread barriers.
 *
 * Conservative runs only (quantum <= minimum network latency): every
 * cross-partition delivery then lands at or beyond the next quantum
 * boundary, so a packet can be executed on a peer that never sees the
 * receiver's mid-quantum state, and the merged per-destination
 * delivery order — hence the full RunResult and finalStateHash — is
 * bit-identical to the SequentialEngine. The coordinator enforces the
 * condition up front and each worker re-checks it per delivery.
 *
 * Robustness is the point of the multi-process shape: a worker can
 * crash (SIGKILL), wedge (SIGSTOP, scheduler hang), or half-open its
 * socket. Every coordinator wait is deadline-bounded and every worker
 * runs a heartbeat beacon, so each of those outcomes maps to a
 * structured PeerFailure — never a stuck barrier — which surfaces as
 * base::RunAbort{cause "peer-failure"} that supervise::RunSupervisor
 * catches, logs as an incident, and recovers from by checkpoint
 * replay with a fresh set of workers (docs/distributed.md).
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

/** How a worker process was observed to fail. */
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
 * Structured description of one failed worker, captured by the
 * coordinator at the barrier wait that detected it. Rendered into the
 * RunAbort detail (cause "peer-failure") so the supervisor's incident
 * log names the peer, not just the quantum.
 */
struct PeerFailure
{
    PeerFailureKind kind = PeerFailureKind::Disconnect;
    /** Worker index (shard owner). */
    std::size_t peer = 0;
    /** Host pid of the worker process. */
    long pid = 0;
    /** Barrier phase the coordinator was waiting in. */
    std::string phase;
    /** Host seconds since the peer's last frame of any kind. */
    double frameAge = 0.0;
    /** Extra context (peer-reported abort reason, decode error). */
    std::string detail;

    /** One-line human-readable description (the RunAbort detail). */
    std::string describe() const;
};

/**
 * Multi-process distributed engine (coordinator side).
 *
 * Unlike the in-process engines there is no run(Cluster&) overload:
 * every worker process inherits the coordinator's replica through
 * fork and needs it pristine, so externally pre-built (possibly
 * already executed) clusters cannot be partitioned. The replica
 * serves configuration, absorbed global counters, and checkpoint
 * assembly — its own nodes never execute.
 */
class DistributedEngine
{
  public:
    explicit DistributedEngine(EngineOptions options = {});

    /**
     * Run @p workload on a cluster built from @p params under
     * @p policy, partitioned across forked worker processes.
     *
     * @throw base::RunAbort cause "peer-failure" when a worker
     *        crashes, hangs, or corrupts the protocol mid-run (the
     *        surviving workers are torn down first).
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
