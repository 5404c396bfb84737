/**
 * @file
 * Deterministic co-simulation of the parallel simulation host.
 *
 * The paper runs N node simulators as parallel processes and measures
 * wall-clock time. SequentialEngine reproduces that execution
 * deterministically: it interleaves the nodes' events in *host-time*
 * order using each node's host-speed model, so
 *
 *  - wall-clock per quantum = slowest node + barrier cost (Fig. 5),
 *  - whether a packet is a straggler depends on how far the receiver's
 *    simulator happens to have progressed in host time when the packet
 *    reaches the controller — exactly the paper's Fig. 3 scenarios,
 *
 * while remaining a pure function of the configuration (bit-identical
 * reruns).
 */

#ifndef AQSIM_ENGINE_SEQUENTIAL_ENGINE_HH
#define AQSIM_ENGINE_SEQUENTIAL_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "base/failure.hh"
#include "core/quantum_policy.hh"
#include "engine/cluster.hh"
#include "engine/run_result.hh"
#include "engine/watchdog.hh"
#include "net/network_controller.hh"
#include "node/host_cost_model.hh"

namespace aqsim::ckpt
{
struct CheckpointImage;
} // namespace aqsim::ckpt

namespace aqsim::engine
{

/**
 * What to do with a straggler (a packet whose receiver has already
 * simulated past its ideal arrival) — the design space the paper's
 * Section 3 discusses.
 */
enum class StragglerPolicy
{
    /**
     * "The only possibility we have is to schedule the packet
     * immediately": deliver at the receiver's current position
     * (the paper's choice; bounded lateness, minimal added latency).
     */
    DeliverNow,
    /**
     * Defer every straggler to the next quantum boundary: simpler
     * controller (no mid-quantum injection into the receiver's past)
     * but every straggler's latency snaps to the quantum (Fig. 3d
     * behaviour for all stragglers).
     */
    DeferToNextQuantum,
};

/**
 * Engine-level run options shared by every engine; the run lifecycle
 * they configure (checkpoints, watchdog, supervision seams, drills,
 * guards) is applied once, by engine::QuantumDriver.
 */
struct EngineOptions
{
    node::HostCostParams host;
    /** Keep one QuantumRecord per quantum in the result. */
    bool recordTimeline = false;
    /** Abort if simulated time exceeds this (0 = no limit). */
    Tick maxSimTicks = 0;
    /** Abort if quantum count exceeds this (0 = default guard). */
    std::uint64_t maxQuanta = 0;
    /**
     * Straggler handling (paper: DeliverNow). SequentialEngine only:
     * the ThreadedEngine rejects DeferToNextQuantum with a fatal.
     */
    StragglerPolicy stragglerPolicy = StragglerPolicy::DeliverNow;
    /**
     * Shard count K of the ThreadedEngine and the DistributedEngine
     * (ignored by SequentialEngine). 0 = hardware concurrency; always
     * clamped to the node count. Each worker runs a contiguous shard
     * of ceil(N/K) nodes per quantum: the run's own thread runs shard
     * 0 and K-1 spawned threads run the rest; the DistributedEngine
     * runs shard 0 in the run's own process and forks K-1 peers.
     * Conservative runs are bit-identical for any value.
     */
    std::size_t numWorkers = 0;
    /**
     * Watchdog deadline in host seconds: fail the run with a
     * diagnostic dump if a quantum makes no wall-clock progress for
     * this long (lost acknowledgment, barrier deadlock, runaway
     * coroutine). 0 = watchdog disabled.
     */
    double watchdogSeconds = 0.0;

    /**
     * Measure per-phase exchange wall-clock (sort/exchange/merge/
     * dispatch) and append it to summary(). Off by default: the
     * timings are real clock readings — nondeterministic — so they
     * must not appear in summaries that runs byte-compare (ckpt
     * smoke), and a disabled run makes no clock calls on the hot
     * path.
     */
    bool phaseStats = false;

    /**
     * Write a checkpoint after every N completed quanta (0 = never).
     * Requires checkpointDir. See docs/checkpoint-restore.md.
     */
    std::uint64_t checkpointEvery = 0;
    /** Directory for checkpoint files (created if missing). */
    std::string checkpointDir;
    /**
     * Checkpoint file — or directory, newest good file wins — to
     * restore from: the run replays deterministically and is verified
     * against the checkpointed state at its quantum.
     */
    std::string restorePath;
    /** Checkpoint files kept after rotation (0 = unlimited). */
    std::size_t checkpointKeepLast = 2;

    /**
     * Supervision seam (installed by supervise::RunSupervisor; never
     * set by ordinary callers). When non-null, the QuantumDriver polls
     * this token (also inside the engines' event loops and barrier
     * waits) and aborts the run with a catchable base::RunAbort when
     * it trips, so a watchdog-detected hang can be unwedged in-process
     * instead of killing the process.
     */
    base::CancelToken *cancelToken = nullptr;
    /**
     * Supervision seam: the image at restorePath, already read and
     * decoded by the supervisor's probe. The run adopts it instead of
     * reading and decoding the file a second time.
     */
    std::shared_ptr<const ckpt::CheckpointImage> restoreImage;
    /**
     * Supervision seam: called (from the watchdog thread) with the
     * structured hang dump on first watchdog expiry instead of
     * panicking; the QuantumDriver also trips cancelToken afterwards.
     */
    std::function<void(const PanicInfo &)> onWatchdogPanic;
    /**
     * Deterministic recovery drill: fail the run right after this
     * many quanta have completed (0 = never). Used by the supervisor
     * and its tests to rehearse checkpoint-restore recovery at an
     * exact, reproducible point.
     */
    std::uint64_t injectFailAfterQuantum = 0;
    /**
     * Drill flavour: instead of throwing directly, exercise the full
     * watchdog panic path (onWatchdogPanic + cancelToken), so the
     * recovery machinery is rehearsed end to end.
     */
    bool injectWatchdogPanic = false;

    /**
     * DistributedEngine only: how long process 0 waits on any one
     * peer frame before declaring the peer failed (and how long a
     * peer waits on any other process, doubled so healthy peers
     * outlive detection in process 0). Every distributed barrier wait is
     * bounded by this deadline — a dead, hung, or half-open peer
     * becomes a structured PeerFailure, never a stuck barrier. Peers
     * send a heartbeat every tenth of it, so a *slow* peer (long
     * quantum, big state gather) stays distinguishable from a *hung*
     * one.
     */
    double peerDeadlineSeconds = 30.0;
    /**
     * DistributedEngine only: peer fault drill spec, e.g.
     * "kill:peer=1,quantum=3,phase=exchange" (see
     * fault::parsePeerDrills). Drills fire inside the named forked
     * peer, 1..K-1, at an exact, reproducible protocol point; the
     * supervisor clears the spec on respawn so the recovery attempt
     * runs clean.
     */
    std::string peerDrillSpec;
};

/** Deterministic host-time co-simulating engine. */
class SequentialEngine
{
  public:
    explicit SequentialEngine(EngineOptions options = {});

    /**
     * Run @p workload on a cluster built from @p params under
     * @p policy. The policy instance is reset and driven by this run.
     */
    RunResult run(const ClusterParams &params,
                  workloads::Workload &workload,
                  core::QuantumPolicy &policy);

    /**
     * Run on an externally constructed cluster (lets callers attach
     * observers/tracers to the controller before the run starts).
     */
    RunResult run(Cluster &cluster, core::QuantumPolicy &policy);

    const EngineOptions &options() const { return options_; }

  private:
    EngineOptions options_;
};

} // namespace aqsim::engine

#endif // AQSIM_ENGINE_SEQUENTIAL_ENGINE_HH
