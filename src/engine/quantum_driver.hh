/**
 * @file
 * The one quantum loop every engine runs (the paper's Algorithm 1).
 *
 * A run is: execute every node to the quantum end, meet at the
 * barrier, let the policy choose the next quantum, repeat. Everything
 * around that loop — checkpoint/restore lifecycle, watchdog arming,
 * supervised cancellation, the recovery drill, the deadlock panic and
 * the budget guards, the shared RunResult fields — lives here once.
 * Each engine is a QuantumExecutor: it knows how to run one quantum
 * (host-time co-simulation, a worker pool, or forked worker
 * processes) and nothing about the lifecycle around it.
 *
 * Per-quantum order: executor barrier, cancellation poll, watchdog
 * kick, Synchronizer::completeQuantum, checkpoint (the executor is
 * asked for an image only when one is due; a due file write goes on
 * on a background thread, joined before run() returns or unwinds),
 * recovery drill, guards.
 *
 * An empty quantum costs no barrier: when the executor's bound on the
 * cluster's earliest pending event lies at or past the quantum's end,
 * no node has anything to run in it, so the driver completes it
 * without runQuantum(). Everything else in the order above still
 * happens, so results, stats, timelines and images are unchanged.
 */

#ifndef AQSIM_ENGINE_QUANTUM_DRIVER_HH
#define AQSIM_ENGINE_QUANTUM_DRIVER_HH

#include <cstdint>
#include <optional>

#include "ckpt/checkpoint.hh"
#include "core/quantum_policy.hh"
#include "core/synchronizer.hh"
#include "engine/cluster.hh"
#include "engine/run_result.hh"
#include "engine/sequential_engine.hh"
#include "engine/watchdog.hh"

namespace aqsim::stats
{
class PhaseTimes;
} // namespace aqsim::stats

namespace aqsim::engine
{

/** The engine-specific half of a run, driven by QuantumDriver. */
class QuantumExecutor
{
  public:
    QuantumExecutor() = default;
    virtual ~QuantumExecutor() = default;
    // The driver, worker threads and the watchdog hold its address.
    QuantumExecutor(const QuantumExecutor &) = delete;
    QuantumExecutor &operator=(const QuantumExecutor &) = delete;

    /** Engine name stamped into results and checkpoint images. */
    virtual const char *name() const = 0;

    /**
     * Whether a watchdog-armed run may stash a boundary image every
     * quantum for the panic dump.
     */
    virtual bool stashesPanicImage() const { return true; }

    /** Start-of-run work that must happen under the armed watchdog. */
    virtual void begin() {}

    /**
     * Execute the open quantum on every node, through the exchange
     * barrier. @return the quantum's modeled host time in ns, or
     * nullopt when the executor runs for real and the driver measures
     * the quantum's wall-clock lap instead.
     */
    virtual std::optional<HostNs> runQuantum() = 0;

    /**
     * A lower bound on the earliest pending event of the whole
     * cluster, as of the last runQuantum(). The driver skips the open
     * quantum when the bound is at or past its end. The default, 0,
     * runs every quantum: the sequential engine models each quantum's
     * host time, so an empty one still costs modeled time.
     */
    virtual Tick nextEventTick() const { return 0; }

    /** @return true once every application has finished. */
    virtual bool done() const = 0;

    /** @return true while any node still has an event queued. */
    virtual bool pending() const = 0;

    /**
     * Whole-cluster checkpoint image at this boundary. Asked for only
     * on quanta where the checkpointer consumes one.
     */
    virtual ckpt::CheckpointImage
    boundaryImage(std::uint64_t config_hash) = 0;

    /**
     * Fill the engine's part of a panic dump: per-node progress, or
     * per-peer liveness. Called from the watchdog thread as well.
     */
    virtual void describe(PanicInfo &info) const = 0;

    /**
     * Close the run, still under the watchdog, and fill the
     * engine-specific result fields: finish ticks, retransmits, the
     * final state hash and exchange phase timings. hostNs arrives
     * holding the driver's wall-clock measure of the run; an executor
     * that models host time replaces it.
     */
    virtual void finish(RunResult &result) = 0;
};

/** Owns one run's quantum loop and its lifecycle. */
class QuantumDriver
{
  public:
    QuantumDriver(const EngineOptions &options, Cluster &cluster,
                  core::QuantumPolicy &policy);
    // Executors and the watchdog's dump hold its address.
    QuantumDriver(const QuantumDriver &) = delete;
    QuantumDriver &operator=(const QuantumDriver &) = delete;

    core::Synchronizer &sync() { return sync_; }

    /**
     * Supervised-run poll point: a hung quantum cannot throw on its
     * own (it is wedged inside event callbacks), so the watchdog's
     * panic handler trips the cancel token and the run aborts at the
     * next poll. Executors call this inside long waits too.
     */
    void pollCancel() const;

    /**
     * Run @p exec to completion under this run's own watchdog (when
     * EngineOptions::watchdogSeconds is set), which is joined on every
     * exit path.
     */
    RunResult run(QuantumExecutor &exec);

  private:
    PanicInfo describe() const;
    void injectFailure();

    const EngineOptions &options_;
    Cluster &cluster_;
    core::QuantumPolicy &policy_;
    core::Synchronizer sync_;
    QuantumExecutor *exec_ = nullptr;
};

/**
 * QuantumExecutor::finish's shared half, host time aside: the run's
 * outcome and final state hash from its final @p state, plus the
 * exchange-phase timings @p phases (null: none shown).
 */
void fillResult(RunResult &result, const ClusterState &state,
                const stats::PhaseTimes *phases);

} // namespace aqsim::engine

#endif // AQSIM_ENGINE_QUANTUM_DRIVER_HH
