/**
 * @file
 * Result of one cluster-simulation run.
 */

#ifndef AQSIM_ENGINE_RUN_RESULT_HH
#define AQSIM_ENGINE_RUN_RESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "core/sync_stats.hh"

namespace aqsim::engine
{

/** Everything measured during one run of a workload under a policy. */
struct RunResult
{
    std::string workload;
    std::string policy;
    std::string engine;
    std::size_t numNodes = 0;

    /** Simulated completion time (max over ranks). */
    Tick simTicks = 0;
    /** Host time spent simulating: modeled by the SequentialEngine,
     * measured by the QuantumDriver for the threaded and distributed
     * engines (wall clock from the executor's begin() to finish()). */
    HostNs hostNs = 0.0;
    /** The workload's self-reported metric (MOPS or seconds). */
    double metric = 0.0;

    std::uint64_t quanta = 0;
    /** Quanta the executor ran; the rest had no event before their
     * end and were completed without a barrier. Not in summary(). */
    std::uint64_t executedQuanta = 0;
    std::uint64_t packets = 0;
    std::uint64_t stragglers = 0;
    std::uint64_t nextQuantumDeliveries = 0;
    std::uint64_t latenessTicks = 0;
    double meanQuantumTicks = 0.0;

    /** Frames dropped by the fault layer (0 on a perfect network). */
    std::uint64_t droppedFrames = 0;
    /** Reliable-mode retransmission timeouts across all endpoints. */
    std::uint64_t retransmits = 0;

    /** Checkpoint files written during the run. */
    std::uint64_t checkpointsWritten = 0;
    /** Encoded bytes across those files. */
    std::uint64_t checkpointBytes = 0;
    /** Host wall-clock spent encoding + writing them, in ns. */
    double checkpointWriteNs = 0.0;
    /** Quantum a --restore run was verified against (0 = no restore). */
    std::uint64_t restoredFromQuantum = 0;
    /** FNV-1a fingerprint of the final cluster state (0 = not taken). */
    std::uint64_t finalStateHash = 0;

    /**
     * Supervision outcome (supervise::RunSupervisor): attempts made,
     * failures recovered from, conservative escalations taken. An
     * unsupervised (or first-try clean) run leaves recoveries at 0,
     * which also suppresses the summary section so default summaries
     * stay byte-comparable.
     */
    std::uint64_t superviseAttempts = 0;
    std::uint64_t superviseRecoveries = 0;
    std::uint64_t superviseEscalations = 0;

    /**
     * Wall-clock spent in each exchange phase across all workers
     * (stats/phase_timing.hh), measured only when
     * EngineOptions::phaseStats was on. Nondeterministic by nature:
     * never checkpointed or hashed, and only printed when
     * showPhaseStats is set so default summaries stay byte-comparable
     * across runs.
     */
    std::uint64_t phaseSortNs = 0;
    std::uint64_t phaseExchangeNs = 0;
    std::uint64_t phaseMergeNs = 0;
    std::uint64_t phaseDispatchNs = 0;
    /** Append the phase section to summary(). */
    bool showPhaseStats = false;

    /** Per-rank application completion ticks. */
    std::vector<Tick> finishTicks;
    /** Per-quantum records (only when timeline recording was on). */
    std::vector<core::QuantumRecord> timeline;

    double simSeconds() const { return ticksToSeconds(simTicks); }
    double hostSeconds() const { return hostNs * 1e-9; }

    /** Straggler fraction of all routed packets. */
    double
    stragglerFraction() const
    {
        return packets ? static_cast<double>(stragglers) /
                             static_cast<double>(packets)
                       : 0.0;
    }

    /** One-line human-readable summary. */
    std::string summary() const;
};

/**
 * Relative accuracy error of a run against the ground truth, on the
 * application-reported metric — the paper's accuracy measure.
 */
double accuracyError(const RunResult &run, const RunResult &ground_truth);

/** Host wall-clock speedup of a run over the ground truth. */
double speedup(const RunResult &run, const RunResult &ground_truth);

/** Simulated-execution-time ratio (the paper's IS table metric). */
double simTimeRatio(const RunResult &run, const RunResult &ground_truth);

} // namespace aqsim::engine

#endif // AQSIM_ENGINE_RUN_RESULT_HH
