/**
 * @file
 * Self-healing run supervisor: restore, retry, escalate, report.
 *
 * The supervisor owns the whole run lifecycle. It builds a fresh
 * cluster per attempt, installs the engines' supervision seam
 * (EngineOptions::cancelToken / onWatchdogPanic), arms a FailureTrap
 * so watchdog expiries, invariant panics, fatal errors (e.g. reliable
 * retry exhaustion) and injected drills surface as catchable
 * base::RunAbort instead of killing the process, then runs the engine.
 *
 * On failure it restores from the newest good checkpoint
 * (CheckpointManager::loadBest, with its torn-file fallback), backs
 * off exponentially within a bounded restart budget, and retries.
 * Because "restore" is the engines' verified deterministic replay, a
 * supervised run that recovered N times produces the same
 * finalStateHash as an unsupervised clean run — recovery is
 * deterministic by construction.
 *
 * Repeated failure at the same quantum is a livelock: replaying
 * cannot help when the failure is a deterministic function of the
 * schedule. The supervisor then escalates once — reruns from scratch
 * with the policy clamped to the conservative Q <= T bound in a
 * window around the failing quantum (ConservativeWindowPolicy) — and
 * aborts with a structured report (SuperviseAbort) if even that
 * fails. Every decision lands in the JSONL incident log; see
 * docs/supervision.md.
 */

#ifndef AQSIM_SUPERVISE_RUN_SUPERVISOR_HH
#define AQSIM_SUPERVISE_RUN_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/failure.hh"
#include "base/mutex.hh"
#include "core/quantum_policy.hh"
#include "engine/cluster.hh"
#include "engine/run_result.hh"
#include "engine/sequential_engine.hh"
#include "supervise/incident_log.hh"
#include "workloads/workload.hh"

namespace aqsim::supervise
{

/** Which engine the supervisor drives. */
enum class EngineKind
{
    Sequential,
    Threaded,
    /** Multi-process (engine/distributed_engine.hh): attempts fork
     * fresh peer processes; peer failures are recoverable. */
    Distributed,
};

/**
 * Deterministic failure drill for one attempt (tests, chaos-soak CI):
 * compiled into EngineOptions::injectFailAfterQuantum on that attempt.
 */
struct InjectedFailure
{
    /** 1-based attempt to fail. */
    std::uint64_t attempt = 1;
    /** Fail right after this many quanta complete. */
    std::uint64_t afterQuantum = 1;
    /** Exercise the watchdog panic path instead of a direct abort. */
    bool watchdog = false;
};

/** Supervisor policy knobs. */
struct SuperviseOptions
{
    /** Route the run through the supervisor at all (harness knob). */
    bool enabled = false;
    /** Restart budget: at most 1 + maxRestarts attempts. */
    std::uint64_t maxRestarts = 5;
    /** First backoff sleep in host seconds (0 = no sleeping; tests). */
    double backoffBaseSeconds = 0.0;
    /** Backoff multiplier per further attempt. */
    double backoffFactor = 2.0;
    /** Backoff ceiling in host seconds. */
    double backoffMaxSeconds = 30.0;
    /** Failures at the same quantum before escalating. */
    std::uint64_t livelockThreshold = 2;
    /** Half-width of the escalated conservative window, in quanta. */
    std::uint64_t escalationWindowQuanta = 64;
    /** JSONL incident log path ("" = in-memory only). */
    std::string incidentLogPath;
    /** Deterministic failure drills (tests, chaos-soak CI). */
    std::vector<InjectedFailure> injectFailures;
};

/** Everything needed to (re)build and run one experiment attempt. */
struct RunRequest
{
    EngineKind engineKind = EngineKind::Sequential;
    engine::EngineOptions engine;
    engine::ClusterParams cluster;
    /** Workload shared by all attempts (engines reset it per run). */
    workloads::Workload *workload = nullptr;
    /** Policy instance (engines reset it per run). */
    core::QuantumPolicy *policy = nullptr;
    /** Called on each freshly built cluster before the engine runs —
     * the seam for attaching tracers/observers to the controller. */
    std::function<void(engine::Cluster &)> onClusterBuilt;
};

/** Terminal supervisor failure, carrying the structured report. */
class SuperviseAbort : public std::runtime_error
{
  public:
    explicit SuperviseAbort(const std::string &report)
        : std::runtime_error(report)
    {}
};

/** Runs a request to completion through restore/retry/escalate. */
class RunSupervisor
{
  public:
    explicit RunSupervisor(SuperviseOptions options);

    /**
     * Run @p request until one attempt succeeds. When supervision is
     * disabled (SuperviseOptions::enabled false) this is exactly one
     * plain engine run — no trap, no cancel token — so panics and
     * fatal errors keep their unsupervised kill-the-process semantics.
     * @throws SuperviseAbort when the restart budget is exhausted or
     *         an escalated attempt fails.
     */
    engine::RunResult run(const RunRequest &request);

    /** Incidents recorded so far (also mirrored to the JSONL log). */
    const IncidentLog &incidents() const { return log_; }

    /** @return true if any attempt tripped the watchdog. */
    bool sawPanic() const;

    /** Structured dump from the most recent watchdog panic. */
    engine::PanicInfo lastPanic() const;

    /** Cluster of the most recent attempt (stats/trace readout).
     * Null for distributed runs: the state lives in the engine's
     * processes, not in any cluster the supervisor owns. */
    engine::Cluster *cluster() { return cluster_.get(); }
    std::unique_ptr<engine::Cluster> takeCluster()
    {
        return std::move(cluster_);
    }

  private:
    engine::RunResult runAttempt(const RunRequest &request,
                                 engine::EngineOptions options,
                                 core::QuantumPolicy &policy,
                                 bool arm_trap);

    SuperviseOptions options_;
    IncidentLog log_;
    base::CancelToken cancel_;
    std::unique_ptr<engine::Cluster> cluster_;

    /** Watchdog thread writes, supervisor thread reads post-run. */
    mutable base::Mutex panicMutex_;
    engine::PanicInfo lastPanic_ AQSIM_GUARDED_BY(panicMutex_);
    bool sawPanic_ AQSIM_GUARDED_BY(panicMutex_) = false;
};

/**
 * The largest provably safe (straggler-free) quantum for a cluster,
 * and the conservative escalation bound: the network's minimum
 * end-to-end latency T (Q <= T admits no stragglers). For the paper's
 * network this is ~1 µs; higher-latency topologies allow
 * proportionally larger conservative quanta — the PDES lookahead
 * observation.
 */
Tick safeQuantumBound(const engine::ClusterParams &params);

} // namespace aqsim::supervise

#endif // AQSIM_SUPERVISE_RUN_SUPERVISOR_HH
