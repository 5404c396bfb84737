#include "supervise/run_supervisor.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "base/logging.hh"
#include "ckpt/manager.hh"
#include "engine/distributed_engine.hh"
#include "engine/threaded_engine.hh"
#include "net/network_controller.hh"
#include "stats/stats.hh"
#include "supervise/escalation.hh"

namespace aqsim::supervise
{

namespace
{

/** Backoff multiplier per further attempt. */
constexpr double backoffFactor = 2.0;
/** Backoff ceiling in host seconds. */
constexpr double backoffMaxSeconds = 30.0;
/** Failures at the same quantum before escalating. */
constexpr std::uint64_t livelockThreshold = 2;

std::string
abortReport(const base::RunAbort &abort, std::uint64_t attempts,
            bool escalated, const IncidentLog &log)
{
    char head[256];
    std::snprintf(
        head, sizeof(head),
        "supervisor: giving up after %llu attempt%s%s\n"
        "  last failure: cause=%s quantum=%llu\n"
        "  detail: %s\n"
        "  incidents:",
        static_cast<unsigned long long>(attempts),
        attempts == 1 ? "" : "s",
        escalated ? " (conservative escalation also failed)" : "",
        abort.cause().c_str(),
        static_cast<unsigned long long>(abort.quantum()),
        abort.detail().c_str());
    std::string report = head;
    for (const Incident &incident : log.incidents())
        report += "\n    " + incident.toJson();
    return report;
}

} // namespace

Tick
safeQuantumBound(const engine::ClusterParams &params)
{
    // A pure function of the network model, probed on a scratch
    // controller.
    stats::Group scratch("probe");
    net::NetworkController controller(params.numNodes, params.network,
                                      scratch);
    return controller.minNetworkLatency();
}

RunSupervisor::RunSupervisor(SuperviseOptions options)
    : options_(std::move(options)), log_(options_.incidentLogPath)
{}

bool
RunSupervisor::sawPanic() const
{
    base::MutexLock lock(panicMutex_);
    return sawPanic_;
}

engine::PanicInfo
RunSupervisor::lastPanic() const
{
    base::MutexLock lock(panicMutex_);
    return lastPanic_;
}

engine::RunResult
RunSupervisor::runAttempt(const RunRequest &request,
                          engine::EngineOptions options,
                          core::QuantumPolicy &policy, bool arm_trap)
{
    if (request.engineKind == EngineKind::Distributed) {
        // The engine builds its own replica, which the forked peers
        // inherit pristine through fork, so there is no in-process
        // cluster to build — and a stale one would alias the workload
        // binding. The replica comes back only for a stats dump.
        cluster_.reset();
        std::optional<base::FailureTrap> trap;
        if (arm_trap)
            trap.emplace();
        engine::DistributedEngine engine(options);
        return engine.run(request.cluster, *request.workload, policy,
                          request.distributedStats ? &cluster_ : nullptr);
    }

    // A fresh cluster per attempt: a failed run's half-mutated state
    // is never reused; recovery state comes only from the checkpoint
    // replay (or from quantum zero). The failed one is freed first, so
    // two never share the heap and the new one reuses its pages.
    cluster_.reset();
    cluster_ =
        std::make_unique<engine::Cluster>(request.cluster,
                                          *request.workload);
    if (request.onClusterBuilt)
        request.onClusterBuilt(*cluster_);

    // The trap converts panic()/fatal() on this thread into
    // base::RunAbort; worker threads arm their own traps when
    // cancelToken is installed (threaded_engine.cc). An unsupervised
    // run arms nothing, keeping abort-the-process semantics.
    std::optional<base::FailureTrap> trap;
    if (arm_trap)
        trap.emplace();
    if (request.engineKind == EngineKind::Threaded) {
        engine::ThreadedEngine engine(options);
        return engine.run(*cluster_, policy);
    }
    engine::SequentialEngine engine(options);
    return engine.run(*cluster_, policy);
}

engine::RunResult
RunSupervisor::run(const RunRequest &request)
{
    AQSIM_ASSERT(request.workload != nullptr);
    AQSIM_ASSERT(request.policy != nullptr);
    // Outside any attempt's failure trap: a drill that names no forked
    // peer is a usage error, not a failure to recover from.
    if (request.engineKind == EngineKind::Distributed)
        engine::checkedPeerDrills(request.engine,
                                  request.cluster.numNodes);

    if (!options_.enabled)
        return runAttempt(request, request.engine, *request.policy,
                          /*arm_trap=*/false);

    const std::uint64_t max_attempts = options_.maxRestarts + 1;
    std::string last_fail_cause;
    std::uint64_t last_fail_quantum = ~std::uint64_t{0};
    std::uint64_t same_quantum_failures = 0;
    std::uint64_t escalations = 0;
    std::uint64_t escalate_at = 0;
    bool escalated = false;

    for (std::uint64_t attempt = 1; attempt <= max_attempts;
         ++attempt) {
        engine::EngineOptions options = request.engine;
        cancel_.reset();
        options.cancelToken = &cancel_;
        const auto user_panic = request.engine.onWatchdogPanic;
        options.onWatchdogPanic =
            [this, user_panic](const engine::PanicInfo &info) {
                {
                    base::MutexLock lock(panicMutex_);
                    lastPanic_ = info;
                    sawPanic_ = true;
                }
                if (user_panic)
                    user_panic(info);
            };

        options.injectFailAfterQuantum = 0;
        options.injectWatchdogPanic = false;
        for (const InjectedFailure &f : options_.injectFailures) {
            if (f.attempt == attempt) {
                options.injectFailAfterQuantum = f.afterQuantum;
                options.injectWatchdogPanic = f.watchdog;
            }
        }
        // Peer drills describe the *first* attempt's failure; a
        // respawned fleet must run clean or recovery would livelock.
        if (attempt > 1)
            options.peerDrillSpec.clear();

        std::string restore_source;
        std::unique_ptr<core::QuantumPolicy> guard;
        core::QuantumPolicy *policy = request.policy;
        if (escalated) {
            // The guarded policy fingerprints differently, so the
            // escalated attempt can neither restore old checkpoints
            // nor write ones a later un-escalated run could misuse.
            options.restorePath.clear();
            options.checkpointEvery = 0;
            options.checkpointDir.clear();
            if (request.engineKind == EngineKind::Distributed) {
                // The distributed engine refuses any policy that is
                // not conservative for the whole run, and the window
                // policy is only clamped inside its window. A plain
                // fixed quantum at the safe bound is the distributed
                // escalation: final state is quantum-length
                // independent, so the result is unchanged.
                guard = std::make_unique<core::FixedQuantumPolicy>(
                    safeQuantumBound(request.cluster));
            } else {
                guard = std::make_unique<ConservativeWindowPolicy>(
                    request.policy->clone(),
                    safeQuantumBound(request.cluster), escalate_at,
                    options_.escalationWindowQuanta);
            }
            policy = guard.get();
        } else if (attempt > 1 && !options.checkpointDir.empty()) {
            // Probe before committing to a restore: a crash before
            // the first checkpoint write simply replays from scratch.
            // The attempt adopts the probed image, so it is read and
            // decoded once.
            ckpt::CheckpointManager probe(options.checkpointDir, 0, 0);
            auto image = std::make_shared<ckpt::CheckpointImage>();
            std::string path;
            ckpt::CkptError error;
            if (probe.loadBest(*image, path, error)) {
                options.restorePath = path;
                options.restoreImage = std::move(image);
                restore_source = path;
            }
        }

        try {
            engine::RunResult result =
                runAttempt(request, std::move(options), *policy,
                           /*arm_trap=*/true);
            if (attempt > 1) {
                Incident incident;
                incident.attempt = attempt;
                // A recovery that healed a dead/hung worker fleet is
                // its own incident kind so fleet dashboards can count
                // peer churn separately from in-process recoveries.
                incident.cause = last_fail_cause == "peer-failure"
                                     ? "peer-recovery"
                                     : "none";
                incident.quantum = result.quanta;
                incident.restoreSource = restore_source;
                incident.outcome = "recovered";
                incident.detail =
                    escalated
                        ? "recovered under conservative escalation"
                        : "recovered";
                log_.append(incident);
            }
            result.superviseAttempts = attempt;
            result.superviseRecoveries = attempt - 1;
            result.superviseEscalations = escalations;
            return result;
        } catch (const base::RunAbort &abort) {
            last_fail_cause = abort.cause();
            if (abort.quantum() == last_fail_quantum) {
                ++same_quantum_failures;
            } else {
                last_fail_quantum = abort.quantum();
                same_quantum_failures = 1;
            }

            Incident incident;
            incident.attempt = attempt;
            incident.cause = abort.cause();
            incident.quantum = abort.quantum();
            incident.restoreSource = restore_source;
            incident.detail = abort.detail();

            // An escalated attempt was the last resort; an exhausted
            // budget means no further attempt exists. Either way the
            // abort record closes the log before the throw.
            if (escalated || attempt == max_attempts) {
                incident.outcome = "abort";
                log_.append(incident);
                throw SuperviseAbort(
                    abortReport(abort, attempt, escalated, log_));
            }

            if (same_quantum_failures >= livelockThreshold) {
                escalated = true;
                escalate_at = abort.quantum();
                ++escalations;
                incident.outcome = "escalate";
            } else {
                incident.outcome = "retry";
            }

            const double backoff = std::min(
                backoffMaxSeconds,
                options_.backoffBaseSeconds *
                    std::pow(backoffFactor,
                             static_cast<double>(attempt - 1)));
            incident.backoffSeconds = backoff;
            log_.append(incident);
            if (backoff > 0.0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoff));
        }
    }
    fatal("supervisor retry loop exited without a result");
}

} // namespace aqsim::supervise
