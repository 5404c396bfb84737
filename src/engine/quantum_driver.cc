#include "engine/quantum_driver.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "base/failure.hh"
#include "base/logging.hh"
#include "ckpt/run_checkpointer.hh"
#include "stats/phase_timing.hh"

namespace aqsim::engine
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

HostNs
nsBetween(SteadyClock::time_point from, SteadyClock::time_point to)
{
    return std::chrono::duration<double, std::nano>(to - from).count();
}

} // namespace

QuantumDriver::QuantumDriver(const EngineOptions &options,
                             Cluster &cluster,
                             core::QuantumPolicy &policy)
    : options_(options), cluster_(cluster), policy_(policy),
      sync_(policy, cluster.controller(), cluster.statsRoot(),
            options.recordTimeline)
{}

void
QuantumDriver::pollCancel() const
{
    if (options_.cancelToken && options_.cancelToken->cancelled())
        throw base::RunAbort("watchdog",
                             "run cancelled after watchdog expiry",
                             sync_.numQuanta());
}

PanicInfo
QuantumDriver::describe() const
{
    PanicInfo info;
    info.quantumStart = sync_.quantumStart();
    info.quantumEnd = sync_.quantumEnd();
    exec_->describe(info);
    return info;
}

/** Deterministic recovery drill; see EngineOptions. */
void
QuantumDriver::injectFailure()
{
    if (options_.injectWatchdogPanic) {
        PanicInfo info = describe();
        info.quantaCompleted = sync_.numQuanta();
        if (options_.onWatchdogPanic)
            options_.onWatchdogPanic(info);
        if (options_.cancelToken) {
            // Throws through the same path a real watchdog expiry
            // takes.
            options_.cancelToken->requestCancel();
            pollCancel();
        }
    }
    throw base::RunAbort("injected", "injected failure for recovery drill",
                         sync_.numQuanta());
}

RunResult
QuantumDriver::run(QuantumExecutor &exec)
{
    exec_ = &exec;
    const std::uint64_t config_hash = ckpt::configFingerprint(
        cluster_.params(), policy_.name(), cluster_.workload().name());

    ckpt::RunCkptOptions ck;
    ck.every = options_.checkpointEvery;
    ck.dir = options_.checkpointDir;
    ck.restorePath = options_.restorePath;
    ck.restoreImage = options_.restoreImage;
    ck.keepLast = options_.checkpointKeepLast;
    ck.stashForPanic = options_.watchdogSeconds > 0.0 &&
                       !ck.dir.empty() && exec.stashesPanicImage();
    std::unique_ptr<ckpt::RunCheckpointer> checkpointer;
    if (ck.enabled()) {
        checkpointer = std::make_unique<ckpt::RunCheckpointer>(
            ck, sync_, config_hash, exec.name());
        checkpointer->begin();
    }

    // The watchdog catches hangs the deadlock check cannot see:
    // quanta that never finish (wedged worker, runaway coroutine,
    // silent peer) and lost-progress livelocks where events stay
    // pending forever. Declared after the checkpointer its dump
    // reads, so it is joined first on every exit path.
    std::optional<Watchdog> dog;
    if (options_.watchdogSeconds > 0.0) {
        Watchdog::PanicFn on_panic;
        if (options_.cancelToken || options_.onWatchdogPanic) {
            on_panic = [handler = options_.onWatchdogPanic,
                        cancel = options_.cancelToken](
                           const PanicInfo &info) {
                if (handler)
                    handler(info);
                if (cancel)
                    cancel->requestCancel();
            };
        }
        dog.emplace(
            options_.watchdogSeconds,
            [this, ckpt = checkpointer.get()] {
                PanicInfo info = describe();
                if (ckpt)
                    info.note = ckpt->panicNote();
                return info;
            },
            std::move(on_panic));
    }

    const std::uint64_t max_quanta =
        options_.maxQuanta ? options_.maxQuanta : 500'000'000ULL;
    RunResult result;
    // Host time of a measured executor: wall-clock laps from here.
    const auto wall_start = SteadyClock::now();
    auto lap_start = wall_start;
    exec.begin();
    sync_.begin();
    while (!exec.done()) {
        pollCancel();
        if (!exec.pending()) {
            const PanicInfo info = describe();
            panic("cluster deadlock: no pending events but "
                  "applications incomplete\n%s%s",
                  info.progress.c_str(), info.peers.c_str());
        }
        // An empty quantum changes nothing the executor holds: only
        // the counters completeQuantum keeps below.
        std::optional<HostNs> modeled;
        if (exec.nextEventTick() < sync_.quantumEnd()) {
            modeled = exec.runQuantum();
            ++result.executedQuanta;
        }
        HostNs quantum_ns;
        if (modeled) {
            quantum_ns = *modeled;
        } else {
            const auto now = SteadyClock::now();
            quantum_ns = nsBetween(lap_start, now);
            lap_start = now;
        }
        pollCancel();
        if (dog)
            dog->kick();
        sync_.completeQuantum(quantum_ns);
        const std::uint64_t q = sync_.numQuanta();
        // A consistent cut: the executor is parked at its barrier
        // with the exchange merged, so the image is identical for
        // every worker count.
        if (checkpointer && checkpointer->imageDue(q))
            checkpointer->onQuantumCompleted(
                exec.boundaryImage(config_hash));
        if (options_.injectFailAfterQuantum &&
            q == options_.injectFailAfterQuantum)
            injectFailure();
        if (q > max_quanta)
            fatal("quantum budget exceeded (%llu); likely "
                  "livelock or mis-sized workload",
                  static_cast<unsigned long long>(max_quanta));
        if (options_.maxSimTicks &&
            sync_.quantumStart() > options_.maxSimTicks)
            fatal("simulated time budget exceeded at %llu ticks",
                  static_cast<unsigned long long>(sync_.quantumStart()));
    }
    // A watchdog drill or expiry at the final quantum trips the
    // token after the run is done; it must still abort.
    pollCancel();
    result.hostNs = nsBetween(wall_start, SteadyClock::now());
    exec.finish(result);

    result.workload = cluster_.workload().name();
    result.policy = policy_.name();
    result.engine = exec.name();
    result.numNodes = cluster_.numNodes();
    result.quanta = sync_.numQuanta();
    const net::NetworkController &ctl = cluster_.controller();
    result.packets = ctl.totalPackets();
    result.stragglers = ctl.totalStragglers();
    result.nextQuantumDeliveries = ctl.totalNextQuantum();
    result.latenessTicks = ctl.totalLatenessTicks();
    result.droppedFrames = ctl.totalDropped();
    result.meanQuantumTicks = sync_.stats().meanQuantumLength();
    result.timeline = sync_.stats().timeline();
    result.simTicks =
        result.finishTicks.empty()
            ? 0
            : *std::max_element(result.finishTicks.begin(),
                                result.finishTicks.end());
    result.metric = cluster_.workload().metricValue(result.simTicks);
    if (checkpointer)
        checkpointer->finish(result);
    return result;
}

void
fillResult(RunResult &result, const ClusterState &state,
           const stats::PhaseTimes *phases)
{
    result.finishTicks = state.finishTicks;
    result.retransmits = state.retransmits;
    result.finalStateHash = state.hash();
    if (!phases)
        return;
    result.showPhaseStats = true;
    result.phaseSortNs = phases->total(stats::EnginePhase::Sort);
    result.phaseExchangeNs = phases->total(stats::EnginePhase::Exchange);
    result.phaseMergeNs = phases->total(stats::EnginePhase::Merge);
    result.phaseDispatchNs = phases->total(stats::EnginePhase::Dispatch);
}

} // namespace aqsim::engine
