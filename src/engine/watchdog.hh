/**
 * @file
 * Wall-clock watchdog for hung simulation runs.
 *
 * A quantum that stops making host-time progress — a lost
 * acknowledgment with no retransmit timer, a barrier deadlock between
 * worker threads, a runaway application coroutine — would otherwise
 * hang the process silently. The watchdog runs on a dedicated host
 * thread; the engine kicks it once per completed quantum, and if no
 * kick arrives within the configured deadline the watchdog fails the
 * run with a diagnostic dump of per-node progress.
 *
 * The dump is a structured PanicInfo, not a pre-formatted string: the
 * quantum window and per-node progress survive as fields whether or
 * not a checkpoint directory (and hence a panic image) is configured,
 * so a supervisor can log *where* the run hung even on checkpoint-less
 * runs.
 *
 * Unsupervised runs panic (process dies with the formatted dump).
 * Supervised runs install a PanicFn: the first expiry hands the
 * PanicInfo to the handler — which is expected to unwedge the engine,
 * e.g. via base::CancelToken — and only a *second* consecutive expiry
 * with no progress hard-panics, so a handler that fails to unwedge the
 * run can never convert a detected hang into a silent one.
 *
 * The watchdog observes only *host* time, never simulated time, so an
 * armed watchdog has zero effect on simulation results.
 */

#ifndef AQSIM_ENGINE_WATCHDOG_HH
#define AQSIM_ENGINE_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "base/mutex.hh"
#include "base/types.hh"

namespace aqsim::engine
{

/**
 * Structured description of a hung run, captured at watchdog expiry
 * and meaningful independent of checkpoint configuration.
 */
struct PanicInfo
{
    /** Deadline that expired, in host seconds. */
    double deadlineSeconds = 0.0;
    /** Quanta completed before progress stopped. */
    std::uint64_t quantaCompleted = 0;
    /** Simulated-tick window of the quantum that hung. */
    Tick quantumStart = 0;
    Tick quantumEnd = 0;
    /** Per-node progress dump (engine::Cluster::progressReport()). */
    std::string progress;
    /**
     * Per-peer liveness when running distributed (one line per forked
     * peer: pid, protocol phase, last-frame age), so a hung-peer
     * panic names the peer instead of just the quantum. Empty for
     * single-process engines.
     */
    std::string peers;
    /** Optional annotations (e.g. panic-image path from the ckpt layer). */
    std::string note;

    /** Render the multi-line human-readable dump body. */
    std::string format() const;
};

/**
 * Monitors one run's quantum loop from a separate host thread and
 * panics with diagnostics when no progress is observed for the
 * deadline. Construction arms it; destruction disarms it, so each run
 * owns its own watchdog and a dump can never capture another run's
 * objects.
 */
class Watchdog
{
  public:
    /** Captures the stuck state when the run is hung. */
    using DumpFn = std::function<PanicInfo()>;

    /**
     * Supervised-mode expiry handler; receives the PanicInfo instead
     * of the process dying. Runs on the watchdog thread.
     */
    using PanicFn = std::function<void(const PanicInfo &)>;

    /**
     * Construct armed (watching immediately).
     *
     * @param deadline_seconds max host seconds between kicks
     * @param dump called (from the watchdog thread) to describe the
     *        stuck state; must be safe to invoke while the engine
     *        threads are wedged mid-quantum
     * @param on_panic supervised-mode handler for the first expiry;
     *        null makes every expiry a hard panic
     */
    Watchdog(double deadline_seconds, DumpFn dump,
             PanicFn on_panic = nullptr);

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Disarm and join the monitor thread. */
    ~Watchdog();

    /** Record progress: one quantum completed. */
    void kick() AQSIM_EXCLUDES(mutex_);

    /** Number of kicks observed so far (tests). */
    std::uint64_t kicks() const AQSIM_EXCLUDES(mutex_);

  private:
    void monitor() AQSIM_EXCLUDES(mutex_);

    const double deadlineSeconds_;
    const DumpFn dump_;
    const PanicFn onPanic_;

    mutable base::Mutex mutex_;
    base::CondVar cv_;
    std::uint64_t kickCount_ AQSIM_GUARDED_BY(mutex_) = 0;
    bool handlerFired_ AQSIM_GUARDED_BY(mutex_) = false;
    bool stop_ AQSIM_GUARDED_BY(mutex_) = false;

    std::thread thread_;
};

} // namespace aqsim::engine

#endif // AQSIM_ENGINE_WATCHDOG_HH
