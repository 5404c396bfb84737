/**
 * @file
 * Runtime invariant checker for the paper's safety conditions.
 *
 * The adaptive-quantum argument is a safety argument: conservative
 * synchronization (Q <= T) is causally exact, and the adaptive policy
 * trades that exactness for speed under *accounted* straggler
 * semantics (Fig. 3). This checker mechanically enforces the
 * conditions that argument rests on, at runtime, in every build:
 *
 *   QuantumMonotonic     quantum windows are contiguous and advance
 *   QuantumBound         Q <= T whenever the run claims conservative
 *   PastEvent            no event scheduled before its queue's now()
 *   TickMonotonic        a node's clock never moves backwards
 *   PastDelivery         deliveries never precede the wire arrival,
 *                        and "on time" means exactly on time
 *   StragglerAccounting  SyncStats straggler counts equal the
 *                        deliveries actually displaced
 *   ShardMergeOrder      each node receives its post-exchange
 *                        deliveries in strictly increasing (when, src,
 *                        departTick, staging index) order, and none
 *                        lands behind the receiver except as a
 *                        Straggler (per destination node: the exchange
 *                        orders each node's slice, never a stream)
 *
 * The checker is always compiled and off by default: every hook is a
 * relaxed atomic load and a branch until enabled. Enable it from code
 * (InvariantChecker::instance().setEnabled(true)), from the
 * AQSIM_CHECK environment variable ("1" to count, "fatal" to panic on
 * the first violation), or via aqsim_cli --check. Violations are
 * counted per invariant and traced under the debug::Check flag;
 * audit.cc renders the summary report.
 */

#ifndef AQSIM_CHECK_INVARIANTS_HH
#define AQSIM_CHECK_INVARIANTS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "base/types.hh"

namespace aqsim::check
{

/** The runtime-checked safety conditions (see file comment). */
enum class Invariant : unsigned
{
    QuantumMonotonic,
    QuantumBound,
    PastEvent,
    TickMonotonic,
    PastDelivery,
    StragglerAccounting,
    ShardMergeOrder,
};

/** Number of distinct invariants (array sizing). */
constexpr std::size_t numInvariants = 7;

/** Short stable identifier, e.g. "QuantumBound". */
const char *invariantName(Invariant inv);

/** One-line human description of the condition. */
const char *invariantDescription(Invariant inv);

/**
 * Mirror of net::DeliveryKind, redeclared here so check/ depends only
 * on base/ (net/ maps its enum when calling the hook).
 */
enum class DeliveryClass
{
    OnTime,
    Straggler,
    NextQuantum,
};

/**
 * Process-wide registry of invariant checks and violations.
 *
 * Thread-safe: hooks are called concurrently from ThreadedEngine
 * worker threads; all counters are atomics. The quantum-window hooks
 * (onQuantumOpen / onQuantumComplete) are only ever called by the
 * coordinating thread, with the workers parked at the barrier.
 */
class InvariantChecker
{
  public:
    /** The process-wide checker: a plain address, no call or guard. */
    static InvariantChecker &instance() { return instance_; }

    /** Turn checking on or off (off: hooks cost one load+branch). */
    void setEnabled(bool on);
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Panic on the first violation instead of counting (debugging). */
    void setFatal(bool on);
    bool fatal() const { return fatal_.load(std::memory_order_relaxed); }

    /** Zero all counters and forget quantum-window state. */
    void reset();

    /**
     * Apply the AQSIM_CHECK environment variable: "1"/"on" enables
     * counting, "fatal" additionally panics on the first violation.
     */
    void applyEnvironment();

    // ----- hook entry points (inline fast path when disabled) -----

    /**
     * A new run started: forget the previous run's quantum window so
     * contiguity is not asserted across runs. Coordinator thread only.
     */
    void
    onRunBegin()
    {
        if (enabled())
            runBeginSlow();
    }

    /**
     * A quantum window [start, end) opened. @p conservative is the
     * policy's claim (Synchronizer::conservative()); @p min_latency is
     * the controller's T. Coordinator thread only.
     */
    void
    onQuantumOpen(Tick start, Tick end, bool conservative,
                  Tick min_latency)
    {
        if (enabled())
            quantumOpenSlow(start, end, conservative, min_latency);
    }

    /**
     * The quantum [start, end) completed with @p claimed_stragglers
     * accounted by the controller since the window opened.
     * Coordinator thread only, workers parked.
     */
    void
    onQuantumComplete(Tick start, Tick end,
                      std::uint64_t claimed_stragglers)
    {
        if (enabled())
            quantumCompleteSlow(start, end, claimed_stragglers);
    }

    /** An event was scheduled at @p when while the queue was at @p now. */
    void
    onEventScheduled(Tick when, Tick now)
    {
        if (enabled())
            eventScheduledSlow(when, now);
    }

    /** A node clock moved from @p from to @p to (runOne/fastForward). */
    void
    onTickAdvance(Tick from, Tick to)
    {
        if (enabled())
            tickAdvanceSlow(from, to);
    }

    /**
     * The controller routed a frame: placed as @p cls, delivered at
     * @p actual, physically arriving at @p ideal.
     */
    void
    onDelivery(DeliveryClass cls, Tick actual, Tick ideal)
    {
        if (enabled())
            deliverySlow(cls, actual, ideal);
    }

    /**
     * The post-exchange merge dispatched one staged delivery:
     * canonical key order vs the previous delivery to *the same
     * node* is @p strictly_after (true for a node's first); it lands
     * at @p when with the receiver at @p receiver_now, placed as
     * @p cls. Called concurrently by every worker merging its own
     * column (both engines share this via DeliveryBatch::mergeShard);
     * the slow path touches only atomics.
     */
    void
    onShardMerge(bool strictly_after, DeliveryClass cls, Tick when,
                 Tick receiver_now)
    {
        if (enabled())
            shardMergeSlow(strictly_after, cls, when, receiver_now);
    }

    // ----- results -----

    std::uint64_t violations(Invariant inv) const;
    std::uint64_t totalViolations() const;
    /** Total hook invocations while enabled (coverage evidence). */
    std::uint64_t checksPerformed() const;

    /** Multi-line audit summary (implemented in audit.cc). */
    std::string report() const;

  private:
    // constexpr: instance_ is constant-initialized (no init order).
    constexpr InvariantChecker() = default;

    static InvariantChecker instance_;

    void runBeginSlow();
    void quantumOpenSlow(Tick start, Tick end, bool conservative,
                         Tick min_latency);
    void quantumCompleteSlow(Tick start, Tick end,
                             std::uint64_t claimed_stragglers);
    void eventScheduledSlow(Tick when, Tick now);
    void tickAdvanceSlow(Tick from, Tick to);
    void deliverySlow(DeliveryClass cls, Tick actual, Tick ideal);
    void shardMergeSlow(bool strictly_after, DeliveryClass cls,
                        Tick when, Tick receiver_now);

    /** Record one violation: count, trace, optionally panic. */
    void violation(Invariant inv, Tick tick, const char *fmt, ...)
        __attribute__((format(printf, 4, 5)));

    std::atomic<bool> enabled_{false};
    std::atomic<bool> fatal_{false};
    std::array<std::atomic<std::uint64_t>, numInvariants> counts_{};
    std::atomic<std::uint64_t> checks_{0};

    /** Deliveries displaced (non-OnTime) since the window opened. */
    std::atomic<std::uint64_t> windowStragglers_{0};

    // Quantum-window tracking; coordinator thread only.
    bool haveWindow_ = false;
    Tick windowStart_ = 0;
    Tick windowEnd_ = 0;
};

} // namespace aqsim::check

#endif // AQSIM_CHECK_INVARIANTS_HH
