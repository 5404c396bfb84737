/**
 * @file
 * Quantum-barrier synchronization bookkeeping.
 *
 * The Synchronizer owns the sequence of synchronization quanta: it asks
 * the QuantumPolicy for each next quantum length, tracks the current
 * window [start, end), feeds the per-quantum packet count from the
 * network controller into the policy, and accumulates SyncStats.
 *
 * It is engine-agnostic: engine::QuantumDriver owns one per run and
 * drives it for every engine, which keeps the paper's algorithm in
 * exactly one place.
 */

#ifndef AQSIM_CORE_SYNCHRONIZER_HH
#define AQSIM_CORE_SYNCHRONIZER_HH

#include <memory>

#include "base/types.hh"
#include "core/quantum_policy.hh"
#include "core/sync_stats.hh"
#include "net/network_controller.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::core
{

/** Orchestrates the lock-step quantum sequence for one run. */
class Synchronizer
{
  public:
    /**
     * @param policy quantum-length policy (owned by the caller, reset
     *        by begin())
     * @param controller network controller providing packet counts
     * @param stats_parent group under which sync stats register
     * @param record_timeline keep one QuantumRecord per quantum
     */
    Synchronizer(QuantumPolicy &policy,
                 net::NetworkController &controller,
                 stats::Group &stats_parent, bool record_timeline);

    /** Initialize the first quantum window starting at tick 0. */
    void begin();

    /** @return simulated start tick of the current quantum. */
    Tick quantumStart() const { return start_; }

    /** @return simulated end tick (exclusive) of the current quantum. */
    Tick quantumEnd() const { return end_; }

    /** @return length of the current quantum. */
    Tick quantumLength() const { return end_ - start_; }

    /**
     * Complete the current quantum: feed the observed packet count to
     * the policy, record stats, and open the next window.
     *
     * @param host_ns host time the quantum consumed (incl. barrier)
     */
    void completeQuantum(HostNs host_ns);

    /**
     * @return true if the configured policy can never produce a
     * straggler (every quantum <= the minimum network latency T).
     * This is the paper's Q <= T safety condition.
     */
    bool conservative() const;

    const SyncStats &stats() const { return stats_; }
    std::uint64_t numQuanta() const { return stats_.numQuanta(); }

    /**
     * Checkpoint support: persist the quantum window, policy
     * adaptation state, and simulated-time aggregates. Host-time
     * measurements (wall clock) are deliberately excluded — they are
     * never bit-identical across runs and would poison the
     * divergence self-check.
     */
    void serialize(ckpt::Writer &w) const;

  private:
    QuantumPolicy &policy_;
    net::NetworkController &controller_;
    SyncStats stats_;
    bool recordTimeline_;

    Tick start_ = 0;
    Tick end_ = 0;
    /** Controller straggler total at quantum start (for deltas). */
    std::uint64_t stragglerBase_ = 0;
};

} // namespace aqsim::core

#endif // AQSIM_CORE_SYNCHRONIZER_HH
