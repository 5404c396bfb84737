/**
 * @file
 * Per-phase wall-clock accounting for the engines' quantum critical
 * path (sort / exchange / merge / dispatch).
 *
 * The paper's Fig. 5 argument — synchronization-boundary cost is what
 * parallel cluster simulation amortizes — only holds if that cost is
 * *measured*, phase by phase, not inferred from end-to-end wall time.
 * PhaseTimes gives each worker a cache-line-private accumulator per
 * phase; the coordinator sums them after the barrier, so the hot path
 * never shares a counter across threads.
 *
 * Measured wall-clock is nondeterministic by nature: these values may
 * reach RunResult/summary() (behind EngineOptions::phaseStats) and
 * bench.py sweeps, but must never enter checkpoint images, state
 * hashes, or anything the divergence self-check compares.
 *
 * Timing is off by default (PhaseTimes::enabled()): a disabled
 * PhaseTimer costs one branch, so high-quantum-rate runs (the tracked
 * 64-node fig9 benchmarks) pay no steady_clock calls.
 */

#ifndef AQSIM_STATS_PHASE_TIMING_HH
#define AQSIM_STATS_PHASE_TIMING_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace aqsim::stats
{

/** Phases of the engines' K×K delivery exchange (delivery_batch),
 * each timed per destination column after the exchange barrier. */
enum class EnginePhase : unsigned
{
    /** Counting-sort scatter of the column into per-node slices. */
    Sort,
    /** Counting the column's deliveries per destination node. */
    Exchange,
    /** Insertion sort of each node's slice into canonical order. */
    Merge,
    /** Scheduling the sorted deliveries into the shard's node queues. */
    Dispatch,
};

/** Number of distinct phases (array sizing). */
constexpr std::size_t numEnginePhases = 4;

/**
 * One nanosecond accumulator per (worker, phase), padded so concurrent
 * workers never share a cache line. add() is called by the slot's
 * owning worker only; total() by the coordinator with workers parked
 * at the gate (the gate's release/acquire publishes the slots).
 */
class PhaseTimes
{
  public:
    /** @param workers slot count K; @param enabled off = no clocks. */
    explicit PhaseTimes(std::size_t workers, bool enabled);

    PhaseTimes(const PhaseTimes &) = delete;
    PhaseTimes &operator=(const PhaseTimes &) = delete;

    bool enabled() const { return enabled_; }

    /** Owner of @p worker's slot: account @p ns against @p phase. */
    void
    add(std::size_t worker, EnginePhase phase, std::uint64_t ns)
    {
        slots_[worker].ns[static_cast<unsigned>(phase)] += ns;
    }

    /** Coordinator, workers parked: ns across all workers. */
    std::uint64_t total(EnginePhase phase) const;

  private:
    struct alignas(64) Slot
    {
        std::array<std::uint64_t, numEnginePhases> ns{};
    };

    std::vector<Slot> slots_;
    const bool enabled_;
};

/**
 * Scoped timer: measures its own lifetime and accounts it to one
 * (worker, phase) slot. A no-op (one branch, no clock calls) when the
 * PhaseTimes is disabled.
 */
class PhaseTimer
{
  public:
    PhaseTimer(PhaseTimes &times, std::size_t worker,
               EnginePhase phase)
        : times_(times), worker_(worker), phase_(phase)
    {
        if (times_.enabled())
            start_ = std::chrono::steady_clock::now();
    }

    ~PhaseTimer()
    {
        if (!times_.enabled())
            return;
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        times_.add(worker_, phase_,
                   static_cast<std::uint64_t>(ns));
    }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    PhaseTimes &times_;
    const std::size_t worker_;
    const EnginePhase phase_;
    std::chrono::steady_clock::time_point start_{};
};

} // namespace aqsim::stats

#endif // AQSIM_STATS_PHASE_TIMING_HH
