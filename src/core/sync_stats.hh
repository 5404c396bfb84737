/**
 * @file
 * Per-run synchronization statistics and the optional quantum timeline.
 *
 * The timeline (one record per quantum) is what the scale-out analysis
 * in the paper's Section 6 plots: traffic density and simulation speed
 * over time. Recording it is optional because a 1 us ground-truth run
 * can have millions of quanta.
 */

#ifndef AQSIM_CORE_SYNC_STATS_HH
#define AQSIM_CORE_SYNC_STATS_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "stats/stats.hh"

namespace aqsim::core
{

/** One completed synchronization quantum. */
struct QuantumRecord
{
    /** Simulated start tick of the quantum. */
    Tick start = 0;
    /** Quantum length in ticks. */
    Tick length = 0;
    /** Frames the controller routed during the quantum. */
    std::uint64_t packets = 0;
    /** Stragglers among them. */
    std::uint64_t stragglers = 0;
    /** Modeled/measured host time the quantum took (incl. barrier). */
    HostNs hostNs = 0.0;
};

/** Aggregated synchronization statistics for one run. */
class SyncStats
{
  public:
    explicit SyncStats(stats::Group &parent);

    /** Record one completed quantum. */
    void record(const QuantumRecord &rec, bool keep_timeline);

    std::uint64_t numQuanta() const { return numQuanta_; }
    HostNs totalHostNs() const { return totalHostNs_; }
    Tick totalSimTicks() const { return totalSimTicks_; }

    /** Mean quantum length in ticks. */
    double meanQuantumLength() const;

    const std::vector<QuantumRecord> &timeline() const
    {
        return timeline_;
    }

    void reset();

  private:
    std::uint64_t numQuanta_ = 0;
    HostNs totalHostNs_ = 0.0;
    Tick totalSimTicks_ = 0;
    std::vector<QuantumRecord> timeline_;

    stats::Group &group_;
    stats::Scalar &statQuanta_;
    stats::Scalar &statHostNs_;
    stats::Average &statQuantumLength_;
    stats::Log2Distribution &statQuantumDist_;
};

} // namespace aqsim::core

#endif // AQSIM_CORE_SYNC_STATS_HH
