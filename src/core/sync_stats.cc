#include "core/sync_stats.hh"

namespace aqsim::core
{

SyncStats::SyncStats(stats::Group &parent)
    : group_(parent.addGroup("sync")),
      statQuanta_(group_.add<stats::Scalar>(
          "quanta", "synchronization quanta completed")),
      statHostNs_(group_.add<stats::Scalar>(
          "hostNs", "host ns: modeled (sequential engine) or measured "
                    "wall-clock (threaded and distributed engines)")),
      statQuantumLength_(group_.add<stats::Average>(
          "quantumLength", "quantum length in ticks")),
      statQuantumDist_(group_.add<stats::Log2Distribution>(
          "quantumLengthDist", "distribution of quantum lengths"))
{}

void
SyncStats::record(const QuantumRecord &rec, bool keep_timeline)
{
    ++numQuanta_;
    totalHostNs_ += rec.hostNs;
    totalSimTicks_ += rec.length;
    ++statQuanta_;
    statHostNs_ += rec.hostNs;
    statQuantumLength_.sample(static_cast<double>(rec.length));
    statQuantumDist_.sample(rec.length);
    if (keep_timeline)
        timeline_.push_back(rec);
}

double
SyncStats::meanQuantumLength() const
{
    return numQuanta_
               ? static_cast<double>(totalSimTicks_) /
                     static_cast<double>(numQuanta_)
               : 0.0;
}

void
SyncStats::reset()
{
    numQuanta_ = 0;
    totalHostNs_ = 0.0;
    totalSimTicks_ = 0;
    timeline_.clear();
}

} // namespace aqsim::core
