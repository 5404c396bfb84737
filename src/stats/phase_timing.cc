#include "stats/phase_timing.hh"

namespace aqsim::stats
{

PhaseTimes::PhaseTimes(std::size_t workers, bool enabled)
    : slots_(workers), enabled_(enabled)
{}

std::uint64_t
PhaseTimes::total(EnginePhase phase) const
{
    std::uint64_t ns = 0;
    for (const Slot &slot : slots_)
        ns += slot.ns[static_cast<unsigned>(phase)];
    return ns;
}

} // namespace aqsim::stats
