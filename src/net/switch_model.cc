#include "net/switch_model.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::net
{

StoreAndForwardSwitch::StoreAndForwardSwitch(std::size_t num_ports,
                                             double bytes_per_ns,
                                             Tick traversal)
    : bytesPerNs_(bytes_per_ns), traversal_(traversal),
      portBusyUntil_(num_ports, 0)
{
    AQSIM_ASSERT(bytes_per_ns > 0.0);
}

Tick
StoreAndForwardSwitch::egress(NodeId, NodeId dst, std::uint32_t bytes,
                              Tick ingress)
{
    base::MutexLock lock(mutex_);
    AQSIM_ASSERT(dst < portBusyUntil_.size());
    const Tick start =
        std::max(ingress + traversal_, portBusyUntil_[dst]);
    const auto ser = static_cast<Tick>(
        std::ceil(static_cast<double>(bytes) / bytesPerNs_));
    portBusyUntil_[dst] = start + ser;
    return portBusyUntil_[dst];
}

void
StoreAndForwardSwitch::reset()
{
    base::MutexLock lock(mutex_);
    std::fill(portBusyUntil_.begin(), portBusyUntil_.end(), 0);
}

void
StoreAndForwardSwitch::serialize(ckpt::Writer &w) const
{
    base::MutexLock lock(mutex_);
    w.u32(static_cast<std::uint32_t>(portBusyUntil_.size()));
    for (Tick t : portBusyUntil_)
        w.u64(t);
}

} // namespace aqsim::net
