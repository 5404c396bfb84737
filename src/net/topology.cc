#include "net/topology.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::net
{

TopologyKind
parseTopology(const std::string &name)
{
    if (name == "star")
        return TopologyKind::Star;
    if (name == "ring")
        return TopologyKind::Ring;
    if (name == "mesh")
        return TopologyKind::Mesh2D;
    if (name == "torus")
        return TopologyKind::Torus2D;
    if (name == "tree")
        return TopologyKind::Tree2Level;
    fatal("unknown topology '%s' (star/ring/mesh/torus/tree)",
          name.c_str());
}

std::string
topologyName(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::Star:
        return "star";
      case TopologyKind::Ring:
        return "ring";
      case TopologyKind::Mesh2D:
        return "mesh";
      case TopologyKind::Torus2D:
        return "torus";
      case TopologyKind::Tree2Level:
        return "tree";
    }
    panic("unreachable topology kind");
}

TopologySwitch::TopologySwitch(std::size_t num_nodes,
                               TopologyParams params)
    : numNodes_(num_nodes), params_(params),
      portBusyUntil_(num_nodes, 0)
{
    AQSIM_ASSERT(num_nodes >= 1);
    AQSIM_ASSERT(params_.hopLatency > 0);
    AQSIM_ASSERT(params_.bytesPerNs > 0.0);
    if (params_.kind == TopologyKind::Mesh2D ||
        params_.kind == TopologyKind::Torus2D) {
        // Near-square factorization, gridX_ >= gridY_.
        gridY_ = 1;
        for (std::size_t a = 1;
             a * a <= num_nodes; ++a) {
            if (num_nodes % a == 0)
                gridY_ = a;
        }
        gridX_ = num_nodes / gridY_;
    }
    if (params_.kind == TopologyKind::Tree2Level)
        AQSIM_ASSERT(params_.radix >= 1);
}

std::size_t
TopologySwitch::hops(NodeId src, NodeId dst) const
{
    AQSIM_ASSERT(src < numNodes_ && dst < numNodes_);
    if (src == dst)
        return 0;
    switch (params_.kind) {
      case TopologyKind::Star:
        return 1;
      case TopologyKind::Ring: {
        const std::size_t fwd = (dst + numNodes_ - src) % numNodes_;
        return std::min(fwd, numNodes_ - fwd);
      }
      case TopologyKind::Mesh2D: {
        const auto dx = static_cast<std::ptrdiff_t>(src % gridX_) -
                        static_cast<std::ptrdiff_t>(dst % gridX_);
        const auto dy = static_cast<std::ptrdiff_t>(src / gridX_) -
                        static_cast<std::ptrdiff_t>(dst / gridX_);
        return static_cast<std::size_t>(std::abs(dx) + std::abs(dy));
      }
      case TopologyKind::Torus2D: {
        const std::size_t ax =
            (dst % gridX_ + gridX_ - src % gridX_) % gridX_;
        const std::size_t ay =
            (dst / gridX_ + gridY_ - src / gridX_) % gridY_;
        return std::min(ax, gridX_ - ax) + std::min(ay, gridY_ - ay);
      }
      case TopologyKind::Tree2Level:
        return src / params_.radix == dst / params_.radix ? 1 : 3;
    }
    panic("unreachable topology kind");
}

std::size_t
TopologySwitch::diameter() const
{
    std::size_t max_hops = 0;
    for (NodeId a = 0; a < numNodes_; ++a)
        for (NodeId b = 0; b < numNodes_; ++b)
            max_hops = std::max(max_hops, hops(a, b));
    return max_hops;
}

Tick
TopologySwitch::egress(NodeId src, NodeId dst, std::uint32_t bytes,
                       Tick ingress)
{
    const std::size_t hop_count = std::max<std::size_t>(1,
                                                        hops(src, dst));
    const Tick path_latency =
        params_.hopLatency * static_cast<Tick>(hop_count);
    const auto ser = static_cast<Tick>(
        std::ceil(static_cast<double>(bytes) / params_.bytesPerNs));

    if (!params_.contention)
        return ingress + path_latency + ser;

    // Output-queued approximation: the frame occupies the destination
    // port for its serialization time after traversing the path.
    base::MutexLock lock(mutex_);
    const Tick start = std::max(ingress + path_latency,
                                portBusyUntil_[dst]);
    portBusyUntil_[dst] = start + ser;
    return portBusyUntil_[dst];
}

Tick
TopologySwitch::minTraversal() const
{
    // The closest pair is one hop away on every supported topology.
    return params_.hopLatency;
}

void
TopologySwitch::reset()
{
    base::MutexLock lock(mutex_);
    std::fill(portBusyUntil_.begin(), portBusyUntil_.end(), 0);
}

void
TopologySwitch::serialize(ckpt::Writer &w) const
{
    base::MutexLock lock(mutex_);
    w.u32(static_cast<std::uint32_t>(portBusyUntil_.size()));
    for (Tick t : portBusyUntil_)
        w.u64(t);
}

} // namespace aqsim::net
