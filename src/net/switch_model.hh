/**
 * @file
 * Timing models for the simulated network switch.
 *
 * The network controller is the paper's centralized functional switch;
 * a SwitchModel adds the timing component ("we can model any kind of
 * network/switch/router topology by making packets take more or less
 * simulated time to reach their endpoints").
 *
 * PerfectSwitch reproduces the paper's evaluation configuration:
 * infinite bandwidth, zero latency — the most aggressive (straggler-
 * heavy) case. TopologySwitch (topology.hh) prices hops, per-port
 * serialization and output-port contention; its Star kind is the
 * store-and-forward switch of the ablation studies.
 */

#ifndef AQSIM_NET_SWITCH_MODEL_HH
#define AQSIM_NET_SWITCH_MODEL_HH

#include <cstdint>

#include "base/types.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::net
{

/** Abstract switch timing model. */
class SwitchModel
{
  public:
    virtual ~SwitchModel() = default;

    /**
     * Compute when a frame that enters the switch at @p ingress
     * becomes available at the destination port.
     *
     * The model may keep per-port state (occupancy), so calls must be
     * made in nondecreasing ingress order per port for contention to be
     * meaningful; the controller guarantees injection order only within
     * a quantum, which is the same fidelity the paper's controller has.
     * Sources on different threads call this concurrently; a model
     * with state guards it itself.
     *
     * @param src source node
     * @param dst destination node
     * @param bytes frame size
     * @param ingress tick the frame enters the switch
     * @return tick the frame exits toward dst
     */
    virtual Tick egress(NodeId src, NodeId dst, std::uint32_t bytes,
                        Tick ingress) = 0;

    /**
     * @return a lower bound on switch traversal time for any frame;
     * contributes to the minimum network latency T that bounds the safe
     * synchronization quantum.
     */
    virtual Tick minTraversal() const = 0;

    /** Reset per-port state between runs. */
    virtual void reset() {}

    /** Checkpoint support: persist per-port timing state (if any). */
    virtual void serialize(ckpt::Writer &) const {}
};

/** Zero-latency, infinite-bandwidth switch (the paper's setup). */
class PerfectSwitch : public SwitchModel
{
  public:
    Tick
    egress(NodeId, NodeId, std::uint32_t, Tick ingress) override
    {
        return ingress;
    }

    Tick minTraversal() const override { return 0; }
};

} // namespace aqsim::net

#endif // AQSIM_NET_SWITCH_MODEL_HH
