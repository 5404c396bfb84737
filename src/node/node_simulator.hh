/**
 * @file
 * One simulated cluster node.
 *
 * A NodeSimulator bundles what the paper's full-system simulator
 * instance provides to the synchronization layer: a private event
 * queue (simulated clock), a CPU timing model, a NIC bridged to the
 * network controller, and the guest application (a coroutine program
 * installed by the workload).
 */

#ifndef AQSIM_NODE_NODE_SIMULATOR_HH
#define AQSIM_NODE_NODE_SIMULATOR_HH

#include "base/types.hh"
#include "node/cpu_model.hh"
#include "node/nic_model.hh"
#include "sim/event_queue.hh"
#include "sim/process.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::node
{

/** A full simulated node: clock + CPU + NIC + guest program. */
class NodeSimulator
{
  public:
    /**
     * @param id dense node id
     * @param cpu CPU timing model; the caller keeps it alive for the
     *        node's lifetime (engine::Cluster builds it beside the
     *        node, in its block)
     * @param controller the cluster network controller
     */
    NodeSimulator(NodeId id, CpuModel &cpu,
                  net::NetworkController &controller);

    NodeId id() const { return id_; }
    sim::EventQueue &queue() { return queue_; }
    const sim::EventQueue &queue() const { return queue_; }
    CpuModel &cpu() { return cpu_; }
    NicModel &nic() { return nic_; }
    /** Where this node's coroutine frames come from. */
    sim::FramePool &framePool() { return framePool_; }

    /**
     * Install the guest program. The process is started through an
     * event at tick 0, so the first instructions execute inside the
     * node's own event context.
     */
    void setProgram(sim::Process program);

    /** Destroy the guest program's frame (and every frame it holds).
     * engine::Cluster does so before it destroys the endpoints those
     * frames may still refer to. */
    void endProgram() { program_ = sim::Process(); }

    /** @return true once the guest program ran to completion. */
    bool appDone() const { return appDone_; }

    /** @return tick at which the guest program completed. */
    Tick appFinishTick() const { return appFinishTick_; }

    /**
     * Checkpoint support: persist the node's architectural state
     * (clock + pending-event structure + CPU + NIC + app progress).
     * The guest coroutine frame itself is code, not data; on restore
     * it is reconstructed by deterministic replay and this
     * serialization drives the divergence self-check.
     */
    void serialize(ckpt::Writer &w) const;

  private:
    NodeId id_;
    /** Declared first: it outlives every frame it served. */
    sim::FramePool framePool_;
    sim::EventQueue queue_;
    CpuModel &cpu_;
    NicModel nic_;

    sim::Process program_;
    bool appDone_ = false;
    Tick appFinishTick_ = 0;
};

} // namespace aqsim::node

#endif // AQSIM_NODE_NODE_SIMULATOR_HH
