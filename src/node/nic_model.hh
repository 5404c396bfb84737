/**
 * @file
 * Network interface card model.
 *
 * The NIC lives at the boundary of the simulated node: on the transmit
 * side it serializes frames onto the (simulated) wire and injects them
 * into the network controller; on the receive side it turns deliveries
 * scheduled by the execution engine into events in the node's event
 * queue and hands the frames to the bound upper layer (mpi::Endpoint).
 *
 * This mirrors the paper's structure: "Our NIC timing extensions within
 * each SimNow-simulated node relay packets to the network controller
 * [...]. The destination NIC uses its timing interface to instruct the
 * internal SimNow event scheduling system of the arrival of the network
 * packet at the appropriate time."
 */

#ifndef AQSIM_NODE_NIC_MODEL_HH
#define AQSIM_NODE_NIC_MODEL_HH

#include <functional>

#include "base/types.hh"
#include "net/network_controller.hh"
#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::node
{

/** Callback receiving frames on the rx side. */
using RxHandler = std::function<void(const net::PacketPtr &)>;

/** Transmit/receive model of one node's NIC. */
class NicModel
{
  public:
    /**
     * @param id owning node
     * @param queue the node's event queue
     * @param controller the cluster's network controller
     * @param stats_parent node stats group
     */
    NicModel(NodeId id, sim::EventQueue &queue,
             net::NetworkController &controller,
             stats::Group &stats_parent);

    /**
     * Transmit one frame (<= MTU) to @p dst. The frame queues behind
     * frames already serializing; departTick reflects tx overhead,
     * queueing, serialization and tx latency. Injection into the
     * controller happens immediately (the functional transfer), with
     * the timing carried on the packet — exactly the decoupled
     * functional/timing split the paper describes.
     */
    void send(NodeId dst, std::uint32_t bytes, net::PayloadPtr payload);

    /** Bind the upper-layer receive handler. */
    void setRxHandler(RxHandler handler);

    /**
     * Schedule delivery of @p pkt at @p when in the node's event queue
     * (called by the engine's delivery paths — see engine/shard_exec).
     * By value: callers handing over their last reference (the
     * exchange dispatch, mailbox drains) move it straight into the
     * delivery event with no refcount traffic.
     */
    void deliverAt(net::PacketPtr pkt, Tick when);

    /** Tick until which the transmitter is busy serializing. */
    Tick txBusyUntil() const { return txBusyUntil_; }

    /** Checkpoint support: persist the transmit-side timing state. */
    void serialize(ckpt::Writer &w) const;

    /** Shared NIC timing parameters (from the controller config). */
    const net::NicParams &
    params() const
    {
        return controller_.nicParams();
    }

    NodeId id() const { return id_; }

  private:
    NodeId id_;
    sim::EventQueue &queue_;
    net::NetworkController &controller_;
    RxHandler rxHandler_;
    Tick txBusyUntil_ = 0;

    stats::Group &statsGroup_;
    stats::Scalar &statTxFrames_;
    stats::Scalar &statTxBytes_;
    stats::Scalar &statRxFrames_;
    stats::Scalar &statRxBytes_;
};

} // namespace aqsim::node

#endif // AQSIM_NODE_NIC_MODEL_HH
