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

#include <cstdint>
#include <functional>

#include "base/inline_vec.hh"
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
using RxHandler = std::function<void(const net::Packet &)>;

/** Transmit/receive model of one node's NIC. */
class NicModel
{
  public:
    /**
     * @param id owning node
     * @param queue the node's event queue
     * @param controller the cluster's network controller
     */
    NicModel(NodeId id, sim::EventQueue &queue,
             net::NetworkController &controller);

    /** Every NIC's stats (a node's nic.*), over its frame counters. */
    static stats::Descriptors<NicModel> statDescriptors();

    /**
     * Transmit one frame of @p bytes (<= MTU) to @p dst carrying
     * @p frame's payload; the NIC stamps the frame's source, size and
     * ticks. The frame queues behind frames already serializing;
     * departTick reflects tx overhead, queueing, serialization and tx
     * latency. Injection into the controller happens immediately (the
     * functional transfer), with the timing carried on the packet —
     * exactly the decoupled functional/timing split the paper
     * describes.
     */
    void send(NodeId dst, std::uint32_t bytes, net::Packet frame = {});

    /** Bind the upper-layer receive handler. */
    void setRxHandler(RxHandler handler);

    /**
     * Schedule delivery of @p pkt at @p when in the node's event queue
     * (called by the engine's delivery paths — see engine/shard_exec).
     * The frame is copied into a slot of this NIC's receive pool, so
     * the caller's storage (another worker's staging row, a mailbox
     * buffer) is free again as soon as the call returns; the delivery
     * event captures only the slot index.
     */
    void deliverAt(const net::Packet &pkt, Tick when);

    /** Receive-pool slots ever allocated: the most frames this node
     * has had in flight towards it at once (tests). */
    std::size_t rxPoolSlots() const { return rxSlots_.size(); }

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
    /** Delivery event of receive-pool slot @p slot. */
    void receive(std::uint32_t slot);

    NodeId id_;
    sim::EventQueue &queue_;
    net::NetworkController &controller_;
    RxHandler rxHandler_;
    Tick txBusyUntil_ = 0;

    /**
     * Receive pool: frames scheduled for delivery, by slot. It grows
     * on demand to the most frames this node ever has in flight
     * towards it, and freed slots are reused. The first 2 slots live
     * in the NIC itself (real runs keep 1–4 frames in flight per
     * node); more spill to one heap block. A free slot holds the
     * index of the next free slot in its frame's id field, so the
     * free list costs no storage of its own. Written only by the
     * thread that owns this node.
     */
    base::InlineVec<net::Packet, 2> rxSlots_;
    static constexpr std::uint32_t noFreeSlot = ~std::uint32_t{0};
    std::uint32_t rxFreeHead_ = noFreeSlot;

    /** Frame counters, read by the nic.* stat descriptors. */
    std::uint64_t txFrames_ = 0;
    std::uint64_t txBytes_ = 0;
    std::uint64_t rxFrames_ = 0;
    std::uint64_t rxBytes_ = 0;
};

} // namespace aqsim::node

#endif // AQSIM_NODE_NIC_MODEL_HH
