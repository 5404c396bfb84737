/**
 * @file
 * The shard-execution seam: the one shard loop, which the threaded
 * engine's pool workers and every distributed-engine process call,
 * and the only engine-layer code allowed to mutate a node's
 * sim::EventQueue directly. (The exchange half of the sharded kernel
 * is engine/delivery_batch.hh.)
 *
 * A quantum's cost follows its work, not the node count. A quantum is
 * *conservative* when Q = qe - qs <= T, the minimum network latency:
 * every delivery staged in it lands at or after qe. Such a quantum
 * skips the urgent mailbox handshake and visits only nodes whose wake
 * tick lies before qe; the others' clocks lag until catchUp snaps
 * them. Non-conservative quanta visit every node under the handshake.
 *
 * The "queue-seam" rule of tools/analyze bans EventQueue mutators and
 * NicModel::deliverAt in engine code outside this file, so no engine
 * can bypass the canonical per-destination merge by scheduling or
 * delivering into another shard's queue; post-exchange dispatch goes
 * through dispatchDelivery on the worker that owns the destination
 * (see docs/static-analysis.md).
 */

#ifndef AQSIM_ENGINE_SHARD_EXEC_HH
#define AQSIM_ENGINE_SHARD_EXEC_HH

#include <cstddef>
#include <vector>

#include "base/types.hh"
#include "net/packet.hh"

namespace aqsim::base
{
class CancelToken;
} // namespace aqsim::base

namespace aqsim::net
{
class NetworkController;
} // namespace aqsim::net

namespace aqsim::node
{
class NodeSimulator;
} // namespace aqsim::node

namespace aqsim::engine
{

class Cluster;
class NodeMailbox;

/**
 * The one shard loop and its dense per-node wake ticks. wake[id] is a
 * lower bound on node id's next event at every quantum start: set from
 * the queue after each visit, lowered by DeliveryBatch::mergeShard for
 * each delivery into the node. Only the worker owning id's shard
 * writes it (it runs the node and merges its column).
 */
class ShardLoop
{
  public:
    /** @param mailboxes urgent mailboxes by node id, or nullptr
     * when every quantum is conservative (a distributed shard). The
     * controller must fold by lane (NetworkController::setFoldLanes). */
    ShardLoop(Cluster &cluster, NodeMailbox *mailboxes);

    /**
     * Run nodes [@p begin, @p end) through quantum [@p qs, @p qe),
     * folding each visited node's counter slot into lane @p lane on
     * every exit path. Abandons the quantum, nodes mid-quantum, once
     * @p cancel (the supervised-run unwedge seam) is set: the run and
     * its cluster are being discarded.
     */
    void runQuantum(std::size_t begin, std::size_t end, Tick qs,
                    Tick qe, std::size_t lane,
                    const base::CancelToken *cancel = nullptr);

    /** Snap the lagging clocks of [@p begin, @p end) to the
     * boundary, workers parked, before anything reads them: images,
     * the final state hash, a peer's state slice. */
    void catchUp(std::size_t begin, std::size_t end, Tick boundary);

    /** The wake ticks, indexed by node id, for mergeShard. */
    Tick *wake() { return wake_.data(); }

  private:
    Cluster &cluster_;
    net::NetworkController &controller_;
    NodeMailbox *const mailboxes_;
    const Tick minLatency_;
    /** All 0 at start: the first quantum visits every node. */
    std::vector<Tick> wake_;
};

/**
 * ShardLoop's visit in a non-conservative quantum: run @p node to
 * @p qe under @p mbx's open/close handshake, draining urgent
 * mid-quantum deliveries, and leave it at @p qe with the mailbox
 * closed (or mid-quantum, mailbox open, once @p cancel is set).
 */
void runNodeQuantum(node::NodeSimulator &node, NodeMailbox &mbx,
                    Tick qe, const base::CancelToken *cancel = nullptr);

/**
 * Execute exactly one pending event (the SequentialEngine's host-time
 * interleave steps nodes one event at a time).
 * @return true if an event ran.
 */
bool stepNode(node::NodeSimulator &node);

/**
 * Advance @p node's clock to @p tick without running events (receiver
 * interpolation; all pending events must lie at or beyond @p tick).
 */
void advanceNodeTo(node::NodeSimulator &node, Tick tick);

/** Snap an event-free node to the quantum boundary @p qe. */
void snapToQuantumEnd(node::NodeSimulator &node, Tick qe);

/**
 * Schedule a merged cross-quantum delivery of @p pkt into @p node at
 * @p when, clamped to the receiver's clock (a restore replay can find
 * the receiver already past a staged tick). Called only by the worker
 * that owns the destination node's shard, from
 * DeliveryBatch::mergeShard, which also lowers the node's wake tick.
 * The NIC copies the frame out of the source shard's staging row into
 * its own receive pool, so the lane only reads the sender's row.
 */
void dispatchDelivery(node::NodeSimulator &node, const net::Packet &pkt,
                      Tick when);

/**
 * Deliver @p pkt into a *live* receiver mid-quantum at exactly
 * @p when (the urgent on-time/straggler path: the caller has already
 * resolved the tick against the receiver's position).
 */
void deliverUrgent(node::NodeSimulator &node, const net::Packet &pkt,
                   Tick when);

} // namespace aqsim::engine

#endif // AQSIM_ENGINE_SHARD_EXEC_HH
