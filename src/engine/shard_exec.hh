/**
 * @file
 * The shard-execution seam: the only engine-layer code allowed to
 * mutate a node's sim::EventQueue directly.
 *
 * Quantum-local execution is the half of the sharded kernel that runs
 * with no cross-shard synchronization (the other half — the K×K
 * exchange — is engine/delivery_batch.hh). Concentrating every direct
 * queue mutation (runOne / fastForwardTo / NIC delivery scheduling)
 * behind these functions keeps the engines' control flow free of
 * event-kernel details and lets tools/analyze enforce the boundary
 * statically: the "queue-seam" rule bans EventQueue mutators *and*
 * NicModel::deliverAt in engine code outside this file, so a future
 * engine cannot quietly bypass the canonical per-destination merge by
 * scheduling or delivering into another shard's queue. Post-exchange
 * dispatch is only legal through dispatchDelivery, called by the
 * worker that owns the destination node's shard (see
 * docs/static-analysis.md).
 */

#ifndef AQSIM_ENGINE_SHARD_EXEC_HH
#define AQSIM_ENGINE_SHARD_EXEC_HH

#include "base/types.hh"
#include "net/packet.hh"

namespace aqsim::base
{
class CancelToken;
} // namespace aqsim::base

namespace aqsim::node
{
class NodeSimulator;
} // namespace aqsim::node

namespace aqsim::engine
{

class NodeMailbox;

/**
 * Worker-side quantum-local execution: run @p node's events up to the
 * quantum boundary @p qe, draining urgent mid-quantum deliveries from
 * @p mbx under the mailbox open/close handshake, and leave the node
 * fast-forwarded to @p qe with the mailbox closed.
 *
 * @p cancel, when non-null, is the supervised-run unwedge seam: the
 * loop polls it and returns early (node left mid-quantum, mailbox
 * open) once cancellation is requested — the run is being abandoned
 * and the cluster discarded, so no boundary invariant needs to hold.
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
 * DeliveryBatch::mergeShard. The NIC copies the frame out of the
 * source shard's staging row into its own receive pool, so the lane
 * only reads the sender's row.
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
