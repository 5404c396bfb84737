#include "engine/shard_exec.hh"

#include <algorithm>
#include <vector>

#include "base/failure.hh"
#include "engine/cluster.hh"
#include "engine/worker_pool.hh"
#include "node/node_simulator.hh"

namespace aqsim::engine
{

ShardLoop::ShardLoop(Cluster &cluster, NodeMailbox *mailboxes)
    : cluster_(cluster), controller_(cluster.controller()),
      mailboxes_(mailboxes),
      minLatency_(cluster.controller().minNetworkLatency()),
      wake_(cluster.numNodes(), 0)
{}

Tick
ShardLoop::runQuantum(std::size_t begin, std::size_t end, Tick qs,
                      Tick qe, std::size_t lane,
                      const base::CancelToken *cancel)
{
    const bool conservative = qe - qs <= minLatency_;
    AQSIM_ASSERT(conservative || mailboxes_ != nullptr);
    Tick earliest = maxTick;
    for (auto id = static_cast<NodeId>(begin); id < end; ++id) {
        if (conservative && wake_[id] >= qe) {
            // Nothing before qe, and nothing can arrive.
            earliest = std::min(earliest, wake_[id]);
            continue;
        }
        node::NodeSimulator &node = cluster_.node(id);
        auto &queue = node.queue();
        try {
            if (!conservative) {
                runNodeQuantum(node, mailboxes_[id], qe, cancel);
            } else {
                // No delivery can land before qe, so no mailbox: one
                // heap peek per event. The clock stays at the last
                // event until catchUp or a later visit.
                while (!(cancel && cancel->cancelled()) &&
                       queue.runBefore(qe))
                    continue;
            }
        } catch (...) {
            controller_.foldSource(id, lane);
            throw;
        }
        controller_.foldSource(id, lane);
        wake_[id] = queue.nextTick();
        earliest = std::min(earliest, wake_[id]);
    }
    return earliest;
}

void
ShardLoop::catchUp(std::size_t begin, std::size_t end, Tick boundary)
{
    for (auto id = static_cast<NodeId>(begin); id < end; ++id) {
        node::NodeSimulator &node = cluster_.node(id);
        if (node.queue().now() < boundary)
            snapToQuantumEnd(node, boundary);
    }
}

void
runNodeQuantum(node::NodeSimulator &node, NodeMailbox &mbx, Tick qe,
               const base::CancelToken *cancel)
{
    auto &queue = node.queue();

    // Mid-quantum drain of deliveries placed *inside* the open
    // quantum (the urgent/straggler path). Cross-quantum deliveries
    // never touch the mailbox anymore: they are staged in the source
    // shard's DeliveryBatch run and merged canonically at the barrier.
    // No invariant hook here: the receiver is live, so an on-time
    // parked delivery may benignly trail queue.now() by the placement
    // race the engine already clamps for. The race-free merge check
    // happens in DeliveryBatch::mergeShard.
    auto deliver = [&](std::vector<ParkedDelivery> &batch) {
        for (const auto &d : batch)
            node.nic().deliverAt(d.pkt, std::max(d.when, queue.now()));
    };

    mbx.open();
    for (;;) {
        // Supervised-run unwedge point: a quantum that spins here
        // forever (e.g. a poll loop waiting on a frame the fault
        // layer blackholed) returns as soon as the watchdog's handler
        // requests cancellation. The run is abandoned, so leaving the
        // node mid-quantum is fine.
        for (;;) {
            if (cancel && cancel->cancelled())
                return;
            if (!queue.runBefore(qe))
                break;
            mbx.setCurrentTick(queue.now());
            if (mbx.urgent())
                deliver(mbx.drain());
        }
        // Close the quantum atomically w.r.t. placers, then pick up
        // anything that raced in under the open state.
        if (!mbx.close())
            break;
        deliver(mbx.drain());
        if (queue.nextTick() >= qe)
            break;
        // A raced-in delivery landed inside the quantum: reopen.
        mbx.open();
    }
    queue.fastForwardTo(qe);
    mbx.setCurrentTick(qe);
}

bool
stepNode(node::NodeSimulator &node)
{
    return node.queue().runOne();
}

void
advanceNodeTo(node::NodeSimulator &node, Tick tick)
{
    node.queue().fastForwardTo(tick);
}

void
snapToQuantumEnd(node::NodeSimulator &node, Tick qe)
{
    node.queue().fastForwardTo(qe);
}

void
dispatchDelivery(node::NodeSimulator &node, const net::Packet &pkt,
                 Tick when)
{
    node.nic().deliverAt(pkt, std::max(when, node.queue().now()));
}

void
deliverUrgent(node::NodeSimulator &node, const net::Packet &pkt,
              Tick when)
{
    node.nic().deliverAt(pkt, when);
}

} // namespace aqsim::engine
