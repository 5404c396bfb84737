#include "engine/shard_exec.hh"

#include <algorithm>
#include <vector>

#include "base/failure.hh"
#include "engine/worker_pool.hh"
#include "node/node_simulator.hh"

namespace aqsim::engine
{

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
        while (queue.nextTick() < qe) {
            // Supervised-run unwedge point: a quantum that spins here
            // forever (e.g. a poll loop waiting on a frame the fault
            // layer blackholed) returns as soon as the watchdog's
            // handler requests cancellation. The run is abandoned, so
            // leaving the node mid-quantum is fine.
            if (cancel && cancel->cancelled())
                return;
            queue.runOne();
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
