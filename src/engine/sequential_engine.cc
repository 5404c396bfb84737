#include "engine/sequential_engine.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "base/debug.hh"
#include "base/logging.hh"
#include "ckpt/ckpt_io.hh"
#include "ckpt/checkpoint.hh"
#include "core/synchronizer.hh"
#include "engine/delivery_batch.hh"
#include "engine/quantum_driver.hh"
#include "engine/shard_exec.hh"

namespace aqsim::engine
{

namespace
{

/**
 * Per-run co-simulation state, the DeliveryScheduler the controller
 * calls back into, and the sequential engine's QuantumExecutor.
 */
class CoSim : public net::DeliveryScheduler, public QuantumExecutor
{
  public:
    CoSim(Cluster &cluster, QuantumDriver &driver,
          const EngineOptions &options)
        : cluster_(cluster), driver_(driver), sync_(driver.sync()),
          options_(options),
          batch_(cluster.numNodes(), 1, options.phaseStats)
    {
        Rng host_rng(cluster.params().seed ^ 0x9d5c0fb3ULL);
        const std::size_t n = cluster.numNodes();
        states_.reserve(n);
        for (NodeId id = 0; id < n; ++id) {
            states_.push_back(NodeState{
                &cluster.node(id),
                node::HostCostModel(options.host, host_rng.fork(id)),
            });
        }
        cluster.controller().setScheduler(this);
        // One thread runs every node: the boundary folds the slots.
        cluster.controller().setFoldLanes(0);
    }

    const char *name() const override { return "sequential"; }
    bool done() const override { return cluster_.allDone(); }
    bool pending() const override { return cluster_.anyEventPending(); }

    void
    describe(PanicInfo &info) const override
    {
        info.progress = cluster_.progressReport();
    }

    ckpt::CheckpointImage
    boundaryImage(std::uint64_t config_hash) override
    {
        return ckpt::buildImage(sync_, config_hash, name(),
                                cluster_.state().sections, engineState());
    }

    void
    finish(RunResult &result) override
    {
        // The modeled host total (this executor's own accumulator)
        // replaces the driver's wall-clock measure.
        result.hostNs = globalHost_;
        fillResult(result, cluster_.state(),
                   options_.phaseStats ? &batch_.phases() : nullptr);
    }

    /** DeliveryScheduler: place a packet into its destination node. */
    Tick
    place(const net::Packet &pkt, net::DeliveryKind &kind) override
    {
        NodeState &dst = states_[pkt.dst];
        const Tick ideal = pkt.idealArrival;
        const Tick qe = sync_.quantumEnd();

        if (ideal >= qe) {
            // Arrives in a later quantum: always safely schedulable.
            // Staged, not delivered: both engines route cross-quantum
            // deliveries through the same canonical barrier merge.
            batch_.stage(pkt, ideal, net::DeliveryKind::OnTime);
            kind = net::DeliveryKind::OnTime;
            return ideal;
        }
        // The receiver's co-sim state is consulted below; an idle
        // (lazy) receiver must first be materialized as if its barrier
        // entry had been in the heap all along.
        if (dst.lazy)
            materialize(pkt.dst);
        if (dst.atBarrier) {
            // Fig. 3d: receiver already finished its quantum; the
            // controller queues the packet to the next boundary.
            batch_.stage(pkt, qe, net::DeliveryKind::NextQuantum);
            kind = net::DeliveryKind::NextQuantum;
            return qe;
        }

        // Where is the receiver's simulator *right now* (in host time)?
        // It has been free-running since its last event; it cannot
        // have passed a still-pending event (that event's heap entry
        // would have popped before the current host time), so the
        // interpolation is clamped to the next pending tick.
        const HostNs host_now = currentHostNs_;
        Tick rpos = dst.simPos;
        if (host_now > dst.hostClock && dst.rate > 0.0) {
            rpos += static_cast<Tick>((host_now - dst.hostClock) /
                                      dst.rate);
        }
        rpos = std::min({rpos, qe, dst.node->queue().nextTick()});

        // Advance the receiver to this host moment: the delivery is
        // *caused* now, so nothing the receiver does afterwards may be
        // stamped earlier than this (host causality).
        if (rpos > dst.simPos) {
            advanceNodeTo(*dst.node, rpos);
            dst.simPos = rpos;
        }
        dst.hostClock = std::max(dst.hostClock, host_now);

        if (ideal >= rpos) {
            // Fig. 3 scenario (2): receiver has not yet reached the
            // arrival time; schedule it exactly (urgent: the receiver
            // is live inside the quantum, so this cannot wait for the
            // exchange merge).
            deliverUrgent(*dst.node, pkt, ideal);
            kind = net::DeliveryKind::OnTime;
            requeue(pkt.dst);
            return ideal;
        }
        if (rpos >= qe) {
            batch_.stage(pkt, qe, net::DeliveryKind::NextQuantum);
            kind = net::DeliveryKind::NextQuantum;
            return qe;
        }
        AQSIM_DPRINTF(Straggler, ideal, "engine",
                      "pkt#%llu %u->%u late: ideal=%llu receiver@%llu",
                      static_cast<unsigned long long>(pkt.id),
                      pkt.src, pkt.dst,
                      static_cast<unsigned long long>(ideal),
                      static_cast<unsigned long long>(rpos));
        if (options_.stragglerPolicy ==
            StragglerPolicy::DeferToNextQuantum) {
            batch_.stage(pkt, qe, net::DeliveryKind::NextQuantum);
            kind = net::DeliveryKind::NextQuantum;
            return qe;
        }
        // Straggler: cannot deliver in the past; deliver "now".
        const Tick actual = std::max(rpos, dst.node->queue().now());
        deliverUrgent(*dst.node, pkt, actual);
        kind = net::DeliveryKind::Straggler;
        requeue(pkt.dst);
        return actual;
    }

  private:
    struct NodeState
    {
        node::NodeSimulator *node;
        node::HostCostModel host;
        /** Host-ns per sim-ns for the segment after the last event. */
        double rate = 1.0;
        /** Sim tick of the last processed event. */
        Tick simPos = 0;
        /** Host time at which the last event finished. */
        HostNs hostClock = 0.0;
        bool atBarrier = false;
        /**
         * Idle fast path: the node has no events this quantum, so its
         * barrier time is the closed form lazyBarrier and it never
         * enters the heap. It is folded in at quantum end, or
         * materialized on demand if a mid-quantum delivery consults
         * it (see materialize()).
         */
        bool lazy = false;
        HostNs lazyBarrier = 0.0;
        std::uint64_t gen = 0;
    };

    struct Entry
    {
        HostNs when;
        NodeId id;
        std::uint64_t gen;
        bool isBarrier;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (id != o.id)
                return id > o.id;
            return gen > o.gen;
        }
    };

    /** Recompute and push a node's next host-time entry. */
    void
    pushEntry(NodeId id)
    {
        NodeState &s = states_[id];
        const Tick qe = sync_.quantumEnd();
        const Tick next = s.node->queue().nextTick();
        s.rate = s.host.rate(s.node->cpu().busy(),
                             s.node->cpu().hostDetailFactor());
        if (next >= qe) {
            const HostNs when =
                s.hostClock +
                static_cast<double>(qe - s.simPos) * s.rate;
            heap_.push(Entry{when, id, s.gen, true});
        } else {
            const HostNs when =
                s.hostClock +
                static_cast<double>(next - s.simPos) * s.rate +
                s.host.perEventNs();
            heap_.push(Entry{when, id, s.gen, false});
        }
    }

    /** Invalidate a node's queued entry and schedule a fresh one. */
    void
    requeue(NodeId id)
    {
        NodeState &s = states_[id];
        if (s.atBarrier)
            return;
        ++s.gen;
        pushEntry(id);
    }

    /**
     * Bring a lazy (idle) node into the co-simulation exactly as if
     * its barrier entry had been in the heap since the quantum began:
     * if that entry would have popped before the entry currently
     * executing, the node is already at its barrier; otherwise it
     * becomes an active heap participant with the same entry key the
     * eager path would have pushed. Heap pops are key-monotone (every
     * push is stamped at or after the frontier), so the comparison
     * against the current entry reproduces the eager schedule bit for
     * bit.
     */
    void
    materialize(NodeId id)
    {
        NodeState &s = states_[id];
        AQSIM_ASSERT(s.lazy && curValid_);
        s.lazy = false;
        const Entry would{s.lazyBarrier, id, s.gen, true};
        if (curEntry_ > would) {
            // Its barrier pop predates the current entry: at that pop
            // the frontier equaled lazyBarrier (monotone pops), which
            // is what hostClock would have captured.
            s.hostClock = s.lazyBarrier;
            snapToQuantumEnd(*s.node, sync_.quantumEnd());
            s.simPos = sync_.quantumEnd();
            s.atBarrier = true;
            maxBarrier_ = std::max(maxBarrier_, s.lazyBarrier);
            ++activeNodes_;
            ++barrierNodes_;
        } else {
            ++activeNodes_;
            pushEntry(id);
        }
    }

    /** One host-time co-simulated quantum; @return its modeled ns. */
    std::optional<HostNs>
    runQuantum() override
    {
        const std::size_t n = states_.size();
        const Tick qs = sync_.quantumStart();
        const Tick qe = sync_.quantumEnd();
        const HostNs quantum_begin = globalHost_;

        activeNodes_ = 0;
        barrierNodes_ = 0;
        maxBarrier_ = quantum_begin;
        for (NodeId id = 0; id < n; ++id) {
            NodeState &s = states_[id];
            AQSIM_ASSERT(s.node->queue().now() == qs);
            s.atBarrier = false;
            s.simPos = qs;
            s.hostClock = quantum_begin + s.host.perQuantumNs();
            // Drawn for every node every quantum (idle or not): the
            // cost model's AR(1) noise stream must advance identically
            // on both paths.
            s.host.newQuantum(qe - qs);
            ++s.gen;
            if (s.node->queue().nextTick() >= qe) {
                // Idle fast path: no events this quantum, so the
                // barrier time is a closed form (same expression as
                // pushEntry's barrier case) and the node skips the
                // heap entirely. This is what keeps the per-quantum
                // fixed cost flat as clusters grow: idle nodes cost
                // O(1) with no heap traffic.
                s.rate = s.host.rate(s.node->cpu().busy(),
                                     s.node->cpu().hostDetailFactor());
                s.lazy = true;
                s.lazyBarrier =
                    s.hostClock +
                    static_cast<double>(qe - s.simPos) * s.rate;
            } else {
                pushEntry(id);
                ++activeNodes_;
            }
        }

        while (barrierNodes_ < activeNodes_) {
            driver_.pollCancel();
            AQSIM_ASSERT(!heap_.empty());
            const Entry e = heap_.top();
            heap_.pop();
            NodeState &s = states_[e.id];
            if (e.gen != s.gen)
                continue; // stale entry
            // The host frontier is monotone: an entry stamped before
            // the frontier (possible when a causally-later delivery
            // re-stamped the node) executes "now".
            currentHostNs_ = std::max(currentHostNs_, e.when);
            if (e.isBarrier) {
                s.hostClock = currentHostNs_;
                snapToQuantumEnd(*s.node, qe);
                s.simPos = qe;
                s.atBarrier = true;
                ++barrierNodes_;
                maxBarrier_ = std::max(maxBarrier_, currentHostNs_);
                continue;
            }
            // Run exactly one event; its callbacks may transmit
            // packets (delivering into other nodes through place(),
            // which may materialize lazy receivers against curEntry_)
            // or schedule further local events.
            const Tick tick = s.node->queue().nextTick();
            AQSIM_ASSERT(tick < qe);
            s.hostClock = currentHostNs_;
            s.simPos = tick;
            curEntry_ = e;
            curValid_ = true;
            const bool ran = stepNode(*s.node);
            AQSIM_ASSERT(ran);
            curValid_ = false;
            pushEntry(e.id);
        }

        // Fold the nodes that stayed lazy: their barrier times join
        // the frontier and barrier maxima (max is order-independent),
        // and their clocks snap to the boundary.
        for (NodeId id = 0; id < n; ++id) {
            NodeState &s = states_[id];
            if (!s.lazy)
                continue;
            s.lazy = false;
            currentHostNs_ = std::max(currentHostNs_, s.lazyBarrier);
            maxBarrier_ = std::max(maxBarrier_, s.lazyBarrier);
            s.hostClock = s.lazyBarrier;
            snapToQuantumEnd(*s.node, qe);
            s.simPos = qe;
            s.atBarrier = true;
        }

        // Canonical exchange merge, shared with the ThreadedEngine
        // (K=1 here, the degenerate single-column exchange): staged
        // cross-quantum deliveries enter the destination queues in
        // (when, src, departTick) order before the quantum completes,
        // keeping them visible to the deadlock check and inside the
        // checkpoint cut.
        batch_.mergeInto(cluster_);

        globalHost_ = maxBarrier_ +
                      options_.host.barrierNs(states_.size());
        AQSIM_DPRINTF(Engine, qe, "engine",
                      "quantum [%llu,%llu) took %.0f host-ns",
                      static_cast<unsigned long long>(qs),
                      static_cast<unsigned long long>(qe),
                      globalHost_ - quantum_begin);
        return globalHost_ - quantum_begin;
    }

    /**
     * Engine-private checkpoint section: the modeled host-time
     * co-simulation state. Everything here is deterministic (modeled
     * host cost, not wall clock), so it participates in the
     * divergence self-check.
     */
    std::vector<std::uint8_t>
    engineState() const
    {
        ckpt::Writer w;
        w.f64(globalHost_);
        w.f64(currentHostNs_);
        w.u32(static_cast<std::uint32_t>(states_.size()));
        for (const NodeState &s : states_) {
            s.host.serialize(w);
            w.f64(s.rate);
            w.u64(s.simPos);
            w.f64(s.hostClock);
        }
        // Delivery-layer quiescence proof + deterministic counters
        // (same section layout as the ThreadedEngine's).
        DeliveryBatch::serialize(w, batch_.counts());
        return w.take();
    }

    Cluster &cluster_;
    QuantumDriver &driver_;
    const core::Synchronizer &sync_;
    const EngineOptions &options_;
    std::vector<NodeState> states_;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap_;
    /** Shared barrier-merge path (K=1 degenerate sharding). */
    DeliveryBatch batch_;
    HostNs globalHost_ = 0.0;
    HostNs currentHostNs_ = 0.0;
    /** Entry currently executing (lazy materialization compares
     * against it); valid only while an event callback runs. */
    Entry curEntry_{};
    bool curValid_ = false;
    /** Heap participants this quantum (lazy nodes join on demand). */
    std::size_t activeNodes_ = 0;
    std::size_t barrierNodes_ = 0;
    HostNs maxBarrier_ = 0.0;
};

} // namespace

SequentialEngine::SequentialEngine(EngineOptions options)
    : options_(options)
{}

RunResult
SequentialEngine::run(const ClusterParams &params,
                      workloads::Workload &workload,
                      core::QuantumPolicy &policy)
{
    Cluster cluster(params, workload);
    return run(cluster, policy);
}

RunResult
SequentialEngine::run(Cluster &cluster, core::QuantumPolicy &policy)
{
    QuantumDriver driver(options_, cluster, policy);
    CoSim cosim(cluster, driver, options_);
    return driver.run(cosim);
}

} // namespace aqsim::engine
