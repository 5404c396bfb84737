/**
 * @file
 * The centralized network controller.
 *
 * This is the paper's "network controller": the component every node
 * NIC bridges its simulated packets to, "responsible for routing packets
 * to and from the simulated nodes". It acts as a perfect link-layer
 * switch functionally, adds timing through a pluggable SwitchModel, and
 * is the observation point for the adaptive quantum algorithm (it counts
 * the packets seen in each quantum).
 *
 * Placement of a delivery into the destination node is delegated to a
 * DeliveryScheduler implemented by the execution engine, because only
 * the engine knows how far the receiver has progressed in host time
 * (the straggler question).
 */

#ifndef AQSIM_NET_NETWORK_CONTROLLER_HH
#define AQSIM_NET_NETWORK_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/mutex.hh"
#include "base/types.hh"
#include "net/packet.hh"
#include "net/switch_model.hh"
#include "stats/stats.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::fault
{
class FaultInjector;
} // namespace aqsim::fault

namespace aqsim::net
{

/** How a delivery was placed relative to its ideal arrival tick. */
enum class DeliveryKind
{
    /** Scheduled at the exact ideal arrival tick. */
    OnTime,
    /**
     * The receiver had already simulated past the ideal arrival; the
     * packet was delivered at the receiver's current position
     * (a straggler, paper Fig. 3b/3c discussion).
     */
    Straggler,
    /**
     * The receiver had already finished its quantum; the packet was
     * queued to the next quantum boundary (paper Fig. 3d: "latency
     * snaps to next quantum").
     */
    NextQuantum,
};

/**
 * Engine-side placement of packet deliveries. The controller computes
 * *when* a packet should arrive; the scheduler knows *where the receiver
 * is* and places the corresponding receive event.
 */
class DeliveryScheduler
{
  public:
    virtual ~DeliveryScheduler() = default;

    /**
     * Place the delivery of @p pkt into node pkt.dst. pkt.idealArrival
     * holds the physically correct arrival tick. The frame is the
     * caller's; a scheduler that keeps it keeps a copy.
     *
     * @param kind (out) how the delivery was placed
     * @return the actual delivery tick (>= any tick the receiver has
     *         already simulated)
     */
    virtual Tick place(const Packet &pkt, DeliveryKind &kind) = 0;
};

/** Observer of routed packets (tracing / visualization). */
using PacketObserver =
    std::function<void(const Packet &, Tick actual_tick)>;

/** Fixed timing parameters of every node NIC (paper section 4). */
struct NicParams
{
    /** Host-to-wire latency of the sending NIC. */
    Tick txLatency = 500;
    /** Wire-to-host latency of the receiving NIC. */
    Tick rxLatency = 500;
    /** Serialization bandwidth in bytes per ns (10.0 = 10 GB/s). */
    double bytesPerNs = 10.0;
    /** Maximum frame size (jumbo Ethernet). */
    std::uint32_t mtu = 9000;
    /** Per-frame software/DMA overhead on the send side. */
    Tick txOverhead = 100;

    /** Serialization delay of a frame of @p bytes. */
    Tick serialization(std::uint32_t bytes) const;
};

/** Configuration of the network controller. */
struct NetworkParams
{
    NicParams nic;
    /** nullptr selects a PerfectSwitch. */
    std::shared_ptr<SwitchModel> switchModel;
};

/**
 * Centralized functional + timing network simulator for the cluster.
 *
 * Threading: a node's frames are injected on the thread that runs the
 * node, so the per-packet path writes only the source node's counter
 * slot and takes no lock unless it calls a collaborator that really is
 * shared (the fault injector, packet observers, the lateness
 * histogram). Everything else — binding, reset, quantum boundaries,
 * counter reads, checkpointing — runs while no node is executing.
 */
class NetworkController
{
  public:
    /**
     * @param num_nodes cluster size
     * @param params NIC + switch timing configuration
     * @param stats_parent group under which controller stats register
     */
    NetworkController(std::size_t num_nodes, NetworkParams params,
                      stats::Group &stats_parent);

    /** Bind the engine's delivery scheduler (required before inject). */
    void setScheduler(DeliveryScheduler *scheduler)
    {
        scheduler_ = scheduler;
    }

    /** Currently bound scheduler (nullptr after reset; tests). */
    DeliveryScheduler *scheduler() const { return scheduler_; }

    /**
     * Interpose a fault injector between the NICs and the switch
     * (nullptr = perfect network). The controller consults it for every
     * unicast route while holding its shared-collaborator mutex, so the
     * injector needs no locking of its own.
     */
    void setFaultInjector(fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /**
     * Register an observer called for every routed packet. Observers
     * run under the shared-collaborator mutex, one at a time.
     */
    void addObserver(PacketObserver observer)
    {
        observers_.push_back(std::move(observer));
    }

    /**
     * Inject a frame from a source NIC. pkt.departTick must be set by
     * the NIC (send tick + tx overhead + serialization + tx latency).
     * The controller stamps the frame's id, idealArrival and corrupted
     * flag in place. Broadcast destinations are replicated to every
     * other node.
     * Thread-safe for concurrent injections from *different* source
     * nodes (the ThreadedEngine path: each worker injects only for the
     * nodes it runs).
     */
    void inject(Packet &pkt) AQSIM_EXCLUDES(sharedMutex_);

    /**
     * @return the minimum possible end-to-end latency T; quanta
     * Q <= T are safe (straggler-free), per the paper's safety rule.
     */
    Tick minNetworkLatency() const;

    /**
     * Routing counters. Each source node owns one slot of them; the
     * controller's totals are the folded slots plus anything absorbed
     * from remote peers. The same struct carries one peer's counter
     * values across processes (DistributedEngine): a peer ships its
     * shard's fold lane, the quantum's advance, which process 0
     * absorbs into its replica controller so the adaptive policy and
     * checkpoint images see the global counts.
     * idsAssigned counts the packet ids handed out. Straggler fields
     * are zero in any conservative run but carried so the mapping is
     * total. alignas keeps two workers' slots off one cache line.
     */
    struct alignas(64) Counters
    {
        std::uint64_t idsAssigned = 0;
        std::uint64_t packetsThisQuantum = 0;
        std::uint64_t totalPackets = 0;
        std::uint64_t totalStragglers = 0;
        std::uint64_t totalNextQuantum = 0;
        std::uint64_t totalLatenessTicks = 0;
        std::uint64_t totalDropped = 0;
        std::uint64_t bytes = 0;

        Counters &operator+=(const Counters &o);
    };

    /**
     * With 0 lanes (the default) beginQuantum() folds all N slots.
     * With @p lanes > 0 the engine folds each source's slot into a
     * lane partial (foldSource) before the boundary, and
     * beginQuantum() folds only the K partials. Call while no node
     * runs.
     */
    void setFoldLanes(std::size_t lanes);

    /** Fold and clear @p src's slot into lane @p lane; only by the
     * thread that runs @p src and owns @p lane, after @p src ran. */
    void
    foldSource(NodeId src, std::size_t lane)
    {
        Counters &slot = slots_[src];
        lanes_[lane] += slot;
        slot = Counters{};
    }

    /** Lane @p lane's partial: what its sources routed since the
     * last beginQuantum(). */
    const Counters &
    foldLane(std::size_t lane) const
    {
        return lanes_[lane];
    }

    /**
     * Start a new quantum: fold the lane partials (or, with no lanes,
     * the per-source slots) into the controller totals and reset the
     * per-quantum packet counter.
     *
     * @return every counter as it stood before the reset, i.e. the
     *         closing quantum's packetsThisQuantum and the totals.
     */
    Counters beginQuantum();

    /** @return packets routed since the last beginQuantum(). */
    std::uint64_t
    packetsThisQuantum() const
    {
        return snapshotCounters().packetsThisQuantum;
    }

    /** Lifetime counters (for tests and the harness). */
    std::uint64_t
    totalPackets() const
    {
        return snapshotCounters().totalPackets;
    }

    std::uint64_t
    totalStragglers() const
    {
        return snapshotCounters().totalStragglers;
    }

    std::uint64_t
    totalNextQuantum() const
    {
        return snapshotCounters().totalNextQuantum;
    }

    /** Frames dropped by the fault layer (0 on a perfect network). */
    std::uint64_t
    totalDropped() const
    {
        return snapshotCounters().totalDropped;
    }

    /** Sum over stragglers of (actual - ideal) delivery ticks. */
    std::uint64_t
    totalLatenessTicks() const
    {
        return snapshotCounters().totalLatenessTicks;
    }

    std::size_t numNodes() const { return numNodes_; }
    const NicParams &nicParams() const { return params_.nic; }

    /** Every counter at its current value (folded, lanes, slots). */
    Counters snapshotCounters() const;

    /**
     * Absorb one peer's per-quantum counter advance (counters and the
     * scalar stats derived from them; statLateness_ is a distribution
     * and cannot absorb an aggregate — conservative runs never sample
     * it).
     */
    void absorbRemoteDeltas(const Counters &d);

    /** Reset all per-run state (switch ports, counters). */
    void reset() AQSIM_EXCLUDES(sharedMutex_);

    /**
     * Checkpoint support. Frames are routed to destination event
     * queues at injection time, so at a quantum boundary the
     * controller holds no in-flight frames of its own — only the
     * packet-id counter (1 + ids assigned), routing counters and
     * switch port occupancy.
     */
    void serialize(ckpt::Writer &w) const;

  private:
    /** Route a single unicast frame (fault decisions + delivery). */
    void routeOne(Packet &pkt) AQSIM_EXCLUDES(sharedMutex_);

    /** Time and place one delivery (a surviving frame or a copy). */
    void deliverOne(Packet &pkt, Tick extra_delay,
                    Tick not_before) AQSIM_EXCLUDES(sharedMutex_);

    std::size_t numNodes_;
    NetworkParams params_;
    /** Stateful switch models guard their own port state. */
    std::shared_ptr<SwitchModel> switch_;
    /** Bound between runs, never while frames are injected. */
    DeliveryScheduler *scheduler_ = nullptr;
    /**
     * Serializes the collaborators every source shares: the fault
     * injector (its totals and stats), the packet observers and the
     * lateness histogram. Never held around the counters.
     */
    mutable base::Mutex sharedMutex_;
    /** Pointer bound at cluster build; pointee shared by all sources. */
    fault::FaultInjector *faults_ AQSIM_PT_GUARDED_BY(sharedMutex_) =
        nullptr;
    /** Registered before the run; each call runs under sharedMutex_. */
    std::vector<PacketObserver> observers_;

    /**
     * Counters folded at quantum boundaries, absorbed from peers or
     * restored from a checkpoint. Written only while no node runs.
     */
    Counters folded_;
    /** One slot per source node; written only by that node's thread. */
    std::vector<Counters> slots_;
    /**
     * Ids handed out per source node in this run; written only by
     * that node's thread. Unlike the slots' idsAssigned it is never
     * folded away, so a packet id is unique for the whole run.
     */
    std::vector<std::uint64_t> packetIds_;
    /** One padded partial per fold lane, written by its owner. */
    std::vector<Counters> lanes_;

    stats::Group &statsGroup_;
    /** Sampled under sharedMutex_ (stragglers only). */
    stats::Log2Distribution &statLateness_;
    stats::Average &statQuantumPackets_;
};

} // namespace aqsim::net

#endif // AQSIM_NET_NETWORK_CONTROLLER_HH
