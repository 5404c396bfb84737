/**
 * @file
 * Deterministic fault injection between the NICs and the switch.
 *
 * The injector sits inside the NetworkController's routing path and
 * perturbs traffic the way a lossy physical network would: per-link
 * probabilistic drop, duplication, corruption (a flag on the Packet,
 * the payload identity is untouched), reordering jitter, plus
 * *scheduled* outages — link-down windows and node crash/pause windows
 * evaluated against the frame's departure tick.
 *
 * Determinism contract: every decision draws from a per-link PRNG
 * stream forked from one seed. A source NIC serializes its frames in
 * departTick order and the controller routes under one mutex, so the
 * per-link decision sequence is a pure function of the per-link frame
 * sequence — independent of engine choice, worker count, or thread
 * interleaving. Conservative runs with faults enabled therefore stay
 * bit-identical across SequentialEngine and WorkerPool at any worker
 * count (see docs/fault-injection.md).
 */

#ifndef AQSIM_FAULT_FAULT_INJECTOR_HH
#define AQSIM_FAULT_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "stats/stats.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::fault
{

/** A scheduled outage of the (bidirectional) link between two nodes. */
struct LinkWindow
{
    NodeId a = 0;
    NodeId b = 0;
    /** Frames departing in [from, to) are affected. */
    Tick from = 0;
    Tick to = maxTick;
};

/** A scheduled per-node outage (crash) or stall (pause) window. */
struct NodeWindow
{
    NodeId node = 0;
    /** Frames departing in [from, to) are affected. */
    Tick from = 0;
    Tick to = maxTick;
};

/**
 * A scheduled loss burst: frames (on every link) departing in
 * [from, to) are dropped with an extra probability on top of the
 * steady-state dropRate — a congestion spike or a wobbling cable,
 * scheduled in simulated time. The burst draw happens on the per-link
 * stream, conditioned only on departTick, which is itself part of the
 * per-link frame sequence — so the sequence-purity determinism
 * contract is preserved.
 */
struct LossBurst
{
    /** Frames departing in [from, to) are affected. */
    Tick from = 0;
    Tick to = maxTick;
    /** Drop probability inside the window. */
    double rate = 0.0;
};

/** Configuration of the fault model (all links share the same rates). */
struct FaultParams
{
    /** Probability a frame is silently dropped on the wire. */
    double dropRate = 0.0;
    /** Probability a frame is delivered twice. */
    double duplicateRate = 0.0;
    /** Probability a frame arrives with its corrupted flag set. */
    double corruptRate = 0.0;
    /** Probability a frame is delayed by a random jitter. */
    double jitterRate = 0.0;
    /** Maximum added delay for a jittered frame, in ticks. */
    Tick maxJitterTicks = 0;

    /** Links that are down (frames dropped) during their windows. */
    std::vector<LinkWindow> linkDown;
    /** Crashed nodes: frames to or from them are dropped. */
    std::vector<NodeWindow> nodeCrash;
    /** Paused nodes: frames to or from them are held to window end. */
    std::vector<NodeWindow> nodePause;
    /** Scheduled windows of elevated drop probability. */
    std::vector<LossBurst> lossBursts;

    /** @return true if any fault source is configured. */
    bool anyEnabled() const;
};

/**
 * Per-link deterministic fault decisions; one instance per cluster,
 * owned by the Cluster and consulted by the NetworkController while it
 * holds its shared-collaborator mutex (so decide() needs no locking
 * of its own).
 */
class FaultInjector
{
  public:
    /** What to do with one frame (and its optional duplicate). */
    struct Decision
    {
        bool drop = false;
        bool corrupt = false;
        bool duplicate = false;
        /** Extra arrival delay of the primary copy. */
        Tick jitter = 0;
        /** Extra arrival delay of the duplicate copy. */
        Tick duplicateJitter = 0;
        /** Earliest permitted arrival tick (node-pause hold). */
        Tick notBefore = 0;
    };

    /**
     * @param num_nodes cluster size (validates window node ids)
     * @param params fault model configuration (validated here)
     * @param rng parent stream; one child is forked per directed link
     * @param stats_parent group under which "faults" registers
     */
    FaultInjector(std::size_t num_nodes, FaultParams params, Rng rng,
                  stats::Group &stats_parent);

    /**
     * Decide the fate of one frame src -> dst departing at
     * @p depart_tick. Consumes randomness from the (src,dst) stream
     * only. Caller must serialize calls (the controller's
     * shared-collaborator mutex).
     */
    Decision decide(NodeId src, NodeId dst, Tick depart_tick);

    /** Restore the initial stream states so reruns are identical. */
    void reset();

    /**
     * Checkpoint support (Cluster writes the fault section): the
     * stream states of every directed link whose *source* lies in
     * [begin, end) — a contiguous slice of the flat link array, since
     * linkIndex is source-major. Only the source node's process ever
     * draws from these streams, so a distributed run's slices, joined
     * in node order, are the whole injector's streams byte for byte.
     * The scheduled windows live in params_ (configuration, covered
     * by the config fingerprint).
     */
    void serializeLinkRange(ckpt::Writer &w, NodeId begin,
                            NodeId end) const;

    const FaultParams &params() const { return params_; }

    /** The four lifetime counters: dropped, duplicated, corrupted,
     * delayed. */
    using Totals = std::array<std::uint64_t, 4>;
    Totals
    totals() const
    {
        return {totalDropped_, totalDuplicated_, totalCorrupted_,
                totalDelayed_};
    }

    /** Take the counters summed over a distributed run's shards, for
     * its stats dump. */
    void adoptTotals(const Totals &totals);

    /** Lifetime counters; the faults.* stats are views of them. */
    std::uint64_t totalDropped() const { return totalDropped_; }
    std::uint64_t totalDuplicated() const { return totalDuplicated_; }
    std::uint64_t totalCorrupted() const { return totalCorrupted_; }
    std::uint64_t totalDelayed() const { return totalDelayed_; }

  private:
    /** Flat directed-link index. */
    std::size_t
    linkIndex(NodeId src, NodeId dst) const
    {
        return static_cast<std::size_t>(src) * numNodes_ + dst;
    }

    /** Re-fork all per-link streams from the stored parent state. */
    void forkStreams();

    /** @return true if depart_tick falls in a down/crash window. */
    bool outage(NodeId src, NodeId dst, Tick depart_tick) const;

    std::size_t numNodes_;
    FaultParams params_;
    /** Pristine parent copy; forkStreams() always starts from here. */
    const Rng parentRng_;
    std::vector<Rng> linkRng_;

    std::uint64_t totalDropped_ = 0;
    std::uint64_t totalDuplicated_ = 0;
    std::uint64_t totalCorrupted_ = 0;
    std::uint64_t totalDelayed_ = 0;
};

} // namespace aqsim::fault

#endif // AQSIM_FAULT_FAULT_INJECTOR_HH
