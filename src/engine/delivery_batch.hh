/**
 * @file
 * K×K destination-sharded staging and exchange of cross-quantum
 * deliveries — the engine half of the sharded event kernel
 * (sim/run_merge.hh is the sim half; docs/performance.md describes
 * the design).
 *
 * During a quantum, every delivery that lands at or beyond the quantum
 * boundary — in a conservative run (Q <= T), that is *every* delivery —
 * is staged by the worker that owns the *source* node. Because the
 * destination is known at stage time, the key goes straight into the
 * (source shard, destination shard) sub-run: K sorted sub-runs per
 * source shard, each with exactly one writer per quantum, so staging
 * stays a plain vector append with no per-message locking. The old
 * NodeMailbox keeps only the urgent path (stragglers and on-time
 * deliveries inside the open quantum, which must reach a live
 * receiver mid-quantum).
 *
 * At quantum close each worker sorts its K sub-runs (closeRun); after
 * an all-worker exchange barrier each worker k-way merges the K
 * sub-runs destined for *its own* shard (mergeShard) and dispatches
 * them into its own nodes' queues through the shard_exec seam — in
 * parallel, with no cross-shard queue mutation and no global stream
 * ever materialized. Every delivery for a destination node flows
 * through that node's single column merger in canonical
 * (when, src, departTick) order, so the per-queue schedule — and with
 * it the full RunResult, finalStateHash and checkpoint images — is a
 * pure function of the run contents, independent of worker count and
 * thread interleaving. Both engines dispatch through this class (the
 * SequentialEngine's mergeInto is the K=1 degenerate case), so
 * cross-engine bit-identity falls out of sharing the code path rather
 * than of two implementations agreeing.
 *
 * Sorting each (s, d) sub-run independently emits exactly the order a
 * global sort of shard s's run followed by a stable partition by
 * destination would: the idx tie-break *is* staging order, and
 * duplicate keys share src and dst, hence a sub-run.
 */

#ifndef AQSIM_ENGINE_DELIVERY_BATCH_HH
#define AQSIM_ENGINE_DELIVERY_BATCH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "net/network_controller.hh"
#include "net/packet.hh"
#include "sim/run_merge.hh"
#include "stats/phase_timing.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::node
{
class NodeSimulator;
} // namespace aqsim::node

namespace aqsim::engine
{

class Cluster;

/**
 * K×K staged delivery sub-runs exchanged at quantum barriers.
 *
 * Concurrency contract (ownership by the worker-pool barrier
 * protocol, same discipline as NodeMailbox::scratch_ — no member is
 * locked):
 *
 *  - Sub-run (s, d) and payload row s are written only by the single
 *    thread executing shard s's nodes (stage/closeRun), and only
 *    between its beginQuantum(s) and the exchange barrier. Row s
 *    holds the staged frames themselves, by value and contiguously.
 *  - After every worker reached the exchange barrier, column d —
 *    sub-runs (0..K-1, d) and its lane scratch — is read and cleared
 *    only by shard d's worker (mergeShard). The lane only *reads*
 *    the rows: each destination NIC copies its frames into its own
 *    receive pool, so no line of a sender's row is written by a
 *    receiving worker.
 *  - Payload row s is cleared by its owner at the *next*
 *    beginQuantum(s); the quantum-end and quantum-start crossings
 *    order that after every column's merge of the previous quantum.
 *
 * The WorkerPool's one WorkerBarrier, crossed at quantum start, at
 * the exchange and at quantum end, publishes all cross-thread
 * handoffs (release/acquire on its epoch).
 */
class DeliveryBatch
{
  public:
    /**
     * @param num_nodes cluster size (defines the shard map)
     * @param num_shards worker count K; sub-runs are keyed by the
     *        contiguous ceil(num_nodes/K) shards of the source and
     *        destination nodes, matching WorkerPool::shardRange.
     * @param phase_stats measure per-phase wall-clock (phases());
     *        off by default so the hot path makes no clock calls.
     */
    DeliveryBatch(std::size_t num_nodes, std::size_t num_shards,
                  bool phase_stats = false);

    /**
     * Owner of shard @p s = shardOf(pkt.src): reset row s for a new
     * quantum (drops the previous quantum's dispatched payload,
     * keeping capacity). First per-quantum step of the owning worker.
     */
    void beginQuantum(std::size_t s);

    /**
     * Stage a delivery of a copy of @p pkt at @p when (>= the quantum
     * boundary) into the (source shard, destination shard) sub-run.
     * Called by the source shard's owning worker only (via the
     * controller's placement path).
     */
    void stage(const net::Packet &pkt, Tick when,
               net::DeliveryKind kind);

    /** Sort shard @p s's K destination sub-runs into canonical order;
     * called by the owning worker as the last step before the
     * exchange barrier. */
    void closeRun(std::size_t s);

    /**
     * Owner of destination shard @p d, after the exchange barrier:
     * k-way merge the K sorted sub-runs destined for shard d in
     * canonical (when, src, departTick) order, dispatch each packet
     * into its destination node through the shard_exec seam, report
     * the merge order to the invariant checker, and clear column d's
     * keys. Runs concurrently with other shards' mergeShard calls.
     *
     * @return number of deliveries merged into shard d.
     */
    std::size_t mergeShard(std::size_t d, Cluster &cluster);

    /**
     * Single-threaded wrapper (SequentialEngine, tests): close any
     * unsorted rows, merge every destination column, reset every row.
     * Equivalent to one full exchange at K=1. Leaves the batch empty.
     *
     * @return number of deliveries merged.
     */
    std::size_t mergeInto(Cluster &cluster);

    /**
     * Distributed-exchange seam: hand sub-run (s, d) to @p emit as an
     * ordered packet sequence, emit(const net::Packet &) once per
     * packet, for shipping to another process; then drop its keys.
     * The sub-run must be closed (sorted); the keys are not shipped —
     * each packet's own (idealArrival, departTick, src) fields
     * reconstruct them exactly on the receiving side, so the wire
     * carries no key material. Conservative runs only (every staged
     * delivery is OnTime at its ideal arrival; DistributedEngine
     * enforces this).
     *
     * @return the number of packets emitted.
     */
    template <typename Emit>
    std::size_t takeRun(std::size_t s, std::size_t d, Emit &&emit);

    /**
     * Distributed-exchange seam: append one packet of a remote peer's
     * sub-run (s, d) — fed in canonical (when, src, departTick) order
     * as takeRun emitted them — to this batch, re-deriving its key
     * from the packet fields. Does not count toward totalStaged()
     * (the staging peer already did); call closeRun(s) after the last
     * one so mergeShard sees the row as sorted.
     */
    void injectRemote(std::size_t s, std::size_t d,
                      const net::Packet &pkt);

    /** Deliveries staged but not yet merged (0 at every boundary). */
    std::size_t pending() const;

    /** Lifetime counters: deterministic in any run where delivery
     * classification is deterministic, so they may enter checkpoint
     * images (serialize). Summed over the per-shard slots; call with
     * workers parked. */
    std::uint64_t totalStaged() const;
    std::uint64_t totalMerged() const;

    std::size_t numShards() const { return shards_; }

    /** Keys currently staged from shard @p s to shard @p d (tests,
     * and a distributed peer's check for a pending self-run). */
    std::size_t
    stagedBetween(std::size_t s, std::size_t d) const
    {
        return subs_[s * shards_ + d].keys.size();
    }

    /** Capacity of sub-run (s, d)'s key buffer — evidence that the
     * steady state reuses buffers instead of reallocating (tests). */
    std::size_t
    subRunCapacity(std::size_t s, std::size_t d) const
    {
        return subs_[s * shards_ + d].keys.capacity();
    }

    /** Checkpoint section payload: pending count (must be 0 at a
     * boundary) plus the lifetime counters. */
    void serialize(ckpt::Writer &w) const;

    /** Accumulated per-phase wall-clock (all-zero unless enabled). */
    const stats::PhaseTimes &phases() const { return phases_; }

  private:
    /** Payload referenced by sim::RunKey::idx; read on dispatch. */
    struct Staged
    {
        net::Packet pkt;
        net::DeliveryKind kind;
    };

    /** Keys staged from one source shard to one destination shard,
     * padded so adjacent sub-runs' appends never share a line. */
    struct alignas(64) SubRun
    {
        std::vector<sim::RunKey> keys;
    };

    /** One source shard's payload row (single writer per quantum). */
    struct alignas(64) Row
    {
        std::vector<Staged> payload;
        /** Lifetime stage count (this shard's slot of totalStaged). */
        std::uint64_t staged = 0;
        bool sorted = false;
    };

    /** A merged delivery resolved to its destination, staged in the
     * lane scratch so dispatch can prefetch ahead. */
    struct Resolved
    {
        node::NodeSimulator *node;
        /** The frame in its source row (read-only for the lane). */
        const net::Packet *pkt;
        Tick when;
        net::DeliveryKind kind;
        /** Canonical order vs the previous merged key held. */
        bool strictOk;
    };

    /** One destination shard's merge scratch (single writer per
     * exchange; buffers reused across quanta). */
    struct alignas(64) Lane
    {
        sim::RunMerger merger;
        std::vector<sim::RunView> views;
        std::vector<Resolved> items;
        /** Lifetime merge count (this shard's slot of totalMerged). */
        std::uint64_t merged = 0;
    };

    std::size_t shardOf(NodeId id) const { return id / per_; }

    SubRun &
    subRun(std::size_t s, std::size_t d)
    {
        return subs_[s * shards_ + d];
    }

    /** Nodes per shard (ceil division, same map as shardRange). */
    std::size_t shards_;
    std::size_t per_;
    /** K×K sub-run key store, row-major (source-major). */
    std::vector<SubRun> subs_;
    std::vector<Row> rows_;
    std::vector<Lane> lanes_;
    stats::PhaseTimes phases_;
};

template <typename Emit>
std::size_t
DeliveryBatch::takeRun(std::size_t s, std::size_t d, Emit &&emit)
{
    AQSIM_ASSERT(rows_[s].sorted);
    SubRun &sub = subRun(s, d);
    for (const sim::RunKey &key : sub.keys) {
        const Staged &staged = rows_[s].payload[key.idx];
        AQSIM_ASSERT(key.when == staged.pkt.idealArrival);
        emit(staged.pkt);
    }
    const std::size_t n = sub.keys.size();
    // The column is consumed locally; the receiving process merges it.
    sub.keys.clear();
    return n;
}

} // namespace aqsim::engine

#endif // AQSIM_ENGINE_DELIVERY_BATCH_HH
