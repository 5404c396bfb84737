/**
 * @file
 * K×K destination-sharded staging and exchange of cross-quantum
 * deliveries — the exchange half of the sharded event kernel
 * (engine/shard_exec.hh is the execution half; docs/performance.md
 * describes the design).
 *
 * During a quantum, every delivery that lands at or beyond the quantum
 * boundary — in a conservative run (Q <= T), *every* delivery — is
 * appended by the worker that owns the *source* node to the (source
 * shard, destination shard) sub-run: one writer per sub-run, no lock.
 * NodeMailbox keeps only the urgent path (deliveries inside the open
 * quantum, which must reach a live receiver mid-quantum).
 *
 * After the exchange barrier each worker drains the K sub-runs
 * destined for *its own* shard (mergeShard): a counting sort groups
 * the column by destination node, an insertion sort puts each node's
 * slice (usually 0–2 deliveries) in canonical (when, src, departTick,
 * staging index) order, and the slices are dispatched node-major
 * through the shard_exec seam. The cost is linear in the deliveries
 * plus the nodes they reach. Dispatch into a node touches only its
 * NIC and queue, so the order across nodes is free; the order within
 * each slice fixes every queue's sequence numbers — and with them the
 * RunResult, finalStateHash and checkpoint images — as a pure function
 * of the run contents, at every worker count. `depart` strictly
 * increases per source; the staging index only orders a fault-injected
 * duplicate after its original (same source, hence one row, staged in
 * routing order). The SequentialEngine's mergeInto is the K=1 case of
 * the same code, so cross-engine bit-identity comes from sharing it.
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
#include "stats/phase_timing.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::engine
{

class Cluster;

/** Sort key of one staged delivery (32-byte POD: the sorts move keys
 * and reach the payload, row[idx], only on dispatch). */
struct StagedKey
{
    Tick when;
    Tick depart;
    std::uint32_t src;
    /** Payload position in source row `row` (staging order). */
    std::uint32_t idx;
    std::uint32_t dst;
    std::uint32_t row;

    /** Canonical (when, src, depart) order; idx as a final tie. */
    bool
    before(const StagedKey &o) const
    {
        if (when != o.when)
            return when < o.when;
        if (src != o.src)
            return src < o.src;
        if (depart != o.depart)
            return depart < o.depart;
        return idx < o.idx;
    }
};

/**
 * K×K staged delivery sub-runs exchanged at quantum barriers.
 *
 * Concurrency contract (ownership by the worker-pool barrier
 * protocol, same discipline as NodeMailbox::scratch_ — no member is
 * locked):
 *
 *  - Sub-run (s, d) and payload row s are written only by the single
 *    thread executing shard s's nodes (stage), and only between its
 *    beginQuantum(s) and the exchange barrier. Row s holds the staged
 *    frames themselves, by value and contiguously.
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

    /**
     * Owner of destination shard @p d, after the exchange barrier:
     * drain column d (drainColumn) into its nodes through the
     * shard_exec seam, audit each delivery against the previous one
     * *to the same node* (ShardMergeOrder), and lower each receiving
     * node's @p wake entry (by node id; may be null) to its earliest
     * delivery. Runs concurrently with other shards' calls.
     *
     * @return number of deliveries merged into shard d.
     */
    std::size_t mergeShard(std::size_t d, Cluster &cluster,
                           Tick *wake = nullptr);

    /**
     * mergeShard's ordering kernel: sort column @p d node-major, each
     * node's slice canonical, call dispatch(const StagedKey &, const
     * net::Packet &, net::DeliveryKind) per delivery in that order,
     * and clear the column. @return number of deliveries drained.
     */
    template <typename Dispatch>
    std::size_t drainColumn(std::size_t d, Dispatch &&dispatch);

    /**
     * Single-threaded wrapper (SequentialEngine, tests): merge every
     * destination column and reset every row. Equivalent to one full
     * exchange at K=1. Leaves the batch empty.
     *
     * @return number of deliveries merged.
     */
    std::size_t mergeInto(Cluster &cluster);

    /**
     * Distributed-exchange seam: hand sub-run (s, d) to @p emit,
     * emit(const net::Packet &) per packet in staging order, for
     * shipping to another process; then drop its keys. The wire
     * carries no keys: each packet's (idealArrival, departTick, src)
     * rebuilds its key, and staging order its idx tie-break.
     * Conservative runs only (every delivery OnTime at its ideal
     * arrival; DistributedEngine enforces this).
     *
     * @return the number of packets emitted.
     */
    template <typename Emit>
    std::size_t takeRun(std::size_t s, std::size_t d, Emit &&emit);

    /**
     * Distributed-exchange seam: append one packet of a remote peer's
     * sub-run (s, d) — fed in the order takeRun emitted them — to
     * this batch, re-deriving its key from the packet fields. Does
     * not count toward totalStaged() (the staging peer already did).
     */
    void injectRemote(std::size_t s, std::size_t d,
                      const net::Packet &pkt);

    /** Earliest delivery tick staged from shard @p s since its
     * beginQuantum (maxTick if none); read by the row's writer. */
    Tick earliestStaged(std::size_t s) const { return rows_[s].earliest; }

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
     * and a distributed shard's progress flags). */
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

    /** What a checkpoint image records of a batch; a distributed run
     * sums it over its shards' batches. */
    struct Counts
    {
        /** pending() (0 at every boundary). */
        std::uint64_t pending = 0;
        std::uint64_t staged = 0;
        std::uint64_t merged = 0;
    };
    Counts
    counts() const
    {
        return {pending(), totalStaged(), totalMerged()};
    }

    /** Checkpoint section payload: the pending count, then the
     * lifetime counters. */
    static void serialize(ckpt::Writer &w, const Counts &counts);

    /** Accumulated per-phase wall-clock (all-zero unless enabled). */
    const stats::PhaseTimes &phases() const { return phases_; }

  private:
    /** Payload referenced by StagedKey::idx; read on dispatch. */
    struct Staged
    {
        net::Packet pkt;
        net::DeliveryKind kind;
    };

    /** Keys staged from one source shard to one destination shard,
     * padded so adjacent sub-runs' appends never share a line. */
    struct alignas(64) SubRun
    {
        std::vector<StagedKey> keys;
    };

    /** One source shard's payload row (single writer per quantum). */
    struct alignas(64) Row
    {
        std::vector<Staged> payload;
        /** Lifetime stage count (this shard's slot of totalStaged). */
        std::uint64_t staged = 0;
        /** Earliest tick staged since beginQuantum. */
        Tick earliest = maxTick;
    };

    /** One destination shard's sort scratch (single writer per
     * exchange; buffers reused across quanta). */
    struct alignas(64) Lane
    {
        /** By node of the shard: slice size, then slice end; all 0
         * between exchanges. */
        std::vector<std::uint32_t> count;
        /** Nodes with a slice, in first-seen order. */
        std::vector<std::uint32_t> touched;
        /** The column's keys, node-major, each slice sorted. */
        std::vector<StagedKey> sorted;
        /** Lifetime merge count (this shard's slot of totalMerged). */
        std::uint64_t merged = 0;
    };

    std::size_t shardOf(NodeId id) const { return id / per_; }

    SubRun &
    subRun(std::size_t s, std::size_t d)
    {
        return subs_[s * shards_ + d];
    }

    /** Count, scatter and slice-sort column @p d into its lane.
     * @return the column's size. */
    std::size_t orderColumn(std::size_t d);

    /** Clear column @p d's keys (the handoff back to their writers)
     * and account @p n merged deliveries. */
    void finishColumn(std::size_t d, std::size_t n);

    /** Append one delivery to row shardOf(pkt.src). */
    void append(const net::Packet &pkt, Tick when,
                net::DeliveryKind kind);

    /** Nodes per shard (ceil division, same map as shardRange). */
    std::size_t shards_;
    std::size_t per_;
    /** K×K sub-run key store, row-major (source-major). */
    std::vector<SubRun> subs_;
    std::vector<Row> rows_;
    std::vector<Lane> lanes_;
    stats::PhaseTimes phases_;
};

template <typename Dispatch>
std::size_t
DeliveryBatch::drainColumn(std::size_t d, Dispatch &&dispatch)
{
    const std::size_t n = orderColumn(d);
    if (n == 0)
        return 0;
    {
        stats::PhaseTimer timer(phases_, d,
                                stats::EnginePhase::Dispatch);
        for (const StagedKey &key : lanes_[d].sorted) {
            const Staged &staged = rows_[key.row].payload[key.idx];
            dispatch(key, staged.pkt, staged.kind);
        }
    }
    finishColumn(d, n);
    return n;
}

template <typename Emit>
std::size_t
DeliveryBatch::takeRun(std::size_t s, std::size_t d, Emit &&emit)
{
    SubRun &sub = subRun(s, d);
    for (const StagedKey &key : sub.keys) {
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
