/**
 * @file
 * Per-node discrete-event kernel.
 *
 * Each simulated node owns one EventQueue. Events are callbacks ordered
 * by (tick, priority, insertion sequence); the sequence number makes
 * same-tick ordering deterministic, which the reproducibility contract
 * of the library depends on.
 *
 * The queue deliberately exposes single-step execution (runOne) in
 * addition to runUntil: the SequentialEngine interleaves events from
 * many nodes in host-time order, so it must be able to advance a node
 * one event at a time and inspect the next pending tick.
 *
 * Internals are built for throughput (this is the hottest loop in the
 * simulator — see docs/performance.md):
 *
 *  - a node's hot event state lives in the queue object itself (and
 *    the queue lives in its NodeSimulator, built in the cluster's
 *    block beside the node's endpoint and program frame): the
 *    first 4 heap entries and the first 4 event records, sized from
 *    the high-water marks of real runs (at most 2–5 pending events
 *    per node), so scheduling and firing an event touch no other
 *    heap block; a busier queue spills the heap to one growing block
 *    and adds 8-record slab chunks,
 *  - event records live in that slab with a free list, so
 *    steady-state scheduling performs no allocations; callbacks are
 *    stored in the record via SmallCallback (small-buffer optimized),
 *  - EventId handles carry a slot index plus a generation counter, so
 *    deschedule() is an O(1) slab probe instead of a map lookup,
 *  - ordering uses a 4-ary min-heap in structure-of-arrays layout:
 *    sift comparisons touch only a contiguous array of 24-byte
 *    (tick, priority, seq) keys, while the slab slot/generation pair —
 *    needed only on dispatch and stale-pruning — lives in a parallel
 *    array; cancelled entries are skipped lazily at the head, and a
 *    count of them lets a queue with none skip the record probe.
 */

#ifndef AQSIM_SIM_EVENT_QUEUE_HH
#define AQSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/inline_vec.hh"
#include "base/types.hh"
#include "sim/small_callback.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::sim
{

/** Scheduling priorities for same-tick ordering (lower runs first). */
enum class Priority : int
{
    /** Packet delivery from the network; runs before app reactions. */
    Delivery = -10,
    /** Default for application and device events. */
    Default = 0,
    /** Bookkeeping that must observe a completed tick. */
    Late = 10,
};

/**
 * A deterministic, cancellable discrete-event queue for one node.
 */
class EventQueue
{
  public:
    /**
     * Opaque handle for cancelling a scheduled event: the record's
     * slab slot in the high 32 bits, its generation in the low 32.
     * Generations start at 1, so no live handle is ever 0.
     */
    using EventId = std::uint64_t;

    /** Sentinel returned when no event is scheduled. */
    static constexpr EventId invalidEvent = 0;

    /** Empty, at tick 0; out of line, so value-initialization never
     * zero-fills the inline heap and records. */
    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule a callable at an absolute tick. The callable is
     * constructed directly into a pooled event record; anything up to
     * SmallCallback::inlineCapacity bytes avoids the heap entirely.
     *
     * @param when absolute tick, must be >= now()
     * @param fn callable to run
     * @param prio same-tick ordering class
     * @return handle usable with deschedule()
     */
    template <typename F>
    EventId
    schedule(Tick when, F &&fn, Priority prio = Priority::Default)
    {
        scheduleChecks(when);
        const std::uint32_t slot = allocSlot();
        Record &rec = *recordAt(slot);
        rec.cb.emplace(std::forward<F>(fn));
        pushHeap(HeapKey{when, static_cast<std::int32_t>(prio),
                         nextSeq_++},
                 HeapRef{slot, rec.gen});
        ++numScheduled_;
        ++numLive_;
        return (static_cast<EventId>(slot) << 32) | rec.gen;
    }

    /** Schedule a callable @p delta ticks after now(). */
    template <typename F>
    EventId
    scheduleIn(Tick delta, F &&fn, Priority prio = Priority::Default)
    {
        return schedule(now_ + delta, std::forward<F>(fn), prio);
    }

    /**
     * Cancel a previously scheduled event. O(1): bumps the record's
     * generation (invalidating the handle and the heap entry, which is
     * dropped lazily) and recycles the slot.
     *
     * @return true if the event was pending and is now cancelled.
     */
    bool deschedule(EventId id);

    /** @return the current simulated time of this node. */
    Tick now() const { return now_; }

    /** @return true if no live events are pending. */
    bool empty() const;

    /** @return tick of the earliest pending event, or maxTick. */
    Tick nextTick() const;

    /**
     * Execute the earliest pending event, advancing now() to its tick.
     * @return true if an event ran, false if the queue was empty.
     */
    bool runOne();

    /**
     * Single-peek step: run the earliest event if its tick is before
     * @p limit (one stale-prune, where nextTick() + runOne() make two).
     * @return true if an event ran.
     */
    bool
    runBefore(Tick limit)
    {
        pruneStale();
        if (keys_.empty() || keys_.front().when >= limit)
            return false;
        fireTop();
        return true;
    }

    /**
     * Run every event with tick <= limit, then advance now() to limit.
     * Events scheduled during execution are honored if they fall within
     * the limit.
     *
     * @return the number of events executed.
     */
    std::size_t runUntil(Tick limit);

    /**
     * Fast-forward the clock without running events; used by engines to
     * align a node to a quantum boundary. All pending events must lie at
     * or beyond @p when.
     */
    void fastForwardTo(Tick when);

    /** Lifetime counters for stats and tests. */
    std::uint64_t numScheduled() const { return numScheduled_; }
    std::uint64_t numExecuted() const { return numExecuted_; }
    std::uint64_t numCancelled() const { return numCancelled_; }

    /** @return number of live (non-cancelled) pending events. */
    std::size_t pendingCount() const { return numLive_; }

    /**
     * Checkpoint support: write the queue's architectural state —
     * clock, sequence counter, lifetime counters and every live
     * pending entry as (tick, priority, seq) in deterministic order.
     * Callbacks are code, not data; on restore they are reconstructed
     * by deterministic replay and this serialization is what the
     * divergence checker compares (docs/checkpoint-restore.md).
     */
    void serialize(ckpt::Writer &w) const;

  private:
    /** One pooled event record; records never move once allocated. */
    struct Record
    {
        SmallCallback cb;
        /**
         * Bumped whenever the record is consumed (run or cancelled),
         * so stale EventIds and heap entries are rejected by a single
         * compare. Never 0; wrap-around aliasing would need 2^32
         * reuses of one slot while a stale handle is still held.
         */
        std::uint32_t gen = 1;
        /** Free-list link (slot index) while the record is free. */
        std::uint32_t nextFree = 0;
    };

    /**
     * Structure-of-arrays heap entry: the sort key every sift
     * comparison touches lives in keys_, packed 24 bytes apiece, while
     * the slab reference needed only on dispatch/prune lives in the
     * parallel refs_ array. Both arrays move in lockstep; index i of
     * one always pairs with index i of the other.
     */
    struct HeapKey
    {
        Tick when;
        std::int32_t prio;
        std::uint64_t seq;

        /** Deterministic total order: (when, prio, seq). */
        bool
        before(const HeapKey &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (prio != o.prio)
                return prio < o.prio;
            return seq < o.seq;
        }
    };

    /** Cold half of a heap entry; the callback stays in the slab. */
    struct HeapRef
    {
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /**
     * Slots 0..inlineRecords-1 live in the queue object; slots beyond
     * live in 8-record chunks, each allocated when the free list runs
     * dry. Every record is stable in memory.
     */
    static constexpr std::uint32_t inlineRecords = 4;
    static constexpr std::uint32_t chunkShift = 3;
    static constexpr std::uint32_t chunkSize = 1u << chunkShift;
    static constexpr std::uint32_t noFreeSlot = 0xffffffffu;
    /** Heap entries held inside the object before keys_/refs_ spill. */
    static constexpr std::uint32_t inlineHeap = 4;

    Record *
    recordAt(std::uint32_t slot) const
    {
        if (slot < inlineRecords)
            return &firstRecords_[slot];
        const std::uint32_t i = slot - inlineRecords;
        return &chunks_[i >> chunkShift][i & (chunkSize - 1)];
    }

    /** Invariant hook + past-scheduling assert (out of line). */
    void scheduleChecks(Tick when);

    std::uint32_t allocSlot();
    void addChunk();
    void freeSlot(std::uint32_t slot);

    void pushHeap(const HeapKey &key, const HeapRef &ref);
    /** Remove the head entry, restoring the 4-ary heap order. */
    void popHeapTop() const;
    /** Drop cancelled (stale-generation) entries from the head. */
    void
    pruneStale() const
    {
        if (stale_ != 0)
            dropStaleHeads();
    }
    void dropStaleHeads() const;
    /** Pop the (live) head entry and execute its callback. */
    void fireTop();

    /** Heap storage (SoA); mutable so const peeks can prune lazily. */
    mutable base::InlineVec<HeapKey, inlineHeap> keys_;
    mutable base::InlineVec<HeapRef, inlineHeap> refs_;
    /** Cancelled entries still in the heap; 0 skips the prune probe. */
    mutable std::uint32_t stale_ = 0;
    std::uint32_t freeHead_ = 0;
    std::uint32_t capacity_ = inlineRecords;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t numLive_ = 0;
    std::uint64_t numScheduled_ = 0;
    std::uint64_t numExecuted_ = 0;
    std::uint64_t numCancelled_ = 0;

    /** Overflow slab chunks, beyond the inline records. */
    std::vector<std::unique_ptr<Record[]>> chunks_;
    /** The first slab records; mutable like the heap, for recordAt. */
    mutable Record firstRecords_[inlineRecords];
};

} // namespace aqsim::sim

#endif // AQSIM_SIM_EVENT_QUEUE_HH
