/**
 * @file
 * SoA key store and deterministic k-way merge for sorted shard runs.
 *
 * The engines batch cross-quantum deliveries into (source shard,
 * destination shard) *sub-runs* during a quantum; after the exchange
 * barrier each destination shard k-way merges the column of sub-runs
 * addressed to it into its own canonical stream (see
 * docs/performance.md, "sharded kernel" and "parallel dispatch").
 * This header is the sim-layer kernel for that: a plain-old-data sort
 * key and a 4-ary-heap merger over already-sorted runs. One RunMerger
 * lives in each destination lane and is reset per quantum, so K
 * mergers run concurrently over disjoint columns.
 *
 * The key is structure-of-arrays on purpose: sorting a run and merging
 * k runs touch only these 24-byte PODs; the payload a key refers to
 * (packet pointer, delivery class — engine-layer data this module
 * never sees) is reached through RunKey::idx only when the merged
 * element is dispatched.
 *
 * Canonical order is (when, src, depart): `depart` strictly increases
 * per source, so the triple is a total order over real deliveries and
 * the merged stream is independent of shard count and thread
 * interleaving — the property the cross-engine bit-identity gate
 * rests on. `idx` breaks ties only for duplicate keys (an unjittered
 * fault-injected duplicate frame shares its original's triple). Both
 * copies come from one source, so one worker stages them into one
 * run, in routing order, at every shard count: the idx tie orders
 * them the same everywhere, and (when, src, depart, idx) is the total
 * order the runtime checker (ShardMergeOrder) audits.
 */

#ifndef AQSIM_SIM_RUN_MERGE_HH
#define AQSIM_SIM_RUN_MERGE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace aqsim::sim
{

/** POD sort/merge key of one staged element of a shard run. */
struct RunKey
{
    /** Delivery tick (primary order). */
    Tick when;
    /** Departure tick at the source (strictly increasing per src). */
    Tick depart;
    /** Source node id. */
    std::uint32_t src;
    /** Position of the payload in the staging run (dispatch handle). */
    std::uint32_t idx;

    /** Canonical (when, src, depart) order; idx as a final tie. */
    bool
    before(const RunKey &o) const
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

/** Sort a staged run into canonical order (one sort per shard per
 * quantum, replacing the old per-receiver sort-on-drain). */
void sortRun(std::vector<RunKey> &keys);

/** Borrowed view of one sorted run. */
struct RunView
{
    const RunKey *keys = nullptr;
    std::size_t count = 0;
};

/**
 * Deterministic k-way merge over sorted runs.
 *
 * A 4-ary min-heap of run cursors keyed on each run's head; equal keys
 * (impossible for engine runs, where one source's keys all live in one
 * run) fall back to run index, so the output order is a pure function
 * of the run contents. reset()/next() reuse the cursor vector, so
 * steady state allocates nothing.
 */
class RunMerger
{
  public:
    /** One merged element: the key plus the run it came from. */
    struct Item
    {
        RunKey key;
        std::uint32_t run;
    };

    /** Begin a merge over @p count runs (empty runs are skipped).
     * The views must stay valid until the merge is drained. */
    void reset(const RunView *runs, std::size_t count);

    /** Pop the next element in canonical order.
     * @return false when every run is exhausted. */
    bool next(Item &out);

    /** Elements remaining across all runs (cheap; for asserts). */
    std::size_t remaining() const { return remaining_; }

  private:
    struct Cursor
    {
        const RunKey *cur;
        const RunKey *end;
        std::uint32_t run;
    };

    static bool
    cursorBefore(const Cursor &a, const Cursor &b)
    {
        if (a.cur->before(*b.cur))
            return true;
        if (b.cur->before(*a.cur))
            return false;
        return a.run < b.run;
    }

    void siftDown(std::size_t i);

    std::vector<Cursor> heap_;
    std::size_t remaining_ = 0;
};

} // namespace aqsim::sim

#endif // AQSIM_SIM_RUN_MERGE_HH
