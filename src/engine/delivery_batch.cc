#include "engine/delivery_batch.hh"

#include <algorithm>

#include "base/logging.hh"
#include "check/invariants.hh"
#include "ckpt/ckpt_io.hh"
#include "engine/cluster.hh"
#include "engine/shard_exec.hh"
#include "node/node_simulator.hh"

namespace aqsim::engine
{

namespace
{

/** Map the engine's DeliveryKind onto the checker's mirror enum. */
check::DeliveryClass
deliveryClass(net::DeliveryKind kind)
{
    switch (kind) {
      case net::DeliveryKind::Straggler:
        return check::DeliveryClass::Straggler;
      case net::DeliveryKind::NextQuantum:
        return check::DeliveryClass::NextQuantum;
      case net::DeliveryKind::OnTime:
        break;
    }
    return check::DeliveryClass::OnTime;
}

/** Dispatch lookahead: far enough to cover the queue-touch latency,
 * near enough that the line is still resident when reached. */
constexpr std::size_t prefetchAhead = 4;

} // namespace

DeliveryBatch::DeliveryBatch(std::size_t num_nodes,
                             std::size_t num_shards, bool phase_stats)
    : shards_(num_shards),
      per_((num_nodes + num_shards - 1) / num_shards),
      subs_(num_shards * num_shards), rows_(num_shards),
      lanes_(num_shards), phases_(num_shards, phase_stats)
{
    AQSIM_ASSERT(num_nodes > 0 && num_shards > 0);
}

void
DeliveryBatch::beginQuantum(std::size_t s)
{
    Row &row = rows_[s];
    // clear() keeps capacity: the steady state reuses the same
    // payload storage every quantum.
    row.payload.clear();
    row.sorted = false;
}

void
DeliveryBatch::stage(const net::Packet &pkt, Tick when,
                     net::DeliveryKind kind)
{
    Row &row = rows_[shardOf(pkt.src)];
    AQSIM_ASSERT(!row.sorted);
    subRun(shardOf(pkt.src), shardOf(pkt.dst))
        .keys.push_back(sim::RunKey{
            when, pkt.departTick, pkt.src,
            static_cast<std::uint32_t>(row.payload.size())});
    row.payload.push_back(Staged{pkt, kind});
    ++row.staged;
}

void
DeliveryBatch::closeRun(std::size_t s)
{
    stats::PhaseTimer timer(phases_, s, stats::EnginePhase::Sort);
    // K independent sorts emit the same per-sub-run order a global
    // sort + stable partition by destination would (see file comment),
    // over strictly smaller inputs.
    for (std::size_t d = 0; d < shards_; ++d)
        sim::sortRun(subRun(s, d).keys);
    rows_[s].sorted = true;
}

std::size_t
DeliveryBatch::mergeShard(std::size_t d, Cluster &cluster)
{
    Lane &lane = lanes_[d];
    {
        stats::PhaseTimer timer(phases_, d,
                                stats::EnginePhase::Exchange);
        lane.views.resize(shards_);
        std::size_t total = 0;
        for (std::size_t s = 0; s < shards_; ++s) {
            AQSIM_ASSERT(rows_[s].sorted);
            const auto &keys = subRun(s, d).keys;
            lane.views[s] = sim::RunView{keys.data(), keys.size()};
            total += keys.size();
        }
        if (total == 0)
            return 0;
        lane.merger.reset(lane.views.data(), lane.views.size());
    }

    {
        stats::PhaseTimer timer(phases_, d, stats::EnginePhase::Merge);
        lane.items.clear();
        sim::RunKey prev{};
        sim::RunMerger::Item item;
        while (lane.merger.next(item)) {
            // Lanes only read the rows: every staged element belongs
            // to exactly one destination column, and its NIC copies
            // the frame out at dispatch.
            const Staged &staged = rows_[item.run].payload[item.key.idx];
            AQSIM_ASSERT(shardOf(staged.pkt.dst) == d);
            // Audit the merger's total order (when, src, departTick,
            // staging index); a duplicate frame's copies share a run,
            // so the index orders them the same at every shard count.
            const bool strict_ok =
                lane.items.empty() || prev.before(item.key);
            prev = item.key;
            lane.items.push_back(
                Resolved{&cluster.node(staged.pkt.dst), &staged.pkt,
                         item.key.when, staged.kind, strict_ok});
        }
    }

    auto &checker = check::InvariantChecker::instance();
    const std::size_t merged = lane.items.size();
    {
        stats::PhaseTimer timer(phases_, d,
                                stats::EnginePhase::Dispatch);
        Resolved *items = lane.items.data();
        for (std::size_t i = 0; i < merged; ++i) {
            // The destination queue and the frame in the source row
            // are the cold structures on this path; start their lines
            // ahead of the dispatch that needs them. (&queue() is
            // plain member address arithmetic.)
            if (i + prefetchAhead < merged) {
                __builtin_prefetch(
                    &items[i + prefetchAhead].node->queue());
                __builtin_prefetch(items[i + prefetchAhead].pkt);
            }
            Resolved &r = items[i];
            checker.onShardMerge(r.strictOk, deliveryClass(r.kind),
                                 r.when, r.node->queue().now());
            dispatchDelivery(*r.node, *r.pkt, r.when);
        }
        lane.items.clear();
        // Column d is consumed: clearing its keys is this lane's
        // single-writer handoff back to the key owners (capacity
        // kept for the next quantum).
        for (std::size_t s = 0; s < shards_; ++s)
            subRun(s, d).keys.clear();
    }
    lane.merged += merged;
    return merged;
}

std::size_t
DeliveryBatch::mergeInto(Cluster &cluster)
{
    // The engines close every run before merging; tolerate a missing
    // close (e.g. a unit test staging directly) so the merge is
    // self-contained.
    for (std::size_t s = 0; s < shards_; ++s) {
        if (!rows_[s].sorted)
            closeRun(s);
    }
    std::size_t merged = 0;
    for (std::size_t d = 0; d < shards_; ++d)
        merged += mergeShard(d, cluster);
    for (std::size_t s = 0; s < shards_; ++s)
        beginQuantum(s);
    return merged;
}

void
DeliveryBatch::injectRemote(std::size_t s, std::size_t d,
                            const net::Packet &pkt)
{
    Row &row = rows_[s];
    AQSIM_ASSERT(!row.sorted);
    AQSIM_ASSERT(shardOf(pkt.src) == s && shardOf(pkt.dst) == d);
    subRun(s, d).keys.push_back(sim::RunKey{
        pkt.idealArrival, pkt.departTick, pkt.src,
        static_cast<std::uint32_t>(row.payload.size())});
    row.payload.push_back(Staged{pkt, net::DeliveryKind::OnTime});
}

std::size_t
DeliveryBatch::pending() const
{
    std::size_t n = 0;
    for (const SubRun &sub : subs_)
        n += sub.keys.size();
    return n;
}

std::uint64_t
DeliveryBatch::totalStaged() const
{
    std::uint64_t n = 0;
    for (const Row &row : rows_)
        n += row.staged;
    return n;
}

std::uint64_t
DeliveryBatch::totalMerged() const
{
    std::uint64_t n = 0;
    for (const Lane &lane : lanes_)
        n += lane.merged;
    return n;
}

void
DeliveryBatch::serialize(ckpt::Writer &w) const
{
    w.u32(static_cast<std::uint32_t>(pending()));
    w.u64(totalStaged());
    w.u64(totalMerged());
}

} // namespace aqsim::engine
