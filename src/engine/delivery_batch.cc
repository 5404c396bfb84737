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

} // namespace

DeliveryBatch::DeliveryBatch(std::size_t num_nodes,
                             std::size_t num_shards, bool phase_stats)
    : shards_(num_shards),
      per_((num_nodes + num_shards - 1) / num_shards),
      subs_(num_shards * num_shards), rows_(num_shards),
      lanes_(num_shards), phases_(num_shards, phase_stats)
{
    AQSIM_ASSERT(num_nodes > 0 && num_shards > 0);
    for (Lane &lane : lanes_)
        lane.count.assign(per_, 0);
}

void
DeliveryBatch::beginQuantum(std::size_t s)
{
    // clear() keeps capacity: the steady state reuses the same
    // payload storage every quantum.
    rows_[s].payload.clear();
    rows_[s].earliest = maxTick;
}

void
DeliveryBatch::append(const net::Packet &pkt, Tick when,
                      net::DeliveryKind kind)
{
    const std::size_t s = shardOf(pkt.src);
    Row &row = rows_[s];
    subRun(s, shardOf(pkt.dst))
        .keys.push_back(StagedKey{
            when, pkt.departTick, pkt.src,
            static_cast<std::uint32_t>(row.payload.size()), pkt.dst,
            static_cast<std::uint32_t>(s)});
    row.payload.push_back(Staged{pkt, kind});
}

void
DeliveryBatch::stage(const net::Packet &pkt, Tick when,
                     net::DeliveryKind kind)
{
    append(pkt, when, kind);
    Row &row = rows_[shardOf(pkt.src)];
    ++row.staged;
    row.earliest = std::min(row.earliest, when);
}

std::size_t
DeliveryBatch::orderColumn(std::size_t d)
{
    Lane &lane = lanes_[d];
    const std::size_t first = d * per_;
    std::size_t total = 0;
    {
        // Count each node's slice; only nodes that have one are
        // remembered and touched below.
        stats::PhaseTimer timer(phases_, d,
                                stats::EnginePhase::Exchange);
        lane.touched.clear();
        for (std::size_t s = 0; s < shards_; ++s) {
            for (const StagedKey &key : subRun(s, d).keys) {
                AQSIM_ASSERT(shardOf(key.dst) == d);
                if (lane.count[key.dst - first]++ == 0)
                    lane.touched.push_back(
                        static_cast<std::uint32_t>(key.dst - first));
            }
            total += subRun(s, d).keys.size();
        }
        if (total == 0)
            return 0;
    }
    {
        // Scatter node-major (count becomes each slice's end).
        stats::PhaseTimer timer(phases_, d, stats::EnginePhase::Sort);
        std::uint32_t offset = 0;
        for (const std::uint32_t t : lane.touched) {
            const std::uint32_t size = lane.count[t];
            lane.count[t] = offset;
            offset += size;
        }
        lane.sorted.resize(total);
        for (std::size_t s = 0; s < shards_; ++s)
            for (const StagedKey &key : subRun(s, d).keys)
                lane.sorted[lane.count[key.dst - first]++] = key;
    }
    {
        // Insertion-sort each slice (a handful of keys, a source's
        // in departure order already) into canonical order.
        stats::PhaseTimer timer(phases_, d, stats::EnginePhase::Merge);
        StagedKey *keys = lane.sorted.data();
        std::uint32_t begin = 0;
        for (const std::uint32_t t : lane.touched) {
            const std::uint32_t end = lane.count[t];
            lane.count[t] = 0;
            for (std::uint32_t i = begin + 1; i < end; ++i) {
                const StagedKey key = keys[i];
                std::uint32_t j = i;
                for (; j > begin && key.before(keys[j - 1]); --j)
                    keys[j] = keys[j - 1];
                keys[j] = key;
            }
            begin = end;
        }
    }
    return total;
}

void
DeliveryBatch::finishColumn(std::size_t d, std::size_t n)
{
    // Column d is consumed: clearing its keys is this lane's
    // single-writer handoff back to the key owners (capacity kept for
    // the next quantum).
    for (std::size_t s = 0; s < shards_; ++s)
        subRun(s, d).keys.clear();
    lanes_[d].merged += n;
}

std::size_t
DeliveryBatch::mergeShard(std::size_t d, Cluster &cluster, Tick *wake)
{
    auto &checker = check::InvariantChecker::instance();
    const StagedKey *prev = nullptr;
    node::NodeSimulator *node = nullptr;
    return drainColumn(d, [&](const StagedKey &key,
                              const net::Packet &pkt,
                              net::DeliveryKind kind) {
        // Slices are node-major: a new destination starts a new
        // canonical sequence, audited against its own predecessor.
        const bool same_node = prev && prev->dst == key.dst;
        if (!same_node) {
            node = &cluster.node(key.dst);
            // The slice is sorted, so its first key is its earliest.
            if (wake && key.when < wake[key.dst])
                wake[key.dst] = key.when;
        }
        checker.onShardMerge(!same_node || prev->before(key),
                             deliveryClass(kind), key.when,
                             node->queue().now());
        dispatchDelivery(*node, pkt, key.when);
        prev = &key;
    });
}

std::size_t
DeliveryBatch::mergeInto(Cluster &cluster)
{
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
    AQSIM_ASSERT(shardOf(pkt.src) == s && shardOf(pkt.dst) == d);
    append(pkt, pkt.idealArrival, net::DeliveryKind::OnTime);
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
DeliveryBatch::serialize(ckpt::Writer &w, const Counts &counts)
{
    w.u32(static_cast<std::uint32_t>(counts.pending));
    w.u64(counts.staged);
    w.u64(counts.merged);
}

} // namespace aqsim::engine
