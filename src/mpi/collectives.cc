#include "mpi/collectives.hh"

#include <utility>

#include "base/logging.hh"

namespace aqsim::mpi
{

namespace
{

/** Largest power of two <= n. */
std::size_t
floorPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p * 2 <= n)
        p *= 2;
    return p;
}

} // namespace

sim::Process
sendrecv(Endpoint &ep, Rank dst, Rank src, int tag,
         std::uint64_t send_bytes)
{
    auto s = ep.send(dst, tag, send_bytes);
    s.start();
    co_await ep.recv(static_cast<int>(src), tag);
    co_await std::move(s);
}

sim::Process
barrier(Endpoint &ep)
{
    const std::size_t n = ep.numRanks();
    if (n <= 1)
        co_return;
    const int tag = ep.nextCollectiveTag();
    const Rank r = ep.rank();
    for (std::size_t k = 1; k < n; k <<= 1) {
        const Rank dst = static_cast<Rank>((r + k) % n);
        const Rank src = static_cast<Rank>((r + n - k) % n);
        co_await sendrecv(ep, dst, src, tag, 0);
    }
}

sim::Process
bcast(Endpoint &ep, Rank root, std::uint64_t bytes)
{
    const std::size_t n = ep.numRanks();
    if (n <= 1)
        co_return;
    AQSIM_ASSERT(root < n);
    const int tag = ep.nextCollectiveTag();
    const Rank r = ep.rank();
    const std::size_t relative = (r + n - root) % n;

    // Receive from the parent (non-root ranks).
    std::size_t mask = 1;
    while (mask < n) {
        if (relative & mask) {
            const Rank src =
                static_cast<Rank>(((relative - mask) + root) % n);
            co_await ep.recv(static_cast<int>(src), tag);
            break;
        }
        mask <<= 1;
    }

    // Forward to children, largest subtree first (all forked so the
    // subtrees stream concurrently).
    std::vector<sim::Process> sends;
    mask >>= 1;
    while (mask > 0) {
        if (relative + mask < n) {
            const Rank dst =
                static_cast<Rank>(((relative + mask) + root) % n);
            sends.push_back(ep.send(dst, tag, bytes));
            sends.back().start();
        }
        mask >>= 1;
    }
    for (auto &s : sends)
        co_await std::move(s);
}

sim::Process
reduce(Endpoint &ep, Rank root, std::uint64_t bytes)
{
    const std::size_t n = ep.numRanks();
    if (n <= 1)
        co_return;
    AQSIM_ASSERT(root < n);
    const int tag = ep.nextCollectiveTag();
    const Rank r = ep.rank();
    const std::size_t relative = (r + n - root) % n;

    std::size_t mask = 1;
    while (mask < n) {
        if ((relative & mask) == 0) {
            const std::size_t src_rel = relative | mask;
            if (src_rel < n) {
                const Rank src =
                    static_cast<Rank>((src_rel + root) % n);
                co_await ep.recv(static_cast<int>(src), tag);
            }
        } else {
            const Rank dst =
                static_cast<Rank>(((relative & ~mask) + root) % n);
            co_await ep.send(dst, tag, bytes);
            break;
        }
        mask <<= 1;
    }
}

sim::Process
allreduce(Endpoint &ep, std::uint64_t bytes)
{
    const std::size_t n = ep.numRanks();
    if (n <= 1)
        co_return;
    const int tag = ep.nextCollectiveTag();
    const Rank r = ep.rank();
    const std::size_t pof2 = floorPow2(n);
    const std::size_t rem = n - pof2;

    // Fold the extra ranks into the power-of-two core.
    std::ptrdiff_t newrank;
    if (static_cast<std::size_t>(r) < 2 * rem) {
        if (r % 2 == 0) {
            co_await ep.send(r + 1, tag, bytes);
            newrank = -1; // idle during the doubling phase
        } else {
            co_await ep.recv(static_cast<int>(r - 1), tag);
            newrank = static_cast<std::ptrdiff_t>(r / 2);
        }
    } else {
        newrank = static_cast<std::ptrdiff_t>(r - rem);
    }

    if (newrank != -1) {
        for (std::size_t mask = 1; mask < pof2; mask <<= 1) {
            const auto partner_new =
                static_cast<std::size_t>(newrank) ^ mask;
            const Rank partner = static_cast<Rank>(
                partner_new < rem ? partner_new * 2 + 1
                                  : partner_new + rem);
            co_await sendrecv(ep, partner, partner, tag, bytes);
        }
    }

    // Push the result back out to the folded ranks.
    if (static_cast<std::size_t>(r) < 2 * rem) {
        if (r % 2 == 0)
            co_await ep.recv(static_cast<int>(r + 1), tag);
        else
            co_await ep.send(r - 1, tag, bytes);
    }
}

sim::Process
allgather(Endpoint &ep, std::uint64_t bytes_per_rank)
{
    const std::size_t n = ep.numRanks();
    if (n <= 1)
        co_return;
    const int tag = ep.nextCollectiveTag();
    const Rank r = ep.rank();
    const Rank right = static_cast<Rank>((r + 1) % n);
    const Rank left = static_cast<Rank>((r + n - 1) % n);
    for (std::size_t step = 0; step + 1 < n; ++step)
        co_await sendrecv(ep, right, left, tag, bytes_per_rank);
}

sim::Process
gather(Endpoint &ep, Rank root, std::uint64_t bytes_per_rank)
{
    const std::size_t n = ep.numRanks();
    if (n <= 1)
        co_return;
    AQSIM_ASSERT(root < n);
    const int tag = ep.nextCollectiveTag();
    const Rank r = ep.rank();
    const std::size_t relative = (r + n - root) % n;

    std::uint64_t accumulated = bytes_per_rank;
    std::size_t mask = 1;
    while (mask < n) {
        if ((relative & mask) == 0) {
            const std::size_t src_rel = relative | mask;
            if (src_rel < n) {
                const Rank src =
                    static_cast<Rank>((src_rel + root) % n);
                Message m = co_await ep.recv(static_cast<int>(src), tag);
                accumulated += m.bytes;
            }
        } else {
            const Rank dst =
                static_cast<Rank>(((relative & ~mask) + root) % n);
            co_await ep.send(dst, tag, accumulated);
            break;
        }
        mask <<= 1;
    }
}

sim::Process
scatter(Endpoint &ep, Rank root, std::uint64_t bytes_per_rank)
{
    const std::size_t n = ep.numRanks();
    if (n <= 1)
        co_return;
    AQSIM_ASSERT(root < n);
    const int tag = ep.nextCollectiveTag();
    const Rank r = ep.rank();
    const std::size_t relative = (r + n - root) % n;

    // Receive my aggregate from the parent (covers my subtree).
    std::size_t mask = 1;
    while (mask < n) {
        if (relative & mask) {
            const Rank src =
                static_cast<Rank>(((relative - mask) + root) % n);
            co_await ep.recv(static_cast<int>(src), tag);
            break;
        }
        mask <<= 1;
    }
    // Forward each child's share of the aggregate.
    mask >>= 1;
    while (mask > 0) {
        if (relative + mask < n) {
            const Rank dst =
                static_cast<Rank>(((relative + mask) + root) % n);
            // The child's subtree spans min(mask, n - relative - mask)
            // ranks.
            const std::size_t subtree =
                std::min(mask, n - relative - mask);
            co_await ep.send(dst, tag,
                             bytes_per_rank *
                                 static_cast<std::uint64_t>(subtree));
        }
        mask >>= 1;
    }
}

sim::Process
reduceScatter(Endpoint &ep, std::uint64_t bytes_per_rank)
{
    const std::size_t n = ep.numRanks();
    if (n <= 1)
        co_return;
    const int tag = ep.nextCollectiveTag();
    const Rank r = ep.rank();
    const std::size_t pof2 = floorPow2(n);
    const std::size_t rem = n - pof2;

    // Fold extra ranks (as in allreduce).
    std::ptrdiff_t newrank;
    const std::uint64_t full =
        bytes_per_rank * static_cast<std::uint64_t>(n);
    if (static_cast<std::size_t>(r) < 2 * rem) {
        if (r % 2 == 0) {
            co_await ep.send(r + 1, tag, full);
            newrank = -1;
        } else {
            co_await ep.recv(static_cast<int>(r - 1), tag);
            newrank = static_cast<std::ptrdiff_t>(r / 2);
        }
    } else {
        newrank = static_cast<std::ptrdiff_t>(r - rem);
    }

    // Recursive halving: exchanged volume halves every round.
    if (newrank != -1) {
        std::uint64_t chunk = full / 2;
        for (std::size_t mask = pof2 / 2; mask > 0; mask >>= 1) {
            const auto partner_new =
                static_cast<std::size_t>(newrank) ^ mask;
            const Rank partner = static_cast<Rank>(
                partner_new < rem ? partner_new * 2 + 1
                                  : partner_new + rem);
            co_await sendrecv(ep, partner, partner, tag,
                              std::max<std::uint64_t>(chunk, 64));
            chunk = std::max<std::uint64_t>(chunk / 2, 64);
        }
    }

    // Folded ranks receive their share back.
    if (static_cast<std::size_t>(r) < 2 * rem) {
        if (r % 2 == 0)
            co_await ep.recv(static_cast<int>(r + 1), tag);
        else
            co_await ep.send(r - 1, tag, bytes_per_rank);
    }
}

namespace
{

/**
 * The pairwise exchange of alltoall and alltoallv: at each step a rank
 * sends to one partner and receives from another (one XOR partner for
 * a power-of-two rank count). It sends @p per_peer[peer] bytes, or
 * @p uniform bytes to every peer when @p per_peer is empty.
 */
sim::Process
pairwiseExchange(Endpoint &ep, std::uint64_t uniform,
                 std::vector<std::uint64_t> per_peer)
{
    const std::size_t n = ep.numRanks();
    if (n <= 1)
        co_return;
    const int tag = ep.nextCollectiveTag();
    const Rank r = ep.rank();
    const bool pow2 = (n & (n - 1)) == 0;

    for (std::size_t step = 1; step < n; ++step) {
        Rank send_to, recv_from;
        if (pow2) {
            send_to = recv_from = static_cast<Rank>(r ^ step);
        } else {
            send_to = static_cast<Rank>((r + step) % n);
            recv_from = static_cast<Rank>((r + n - step) % n);
        }
        auto s = ep.send(send_to, tag,
                         per_peer.empty() ? uniform : per_peer[send_to]);
        s.start();
        co_await ep.recv(static_cast<int>(recv_from), tag);
        co_await std::move(s);
    }
}

} // namespace

sim::Process
alltoall(Endpoint &ep, std::uint64_t bytes_per_pair)
{
    return pairwiseExchange(ep, bytes_per_pair, {});
}

sim::Process
alltoallv(Endpoint &ep, std::vector<std::uint64_t> bytes_to_peer)
{
    AQSIM_ASSERT(ep.numRanks() <= 1 ||
                 bytes_to_peer.size() == ep.numRanks());
    return pairwiseExchange(ep, 0, std::move(bytes_to_peer));
}

} // namespace aqsim::mpi
