#include "workloads/synthetic.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"

namespace aqsim::workloads
{

namespace
{

constexpr int tagPing = 41;
constexpr int tagPong = 42;
constexpr int tagRandom = 43;

} // namespace

PingPong::PingPong(std::size_t num_ranks, double scale)
    : PingPong(num_ranks, scale, Params())
{}

PingPong::PingPong(std::size_t num_ranks, double scale, Params params)
    : numRanks_(num_ranks), params_(params), roundtrips_(num_ranks)
{
    AQSIM_ASSERT(num_ranks >= 2);
    params_.rounds = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(params_.rounds) * scale));
}

double
PingPong::meanRoundtripTicks() const
{
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    for (const Roundtrips &slot : roundtrips_) {
        sum += slot.sumTicks;
        count += slot.count;
    }
    return count ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0.0;
}

sim::Process
PingPong::program(AppContext &ctx)
{
    const Rank r = ctx.rank();
    const bool pinger = (r % 2 == 0);
    const Rank peer = pinger ? r + 1 : r - 1;
    // Odd rank count: the last rank sits out.
    if (peer >= ctx.numRanks())
        co_return;

    for (std::size_t round = 0; round < params_.rounds; ++round) {
        if (pinger) {
            const Tick t0 = ctx.now();
            co_await ctx.comm().send(peer, tagPing, params_.bytes);
            co_await ctx.comm().recv(static_cast<int>(peer), tagPong);
            Roundtrips &mine = roundtrips_[r];
            mine.sumTicks += ctx.now() - t0;
            ++mine.count;
            if (params_.gap)
                co_await ctx.delay(params_.gap);
        } else {
            co_await ctx.comm().recv(static_cast<int>(peer), tagPing);
            co_await ctx.comm().send(peer, tagPong, params_.bytes);
        }
    }
}

BurstCompute::BurstCompute(std::size_t num_ranks, double scale)
    : BurstCompute(num_ranks, scale, Params())
{}

BurstCompute::BurstCompute(std::size_t num_ranks, double scale, Params params)
    : numRanks_(num_ranks), params_(params)
{
    AQSIM_ASSERT(num_ranks >= 1);
    params_.computeOpsPerPhase *= scale;
}

double
BurstCompute::totalOps() const
{
    return params_.computeOpsPerPhase *
           static_cast<double>(params_.phases) *
           static_cast<double>(numRanks_);
}

sim::Process
BurstCompute::program(AppContext &ctx)
{
    for (std::size_t phase = 0; phase < params_.phases; ++phase) {
        co_await ctx.compute(ctx.jitter(params_.computeOpsPerPhase,
                                        params_.jitterSigma));
        if (ctx.numRanks() > 1)
            co_await mpi::alltoall(ctx.comm(),
                                   params_.burstBytesPerPair);
    }
}

RandomTraffic::RandomTraffic(std::size_t num_ranks, double scale)
    : RandomTraffic(num_ranks, scale, Params())
{}

RandomTraffic::RandomTraffic(std::size_t num_ranks, double scale, Params params)
    : numRanks_(num_ranks), params_(params)
{
    AQSIM_ASSERT(num_ranks >= 2);
    params_.rounds = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(params_.rounds) * scale));
}

sim::Process
RandomTraffic::program(AppContext &ctx)
{
    const std::size_t n = ctx.numRanks();
    const Rank r = ctx.rank();
    // All ranks derive the *same* schedule from the shared seed, so
    // pairings agree without negotiation.
    Rng schedule(params_.scheduleSeed);

    for (std::size_t round = 0; round < params_.rounds; ++round) {
        // Global random permutation pairing for this round.
        std::vector<Rank> perm(n);
        for (Rank i = 0; i < n; ++i)
            perm[i] = i;
        for (std::size_t i = n - 1; i > 0; --i) {
            const auto j = schedule.uniformInt(
                static_cast<std::uint64_t>(i + 1));
            std::swap(perm[i], perm[j]);
        }
        const bool comm_round =
            schedule.bernoulli(params_.commProbability);
        const auto bytes =
            1 + schedule.uniformInt(params_.maxBytes);

        // My position in the permutation decides my partner.
        Rank partner = r;
        for (std::size_t i = 0; i + 1 < n; i += 2) {
            if (perm[i] == r)
                partner = perm[i + 1];
            else if (perm[i + 1] == r)
                partner = perm[i];
        }

        co_await ctx.compute(params_.opsBetweenRounds);
        if (comm_round && partner != r)
            co_await mpi::sendrecv(ctx.comm(), partner, partner,
                                   tagRandom, bytes);
    }
}

} // namespace aqsim::workloads
