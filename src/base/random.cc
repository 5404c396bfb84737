#include "base/random.hh"

#include <cmath>

#include "base/logging.hh"

namespace aqsim
{

namespace
{

/** SplitMix64 step, used for seeding and stream splitting. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    AQSIM_ASSERT(lo <= hi);
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    AQSIM_ASSERT(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0ULL - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    AQSIM_ASSERT(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    // Box-Muller; u1 in (0, 1] so log() is finite.
    double u1 = 1.0 - uniform();
    double u2 = uniform();
    double mag = std::sqrt(-2.0 * std::log(u1));
    cachedNormal_ = mag * std::sin(2.0 * M_PI * u2);
    hasCachedNormal_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormalMean(double mean, double sigma)
{
    AQSIM_ASSERT(mean > 0.0);
    // If X = exp(mu + sigma Z), then E[X] = exp(mu + sigma^2/2);
    // solve for mu so that E[X] == mean.
    const double mu = std::log(mean) - 0.5 * sigma * sigma;
    return std::exp(mu + sigma * normal());
}

double
Rng::exponential(double mean)
{
    AQSIM_ASSERT(mean > 0.0);
    return -mean * std::log(1.0 - uniform());
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::fork(std::uint64_t label)
{
    std::uint64_t s = next() ^ (label * 0xd1342543de82ef95ULL);
    return Rng(splitmix64(s));
}

Rng::State
Rng::state() const
{
    State out;
    for (int i = 0; i < 4; ++i)
        out.s[i] = state_[i];
    out.cachedNormal = cachedNormal_;
    out.hasCachedNormal = hasCachedNormal_;
    return out;
}

} // namespace aqsim
