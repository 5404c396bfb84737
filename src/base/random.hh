/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic element of aqsim (host-speed noise, workload jitter,
 * synthetic traffic) draws from an explicitly seeded Rng so that a full
 * experiment is a pure function of its configuration. We implement
 * xoshiro256** seeded through SplitMix64 rather than using <random>
 * engines because the standard distributions are not guaranteed to be
 * bit-identical across library implementations, and reproducibility is
 * part of this library's contract.
 */

#ifndef AQSIM_BASE_RANDOM_HH
#define AQSIM_BASE_RANDOM_HH

#include <cstdint>

#include "base/types.hh"

namespace aqsim
{

/**
 * Deterministic PRNG (xoshiro256**) with simple distribution helpers.
 *
 * Streams can be split: fork(label) derives an independent child
 * generator, so each node/component can own a private stream that does
 * not perturb its siblings when one component draws more numbers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit value. */
    std::uint64_t next();

    /** @return uniform double in [0, 1). */
    double uniform();

    /** @return uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return uniform integer in [0, bound) using rejection sampling. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** @return uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** @return standard normal deviate (Box-Muller, cached pair). */
    double normal();

    /** @return normal deviate with the given mean / standard deviation. */
    double normal(double mean, double stddev);

    /**
     * @return lognormal deviate with E[X] = mean.
     *
     * Parameterized by the mean of X itself (not of log X), which is the
     * natural knob for multiplicative host-speed noise: sigma controls
     * spread, the mean stays fixed as sigma varies.
     */
    double lognormalMean(double mean, double sigma);

    /** @return exponential deviate with the given mean. */
    double exponential(double mean);

    /** @return true with probability p. */
    bool bernoulli(double p);

    /**
     * Derive an independent child generator. The label decorrelates
     * children forked from the same parent state.
     */
    Rng fork(std::uint64_t label);

    /**
     * Complete generator state, exposed as plain data so checkpoints
     * can persist a stream at its exact position.
     */
    struct State
    {
        std::uint64_t s[4] = {0, 0, 0, 0};
        double cachedNormal = 0.0;
        bool hasCachedNormal = false;
    };

    /** @return a snapshot of the full generator state. */
    State state() const;

  private:
    std::uint64_t state_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace aqsim

#endif // AQSIM_BASE_RANDOM_HH
