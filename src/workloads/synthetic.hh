/**
 * @file
 * Synthetic workloads for tests, examples and ablation benches.
 */

#ifndef AQSIM_WORKLOADS_SYNTHETIC_HH
#define AQSIM_WORKLOADS_SYNTHETIC_HH

#include <cstdint>
#include <vector>

#include "workloads/workload.hh"

namespace aqsim::workloads
{

/**
 * Classic ping-pong between rank pairs (0<->1, 2<->3, ...). Records
 * the mean measured roundtrip on the even ranks, which is what the
 * paper's Fig. 3 reasons about: with conservative quanta the roundtrip
 * equals the physical latency; with long quanta it inflates toward the
 * quantum length.
 */
class PingPong : public Workload
{
  public:
    struct Params
    {
        std::size_t rounds = 100;
        std::uint64_t bytes = 1024;
        /** Idle gap between rounds (lets adaptive quanta grow). */
        Tick gap = 0;
    };

    PingPong(std::size_t num_ranks, double scale);
    PingPong(std::size_t num_ranks, double scale, Params params);

    std::string name() const override { return "pingpong"; }
    MetricKind metricKind() const override
    {
        return MetricKind::WallClockSeconds;
    }
    sim::Process program(AppContext &ctx) override;

    /** Mean measured roundtrip (ticks) across pinging ranks. */
    double meanRoundtripTicks() const;

    const Params &params() const { return params_; }

  private:
    /** One pinging rank's roundtrips, on a line of its own. */
    struct alignas(64) Roundtrips
    {
        std::uint64_t sumTicks = 0;
        std::uint64_t count = 0;
    };

    std::size_t numRanks_;
    Params params_;
    /** One slot per rank, written only by that rank's coroutine (and
     * so by the one worker that runs the rank); summed when read. */
    std::vector<Roundtrips> roundtrips_;
};

/**
 * Alternating compute/communicate phases — the "speed bump" pattern
 * the paper's adaptive algorithm is designed around: long silent
 * stretches where the quantum should grow, punctuated by alltoall
 * bursts where it must collapse.
 */
class BurstCompute : public Workload
{
  public:
    struct Params
    {
        std::size_t phases = 10;
        double computeOpsPerPhase = 2.0e6;
        std::uint64_t burstBytesPerPair = 2048;
        double jitterSigma = 0.03;
    };

    BurstCompute(std::size_t num_ranks, double scale);
    BurstCompute(std::size_t num_ranks, double scale, Params params);

    std::string name() const override { return "burst"; }
    MetricKind metricKind() const override
    {
        return MetricKind::RateMops;
    }
    double totalOps() const override;
    sim::Process program(AppContext &ctx) override;

  private:
    std::size_t numRanks_;
    Params params_;
};

/**
 * Deterministic pseudo-random pairwise traffic: every round draws a
 * global random pairing (same seed on all ranks) and each pair
 * exchanges a random-size message; some rounds are compute-only.
 * Exercises matching, reassembly and the straggler machinery with
 * irregular patterns.
 */
class RandomTraffic : public Workload
{
  public:
    struct Params
    {
        std::size_t rounds = 60;
        std::uint64_t maxBytes = 32 * 1024;
        double commProbability = 0.6;
        double opsBetweenRounds = 1.0e5;
        std::uint64_t scheduleSeed = 42;
    };

    RandomTraffic(std::size_t num_ranks, double scale);
    RandomTraffic(std::size_t num_ranks, double scale, Params params);

    std::string name() const override { return "random"; }
    MetricKind metricKind() const override
    {
        return MetricKind::WallClockSeconds;
    }
    sim::Process program(AppContext &ctx) override;

  private:
    std::size_t numRanks_;
    Params params_;
};

} // namespace aqsim::workloads

#endif // AQSIM_WORKLOADS_SYNTHETIC_HH
