/**
 * @file
 * CPU timing models for the simulated nodes.
 *
 * The full-system simulator the paper uses (SimNow + HP timing
 * extensions) is replaced by a timing model that converts abstract work
 * (operations) into simulated time and tracks whether the guest is
 * computing or idling. The busy/idle state matters twice: it shapes the
 * application's simulated time, and it drives the host-cost model (a
 * functional simulator burns far fewer host cycles emulating a halted
 * guest than a computing one).
 *
 * SamplingCpuModel implements the paper's "future work" item: combining
 * quantum adaptation with dynamic sampling of the node simulator
 * (Falcón et al., ISPASS 2007) — alternating detailed and fast-forward
 * timing windows, trading timing fidelity for host speed.
 */

#ifndef AQSIM_NODE_CPU_MODEL_HH
#define AQSIM_NODE_CPU_MODEL_HH

#include <cstdint>
#include <memory>

#include "base/random.hh"
#include "base/types.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::node
{

/** Static CPU parameters. */
struct CpuParams
{
    /**
     * Sustained operations per nanosecond (clock * IPC); 2.6 matches
     * the paper's 2.6 GHz Opteron hosts at IPC 1.
     */
    double opsPerNs = 2.6;
};

/** Abstract CPU timing model. */
class CpuModel
{
  public:
    virtual ~CpuModel() = default;

    /** @return simulated latency of executing @p ops operations. */
    virtual Tick computeLatency(double ops) = 0;

    /**
     * @return relative host cost of simulating this CPU right now;
     * 1.0 = fully detailed timing. Sampling models return < 1 during
     * fast-forward windows.
     */
    virtual double hostDetailFactor() const { return 1.0; }

    /** Busy/idle tracking (used by the host-cost model). */
    void
    beginCompute()
    {
        ++computeDepth_;
    }

    void endCompute();

    /** @return true while at least one compute burst is in flight. */
    bool busy() const { return computeDepth_ > 0; }

    /** Checkpoint support: persist the timing-model state. */
    virtual void serialize(ckpt::Writer &w) const;

  private:
    std::uint32_t computeDepth_ = 0;
};

/** Deterministic fixed-rate timing model. */
class SimpleCpuModel : public CpuModel
{
  public:
    explicit SimpleCpuModel(CpuParams params);

    Tick computeLatency(double ops) override;

    const CpuParams &params() const { return params_; }

  private:
    CpuParams params_;
};

/**
 * Sampling timing model: a fraction of compute windows is simulated in
 * detail; the rest is fast-forwarded using the running average rate
 * observed in detailed windows, perturbed by a configurable relative
 * error. Host cost drops during fast-forward windows.
 */
class SamplingCpuModel : public CpuModel
{
  public:
    struct Params
    {
        CpuParams cpu;
        /** Fraction of compute windows simulated in detail (0,1]. */
        double detailFraction = 0.1;
        /** Host cost of a fast-forwarded window relative to detailed. */
        double fastForwardCost = 0.05;
        /** Relative timing error (std dev) of fast-forwarded windows. */
        double timingNoise = 0.03;
    };

    SamplingCpuModel(Params params, Rng rng);

    Tick computeLatency(double ops) override;
    double hostDetailFactor() const override;
    void serialize(ckpt::Writer &w) const override;

  private:
    Params params_;
    Rng rng_;
    bool inDetail_ = true;
};

} // namespace aqsim::node

#endif // AQSIM_NODE_CPU_MODEL_HH
