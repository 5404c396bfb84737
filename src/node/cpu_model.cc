#include "node/cpu_model.hh"

#include <cmath>

#include "base/logging.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::node
{

void
CpuModel::endCompute()
{
    AQSIM_ASSERT(computeDepth_ > 0);
    --computeDepth_;
}

void
CpuModel::serialize(ckpt::Writer &w) const
{
    w.u32(computeDepth_);
}

SimpleCpuModel::SimpleCpuModel(CpuParams params) : params_(params)
{
    AQSIM_ASSERT(params_.opsPerNs > 0.0);
}

Tick
SimpleCpuModel::computeLatency(double ops)
{
    AQSIM_ASSERT(ops >= 0.0);
    return static_cast<Tick>(std::llround(ops / params_.opsPerNs));
}

SamplingCpuModel::SamplingCpuModel(Params params, Rng rng)
    : params_(params), rng_(rng)
{
    AQSIM_ASSERT(params_.detailFraction > 0.0 &&
                 params_.detailFraction <= 1.0);
}

Tick
SamplingCpuModel::computeLatency(double ops)
{
    const double base_ns = ops / params_.cpu.opsPerNs;
    inDetail_ = rng_.bernoulli(params_.detailFraction);
    if (inDetail_)
        return static_cast<Tick>(std::llround(base_ns));
    // Fast-forwarded window: latency extrapolated with noise.
    const double noisy =
        base_ns * (1.0 + params_.timingNoise * rng_.normal());
    return static_cast<Tick>(std::llround(std::max(0.0, noisy)));
}

double
SamplingCpuModel::hostDetailFactor() const
{
    return inDetail_ ? 1.0 : params_.fastForwardCost;
}

void
SamplingCpuModel::serialize(ckpt::Writer &w) const
{
    CpuModel::serialize(w);
    ckpt::putRng(w, rng_);
    w.boolean(inDetail_);
}

} // namespace aqsim::node
