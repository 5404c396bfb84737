#include "node/host_cost_model.hh"

#include <algorithm>

#include "base/logging.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::node
{

HostCostModel::HostCostModel(const HostCostParams &params, Rng rng)
    : params_(params), rng_(rng)
{
    AQSIM_ASSERT(params_.busySlowdownNsPerTick > 0.0);
    AQSIM_ASSERT(params_.idleFactor > 0.0 && params_.idleFactor <= 1.0);
    AQSIM_ASSERT(params_.noiseRho >= 0.0 && params_.noiseRho < 1.0);
}

void
HostCostModel::newQuantum(Tick quantum_ticks)
{
    if (params_.noiseSigma <= 0.0) {
        factor_ = 1.0;
        return;
    }
    // Longer quanta average more independent speed chunks, shrinking
    // the effective sigma by sqrt(chunks).
    const double chunks = std::max(
        1.0, static_cast<double>(quantum_ticks) /
                 static_cast<double>(params_.noiseChunkTicks));
    const double sigma_eff = params_.noiseSigma / std::sqrt(chunks);

    // AR(1) in log space, stationary variance sigma_eff^2.
    const double innovation_sd =
        sigma_eff * std::sqrt(1.0 - params_.noiseRho * params_.noiseRho);
    logState_ = params_.noiseRho * logState_ +
                rng_.normal(0.0, innovation_sd);
    // Mean-one multiplier: E[exp(N(mu, s^2))] = 1 for mu = -s^2/2.
    factor_ = std::exp(logState_ - 0.5 * sigma_eff * sigma_eff);
}

double
HostCostModel::rate(bool busy, double detail_factor) const
{
    const double base = params_.busySlowdownNsPerTick *
                        (busy ? 1.0 : params_.idleFactor);
    return std::max(1e-6, base * factor_ * detail_factor);
}

void
HostCostModel::serialize(ckpt::Writer &w) const
{
    ckpt::putRng(w, rng_);
    w.f64(factor_);
    w.f64(logState_);
}

} // namespace aqsim::node
