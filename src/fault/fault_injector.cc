#include "fault/fault_injector.hh"

#include "base/logging.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::fault
{

namespace
{

void
validateRate(double rate, const char *what)
{
    if (rate < 0.0 || rate > 1.0)
        fatal("fault %s rate must be in [0,1] (got %g)", what, rate);
}

} // namespace

bool
FaultParams::anyEnabled() const
{
    return dropRate > 0.0 || duplicateRate > 0.0 || corruptRate > 0.0 ||
           (jitterRate > 0.0 && maxJitterTicks > 0) ||
           !linkDown.empty() || !nodeCrash.empty() ||
           !nodePause.empty() || !lossBursts.empty();
}

FaultInjector::FaultInjector(std::size_t num_nodes, FaultParams params,
                             Rng rng, stats::Group &stats_parent)
    : numNodes_(num_nodes), params_(std::move(params)), parentRng_(rng)
{
    AQSIM_ASSERT(num_nodes >= 1);
    stats::Group &group = stats_parent.addGroup("faults");
    const auto view = [&group](const char *name, const char *desc,
                               const std::uint64_t &total) {
        group.add<stats::Value>(name, desc, [&total] {
            return static_cast<double>(total);
        });
    };
    view("dropped", "frames dropped by the fault model", totalDropped_);
    view("duplicated", "frames delivered twice by the fault model",
         totalDuplicated_);
    view("corrupted", "frames delivered with the corrupted flag set",
         totalCorrupted_);
    view("delayed", "frames delayed by jitter or a pause window",
         totalDelayed_);
    validateRate(params_.dropRate, "drop");
    validateRate(params_.duplicateRate, "duplicate");
    validateRate(params_.corruptRate, "corrupt");
    validateRate(params_.jitterRate, "jitter");
    if (params_.jitterRate > 0.0 && params_.maxJitterTicks == 0)
        fatal("fault jitter rate %g needs a positive max jitter",
              params_.jitterRate);
    for (const auto &w : params_.linkDown) {
        if (w.a >= numNodes_ || w.b >= numNodes_ || w.a == w.b)
            fatal("link-down window names invalid link %u-%u", w.a,
                  w.b);
        if (w.from >= w.to)
            fatal("link-down window [%llu,%llu) is empty",
                  static_cast<unsigned long long>(w.from),
                  static_cast<unsigned long long>(w.to));
    }
    for (const auto *list : {&params_.nodeCrash, &params_.nodePause}) {
        for (const auto &w : *list) {
            if (w.node >= numNodes_)
                fatal("fault window names invalid node %u", w.node);
            if (w.from >= w.to)
                fatal("fault window [%llu,%llu) is empty",
                      static_cast<unsigned long long>(w.from),
                      static_cast<unsigned long long>(w.to));
        }
    }
    for (const auto &b : params_.lossBursts) {
        validateRate(b.rate, "loss-burst");
        if (b.from >= b.to)
            fatal("loss-burst window [%llu,%llu) is empty",
                  static_cast<unsigned long long>(b.from),
                  static_cast<unsigned long long>(b.to));
    }
    forkStreams();
}

void
FaultInjector::forkStreams()
{
    Rng parent = parentRng_;
    linkRng_.clear();
    linkRng_.reserve(numNodes_ * numNodes_);
    for (std::size_t l = 0; l < numNodes_ * numNodes_; ++l)
        linkRng_.push_back(parent.fork(0xfa170000ULL + l));
}

void
FaultInjector::reset()
{
    forkStreams();
    totalDropped_ = totalDuplicated_ = 0;
    totalCorrupted_ = totalDelayed_ = 0;
}

void
FaultInjector::adoptTotals(const Totals &totals)
{
    totalDropped_ = totals[0];
    totalDuplicated_ = totals[1];
    totalCorrupted_ = totals[2];
    totalDelayed_ = totals[3];
}

bool
FaultInjector::outage(NodeId src, NodeId dst, Tick depart_tick) const
{
    for (const auto &w : params_.linkDown) {
        const bool on_link = (w.a == src && w.b == dst) ||
                             (w.a == dst && w.b == src);
        if (on_link && depart_tick >= w.from && depart_tick < w.to)
            return true;
    }
    for (const auto &w : params_.nodeCrash) {
        if ((w.node == src || w.node == dst) &&
            depart_tick >= w.from && depart_tick < w.to)
            return true;
    }
    return false;
}

FaultInjector::Decision
FaultInjector::decide(NodeId src, NodeId dst, Tick depart_tick)
{
    AQSIM_ASSERT(src < numNodes_ && dst < numNodes_);
    Decision d;

    if (outage(src, dst, depart_tick)) {
        d.drop = true;
        ++totalDropped_;
        return d;
    }

    // Fixed draw order per frame on the link's private stream: the
    // decision sequence depends only on the per-link frame sequence.
    // Burst draws come first and are conditioned on departTick alone
    // (itself part of the frame sequence), so the stream stays pure.
    Rng &rng = linkRng_[linkIndex(src, dst)];
    for (const auto &b : params_.lossBursts) {
        if (depart_tick >= b.from && depart_tick < b.to &&
            rng.bernoulli(b.rate)) {
            d.drop = true;
            ++totalDropped_;
            return d;
        }
    }
    if (params_.dropRate > 0.0 && rng.bernoulli(params_.dropRate)) {
        d.drop = true;
        ++totalDropped_;
        return d;
    }
    if (params_.corruptRate > 0.0 &&
        rng.bernoulli(params_.corruptRate)) {
        d.corrupt = true;
        ++totalCorrupted_;
    }
    if (params_.jitterRate > 0.0 && rng.bernoulli(params_.jitterRate)) {
        d.jitter = static_cast<Tick>(
            rng.uniformInt(params_.maxJitterTicks) + 1);
        ++totalDelayed_;
    }
    if (params_.duplicateRate > 0.0 &&
        rng.bernoulli(params_.duplicateRate)) {
        d.duplicate = true;
        ++totalDuplicated_;
        if (params_.jitterRate > 0.0 &&
            rng.bernoulli(params_.jitterRate)) {
            d.duplicateJitter = static_cast<Tick>(
                rng.uniformInt(params_.maxJitterTicks) + 1);
        }
    }

    for (const auto &w : params_.nodePause) {
        if ((w.node == src || w.node == dst) &&
            depart_tick >= w.from && depart_tick < w.to &&
            w.to > d.notBefore) {
            d.notBefore = w.to;
            ++totalDelayed_;
        }
    }
    return d;
}

void
FaultInjector::serializeLinkRange(ckpt::Writer &w, NodeId begin,
                                  NodeId end) const
{
    AQSIM_ASSERT(begin <= end && end <= numNodes_);
    for (std::size_t l = linkIndex(begin, 0); l < linkIndex(end, 0);
         ++l)
        ckpt::putRng(w, linkRng_[l]);
}

} // namespace aqsim::fault
