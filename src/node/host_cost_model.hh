/**
 * @file
 * Host execution cost model.
 *
 * The paper measures simulation speed as wall-clock time of N node
 * simulators running in parallel on a physical host. This model is the
 * deterministic substitute (see DESIGN.md §2): it prices how many host
 * nanoseconds a node simulator spends to advance its guest by one
 * simulated nanosecond, and what each synchronization quantum costs in
 * fixed overhead.
 *
 * Components:
 *  - busySlowdownNsPerTick: host-ns to simulate one guest-ns of active
 *    computation (full-system simulators with timing models run two to
 *    three orders of magnitude slower than native).
 *  - idleFactor: emulating a halted/idle guest is much cheaper.
 *  - perEventNs: fixed host cost of dispatching one simulator event.
 *  - perQuantumNs: per-node fixed cost paid every quantum — pipeline
 *    drain/restart of the functional emulator; dynamic-translation
 *    throughput collapses when execution is chopped into tiny quanta.
 *    This term is why a 1 us quantum is ~65x slower than a 1000 us one.
 *  - barrierBaseNs/barrierPerNodeNs: cost of the global barrier
 *    exchange with the controller each quantum.
 *  - noiseSigma/noiseRho: lognormal AR(1) per-quantum speed noise per
 *    node (host load, cache effects). Heterogeneous speeds are what
 *    skews node progress and produces stragglers; "the slowest node
 *    sets the pace" (paper Fig. 5).
 */

#ifndef AQSIM_NODE_HOST_COST_MODEL_HH
#define AQSIM_NODE_HOST_COST_MODEL_HH

#include <cmath>
#include <cstdint>

#include "base/random.hh"
#include "base/types.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::node
{

/** Cluster-wide host cost parameters. */
struct HostCostParams
{
    double busySlowdownNsPerTick = 90.0;
    double idleFactor = 0.00002;
    double perEventNs = 150.0;
    /*
     * The overhead terms below are calibrated so the fixed-quantum
     * speedup ladder reproduces the paper's reported range on 8-node
     * NAS (Q=10us ~9x, Q=100us ~40x, Q=1000us ~65x over the 1us
     * ground truth); see EXPERIMENTS.md.
     */
    double perQuantumNs = 3.6e6;
    double barrierBaseNs = 2.4e6;
    double barrierPerNodeNs = 8.0e4;
    /** Lognormal sigma of the per-quantum node speed multiplier. */
    double noiseSigma = 0.25;
    /** AR(1) correlation of the multiplier across quanta. */
    double noiseRho = 0.7;
    /**
     * Sim-time granularity (ticks) over which speed noise decorrelates.
     * Long quanta average more independent chunks, so their relative
     * node-to-node imbalance shrinks — the averaging effect real
     * parallel simulators see with coarse synchronization.
     */
    Tick noiseChunkTicks = 100'000;

    /** Host cost of the per-quantum global barrier for @p n nodes. */
    double
    barrierNs(std::size_t n) const
    {
        return barrierBaseNs +
               barrierPerNodeNs * static_cast<double>(n);
    }
};

/**
 * Per-node host speed state (one instance per node, SequentialEngine).
 */
class HostCostModel
{
  public:
    /**
     * @param params shared cost parameters
     * @param rng private noise stream for this node
     */
    HostCostModel(const HostCostParams &params, Rng rng);

    /**
     * Advance to a new quantum of length @p quantum_ticks: draws the
     * node's speed multiplier for the quantum (AR(1) lognormal, with
     * variance shrunk by intra-quantum averaging).
     */
    void newQuantum(Tick quantum_ticks);

    /**
     * @return current host-ns per simulated-ns rate.
     * @param busy guest actively computing vs. idle/blocked
     * @param detail_factor CPU model detail factor (sampling support)
     */
    double rate(bool busy, double detail_factor = 1.0) const;

    /** @return fixed host cost of dispatching one event. */
    double perEventNs() const { return params_.perEventNs; }

    /** @return fixed per-node host cost of entering a quantum. */
    double perQuantumNs() const { return params_.perQuantumNs; }

    /** @return the current speed multiplier (tests/diagnostics). */
    double currentFactor() const { return factor_; }

    const HostCostParams &params() const { return params_; }

    /** Checkpoint support: persist noise stream + AR(1) state. */
    void serialize(ckpt::Writer &w) const;

  private:
    HostCostParams params_;
    Rng rng_;
    double factor_ = 1.0;
    /** Latent AR(1) state in log space. */
    double logState_ = 0.0;
};

} // namespace aqsim::node

#endif // AQSIM_NODE_HOST_COST_MODEL_HH
