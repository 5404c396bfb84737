/**
 * @file
 * Quantum-length policies, including the paper's contribution.
 *
 * A QuantumPolicy decides the length of the next synchronization
 * quantum given the traffic observed in the last one. The paper's
 * Algorithm 1 ("Dynamic Quantum") is AdaptiveQuantumPolicy; fixed
 * quanta are the baseline it is evaluated against. Two further
 * variants are provided for ablation studies.
 */

#ifndef AQSIM_CORE_QUANTUM_POLICY_HH
#define AQSIM_CORE_QUANTUM_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/types.hh"

namespace aqsim::ckpt
{
class Reader;
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::core
{

/** Decides the next synchronization quantum length. */
class QuantumPolicy
{
  public:
    virtual ~QuantumPolicy() = default;

    /** @return the quantum to use for the first interval. */
    virtual Tick initialQuantum() const = 0;

    /**
     * Decide the next quantum length.
     *
     * @param packets_last_quantum frames the network controller routed
     *        during the quantum that just completed
     * @return length of the next quantum in ticks
     */
    virtual Tick next(std::uint64_t packets_last_quantum) = 0;

    /** Reset internal state for a fresh run. */
    virtual void reset() = 0;

    /** Short configuration name, e.g. "fixed 100us" or "dyn 1.03:0.02". */
    virtual std::string name() const = 0;

    /** Deep copy (each run owns a private policy instance). */
    virtual std::unique_ptr<QuantumPolicy> clone() const = 0;

    /**
     * Checkpoint support: persist adaptation state (if any). The
     * policy's configuration is covered by the config fingerprint.
     */
    virtual void serialize(ckpt::Writer &) const {}

    /**
     * Restore state persisted by serialize(). The library restores by
     * replay and never calls this; it stays because the benchmark
     * driver's delegating policy (perfbench/driver.cc) overrides it.
     */
    virtual void deserialize(ckpt::Reader &) {}
};

/** Constant quantum: the classic WWT-style lock-step baseline. */
class FixedQuantumPolicy : public QuantumPolicy
{
  public:
    explicit FixedQuantumPolicy(Tick quantum);

    Tick initialQuantum() const override { return quantum_; }
    Tick next(std::uint64_t) override { return quantum_; }
    void reset() override {}
    std::string name() const override;
    std::unique_ptr<QuantumPolicy> clone() const override;

  private:
    Tick quantum_;
};

/**
 * The paper's Algorithm 1: "Dynamic Quantum".
 *
 *   Q = min_Q
 *   repeat each quantum:
 *     if (np == 0) Q *= inc  else  Q *= dec
 *     clamp Q to [min_Q, max_Q]
 *
 * Grow slowly over quiet phases (inc of 1.02-1.05), collapse almost
 * instantly when traffic appears (dec near 1/sqrt(max_Q/min_Q) so two
 * to three quanta suffice) — "driving over speed bumps".
 */
class AdaptiveQuantumPolicy : public QuantumPolicy
{
  public:
    struct Params
    {
        Tick minQuantum = microseconds(1);
        Tick maxQuantum = microseconds(1000);
        double inc = 1.03;
        double dec = 0.02;
    };

    explicit AdaptiveQuantumPolicy(Params params);

    Tick initialQuantum() const override { return params_.minQuantum; }
    Tick next(std::uint64_t packets_last_quantum) override;
    void reset() override;
    std::string name() const override;
    std::unique_ptr<QuantumPolicy> clone() const override;
    void serialize(ckpt::Writer &w) const override;
    void deserialize(ckpt::Reader &r) override;

    const Params &params() const { return params_; }

  private:
    Params params_;
    /** Kept in floating point so small growth factors accumulate. */
    double q_;
};

/**
 * Ablation variant: decrease only when traffic exceeds a threshold,
 * tolerating sparse background packets. Not part of the paper; used by
 * bench/ablation_policy to quantify the value of reacting to *any*
 * packet (the paper's design).
 */
class ThresholdAdaptivePolicy : public QuantumPolicy
{
  public:
    struct Params
    {
        AdaptiveQuantumPolicy::Params base;
        std::uint64_t packetThreshold = 4;
    };

    explicit ThresholdAdaptivePolicy(Params params);

    Tick initialQuantum() const override
    {
        return params_.base.minQuantum;
    }
    Tick next(std::uint64_t packets_last_quantum) override;
    void reset() override;
    std::string name() const override;
    std::unique_ptr<QuantumPolicy> clone() const override;
    void serialize(ckpt::Writer &w) const override;
    void deserialize(ckpt::Reader &r) override;

  private:
    Params params_;
    double q_;
};

/**
 * Ablation variant: symmetric multiplicative-increase /
 * multiplicative-decrease with equal rates, i.e. what the adaptive
 * scheme degrades to without the paper's fast-decrease insight.
 */
class SymmetricAdaptivePolicy : public QuantumPolicy
{
  public:
    explicit SymmetricAdaptivePolicy(AdaptiveQuantumPolicy::Params params);

    Tick initialQuantum() const override { return params_.minQuantum; }
    Tick next(std::uint64_t packets_last_quantum) override;
    void reset() override;
    std::string name() const override;
    std::unique_ptr<QuantumPolicy> clone() const override;
    void serialize(ckpt::Writer &w) const override;
    void deserialize(ckpt::Reader &r) override;

  private:
    AdaptiveQuantumPolicy::Params params_;
    double q_;
};

/**
 * Parse a policy specification string:
 *   "fixed:<ticks>"            e.g. "fixed:100us", "fixed:1us"
 *   "dyn:<inc>:<dec>[:min,max]" e.g. "dyn:1.03:0.02"
 *   "threshold:<inc>:<dec>:<np>"
 *   "symmetric:<factor>"
 * Time suffixes: ns, us, ms. Fatal on malformed input.
 */
std::unique_ptr<QuantumPolicy> parsePolicy(const std::string &spec);

/** Parse "100us" / "1ms" / "250ns" / bare ns count into ticks. */
Tick parseTicks(const std::string &text);

/** Render ticks compactly ("1us", "100us", "1ms", "750ns"). */
std::string formatTicks(Tick t);

} // namespace aqsim::core

#endif // AQSIM_CORE_QUANTUM_POLICY_HH
