/**
 * @file
 * Experiment harness: turn (workload, nodes, policy) into results,
 * with the paper's configuration set and ground-truth caching.
 *
 * The ground truth everywhere is the deterministic fixed 1 us quantum
 * (Q = T, the minimum network latency), exactly as in the paper's
 * Section 5: "the 1 us model is our baseline and the only
 * deterministically correct execution".
 */

#ifndef AQSIM_HARNESS_EXPERIMENT_HH
#define AQSIM_HARNESS_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/quantum_policy.hh"
#include "engine/cluster.hh"
#include "engine/run_result.hh"
#include "engine/sequential_engine.hh"
#include "supervise/run_supervisor.hh"
#include "trace/packet_trace.hh"

namespace aqsim::harness
{

/** The paper's evaluation network: 10 GB/s NIC, 1 us total latency,
 * perfect switch, 9000 B jumbo frames. */
net::NetworkParams paperNetwork();

/** Default cluster configuration for @p num_nodes. */
engine::ClusterParams defaultCluster(std::size_t num_nodes,
                                     std::uint64_t seed = 1);

/** Policy spec of the ground truth: "fixed:1us". */
extern const char *const groundTruthSpec;

/** A named policy configuration, as labelled in the paper's charts. */
struct PolicyConfig
{
    std::string label; // e.g. "10", "1k", "dyn 1k 1.03:0.02"
    std::string spec;  // parsePolicy() input
};

/** The five comparison configs of Figs. 6-8 (fixed 10/100/1000 us,
 * dyn 1.03:0.02, dyn 1.05:0.02). */
std::vector<PolicyConfig> paperConfigs();

/** One experiment request. */
struct ExperimentConfig
{
    std::string workload;
    std::size_t numNodes = 2;
    double scale = 1.0;
    std::string policySpec = "fixed:1us";
    std::uint64_t seed = 1;
    bool recordTrace = false;
    /** Engine selection (sequential, threaded, or the multi-process
     * distributed engine). Distributed runs ignore recordTrace: the
     * controller executing packets lives in the worker processes. */
    supervise::EngineKind engineKind =
        supervise::EngineKind::Sequential;
    engine::EngineOptions engine;
    /**
     * Self-healing supervision (off by default: one plain engine
     * run). When enabled, failures restore from the newest good
     * checkpoint and retry within the restart budget; see
     * docs/supervision.md.
     */
    supervise::SuperviseOptions supervise;
};

/** Result bundle: the run plus the optional packet trace. */
struct ExperimentOutput
{
    engine::RunResult result;
    trace::PacketTrace trace;
};

/**
 * Execute one experiment on the selected engine, routed through the
 * run supervisor (the harness's only path to an engine; a disabled
 * supervisor degenerates to one plain run).
 */
ExperimentOutput runExperiment(const ExperimentConfig &config);

/**
 * Caches ground-truth runs so a sweep over many policies pays for the
 * expensive 1 us baseline once per (workload, nodes).
 */
class Harness
{
  public:
    explicit Harness(double scale = 1.0, std::uint64_t seed = 1);

    /** Ground-truth result for (workload, nodes), cached. */
    const engine::RunResult &groundTruth(const std::string &workload,
                                         std::size_t num_nodes);

    /** Run a policy configuration (no timeline/trace). */
    engine::RunResult run(const std::string &workload,
                          std::size_t num_nodes,
                          const std::string &policy_spec,
                          bool record_timeline = false);

    /** Accuracy error vs. the cached ground truth. */
    double error(const engine::RunResult &run);

    /** Host speedup vs. the cached ground truth. */
    double speedup(const engine::RunResult &run);

    double scale() const { return scale_; }
    std::uint64_t seed() const { return seed_; }

  private:
    double scale_;
    std::uint64_t seed_;
    std::map<std::pair<std::string, std::size_t>, engine::RunResult>
        groundTruths_;
};

/**
 * Harmonic mean (the paper's NAS aggregation: "NAS results are
 * provided in MOPS and aggregated through a harmonic mean").
 */
double harmonicMean(const std::vector<double> &values);

} // namespace aqsim::harness

#endif // AQSIM_HARNESS_EXPERIMENT_HH
