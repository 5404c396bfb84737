#include "harness/experiment.hh"

#include "base/logging.hh"
#include "workloads/workload.hh"

namespace aqsim::harness
{

const char *const groundTruthSpec = "fixed:1us";

net::NetworkParams
paperNetwork()
{
    net::NetworkParams params;
    // "We model a 10GB/s NIC with a minimum latency of 1us, a perfect
    // switch with infinite bandwidth and zero latency, and jumbo
    // Ethernet packets (9000 Bytes)."
    params.nic.txLatency = 500;
    params.nic.rxLatency = 500;
    params.nic.bytesPerNs = 10.0;
    params.nic.mtu = 9000;
    params.nic.txOverhead = 100;
    params.switchModel = nullptr; // PerfectSwitch
    return params;
}

engine::ClusterParams
defaultCluster(std::size_t num_nodes, std::uint64_t seed)
{
    engine::ClusterParams params;
    params.numNodes = num_nodes;
    params.network = paperNetwork();
    params.cpu.opsPerNs = 2.6; // 2.6 GHz Opteron at IPC 1
    params.seed = seed;
    return params;
}

std::vector<PolicyConfig>
paperConfigs()
{
    return {
        {"10", "fixed:10us"},
        {"100", "fixed:100us"},
        {"1k", "fixed:1000us"},
        {"dyn 1k 1.03:0.02", "dyn:1.03:0.02:1us:1000us"},
        {"dyn 1k 1.05:0.02", "dyn:1.05:0.02:1us:1000us"},
    };
}

ExperimentOutput
runExperiment(const ExperimentConfig &config)
{
    auto workload = workloads::makeWorkload(config.workload,
                                            config.numNodes,
                                            config.scale);
    auto policy = core::parsePolicy(config.policySpec);

    ExperimentOutput out;
    supervise::RunRequest request;
    request.engineKind = config.engineKind;
    request.engine = config.engine;
    request.cluster = defaultCluster(config.numNodes, config.seed);
    request.workload = workload.get();
    request.policy = policy.get();
    if (config.recordTrace &&
        config.engineKind != supervise::EngineKind::Distributed)
        request.onClusterBuilt = [&out](engine::Cluster &cluster) {
            out.trace.attach(cluster.controller());
        };

    supervise::RunSupervisor supervisor(config.supervise);
    out.result = supervisor.run(request);
    return out;
}

Harness::Harness(double scale, std::uint64_t seed)
    : scale_(scale), seed_(seed)
{}

const engine::RunResult &
Harness::groundTruth(const std::string &workload, std::size_t num_nodes)
{
    const auto key = std::make_pair(workload, num_nodes);
    auto it = groundTruths_.find(key);
    if (it == groundTruths_.end()) {
        ExperimentConfig config;
        config.workload = workload;
        config.numNodes = num_nodes;
        config.scale = scale_;
        config.policySpec = groundTruthSpec;
        config.seed = seed_;
        it = groundTruths_
                 .emplace(key, runExperiment(config).result)
                 .first;
    }
    return it->second;
}

engine::RunResult
Harness::run(const std::string &workload, std::size_t num_nodes,
             const std::string &policy_spec, bool record_timeline)
{
    ExperimentConfig config;
    config.workload = workload;
    config.numNodes = num_nodes;
    config.scale = scale_;
    config.policySpec = policy_spec;
    config.seed = seed_;
    config.engine.recordTimeline = record_timeline;
    return runExperiment(config).result;
}

double
Harness::error(const engine::RunResult &run)
{
    return engine::accuracyError(
        run, groundTruth(run.workload, run.numNodes));
}

double
Harness::speedup(const engine::RunResult &run)
{
    return engine::speedup(run,
                           groundTruth(run.workload, run.numNodes));
}

double
harmonicMean(const std::vector<double> &values)
{
    AQSIM_ASSERT(!values.empty());
    double denom = 0.0;
    for (double v : values) {
        AQSIM_ASSERT(v > 0.0);
        denom += 1.0 / v;
    }
    return static_cast<double>(values.size()) / denom;
}

} // namespace aqsim::harness
