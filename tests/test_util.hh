/** Shared helpers for aqsim tests. */

#ifndef AQSIM_TESTS_TEST_UTIL_HH
#define AQSIM_TESTS_TEST_UTIL_HH

#include <functional>
#include <memory>
#include <string>

#include "core/quantum_policy.hh"
#include "engine/cluster.hh"
#include "engine/sequential_engine.hh"
#include "harness/experiment.hh"
#include "net/packet.hh"
#include "workloads/workload.hh"

namespace aqsim::test
{

/**
 * A payload-less frame from @p src to @p dst of @p bytes, handed to
 * the NIC and departed at @p send (the controller's input shape).
 */
inline net::Packet
frame(NodeId src, NodeId dst, std::uint32_t bytes, Tick send)
{
    net::Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.bytes = bytes;
    pkt.sendTick = send;
    pkt.departTick = send;
    pkt.idealArrival = send;
    return pkt;
}

/**
 * A test's own heap copy of a frame: what a recording scheduler keeps
 * of each placement, read after the placing call has returned.
 */
using FrameCopy = std::shared_ptr<net::Packet>;

inline FrameCopy
copyOf(const net::Packet &pkt)
{
    return std::make_shared<net::Packet>(pkt);
}

/** Workload whose per-rank program is a caller-provided lambda. */
class LambdaWorkload : public workloads::Workload
{
  public:
    using ProgramFn =
        std::function<sim::Process(workloads::AppContext &)>;

    explicit LambdaWorkload(ProgramFn fn, std::string name = "lambda")
        : fn_(std::move(fn)), name_(std::move(name))
    {}

    std::string name() const override { return name_; }

    MetricKind
    metricKind() const override
    {
        return MetricKind::WallClockSeconds;
    }

    sim::Process
    program(workloads::AppContext &ctx) override
    {
        return fn_(ctx);
    }

  private:
    ProgramFn fn_;
    std::string name_;
};

/** Noise-free engine options for exactly reproducible host times. */
inline engine::EngineOptions
quietEngine()
{
    engine::EngineOptions options;
    options.host.noiseSigma = 0.0;
    return options;
}

/**
 * Run @p fn as every rank's program on an n-node cluster under the
 * given policy spec, on the SequentialEngine.
 */
inline engine::RunResult
runLambda(std::size_t num_nodes, LambdaWorkload::ProgramFn fn,
          const std::string &policy_spec = "fixed:1us",
          engine::EngineOptions options = {},
          std::uint64_t seed = 1)
{
    LambdaWorkload workload(std::move(fn));
    auto policy = core::parsePolicy(policy_spec);
    auto params = harness::defaultCluster(num_nodes, seed);
    engine::SequentialEngine engine(options);
    return engine.run(params, workload, *policy);
}

/**
 * Like runLambda, but on caller-provided cluster parameters (fault
 * injection, reliable delivery, custom seeds) and engine options.
 */
inline engine::RunResult
runLambdaCluster(const engine::ClusterParams &params,
                 LambdaWorkload::ProgramFn fn,
                 const std::string &policy_spec = "fixed:1us",
                 engine::EngineOptions options = {})
{
    LambdaWorkload workload(std::move(fn));
    auto policy = core::parsePolicy(policy_spec);
    engine::SequentialEngine engine(options);
    return engine.run(params, workload, *policy);
}

} // namespace aqsim::test

#endif // AQSIM_TESTS_TEST_UTIL_HH
