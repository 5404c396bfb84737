/**
 * @file
 * Workload framework: guest application programs.
 *
 * A Workload produces one coroutine program per rank, written against
 * the AppContext facade (compute + message passing). Workloads are
 * communication skeletons of the paper's benchmarks: they reproduce
 * the published compute/communication structure of each application,
 * which is what determines how synchronization error perturbs the
 * application-reported metric (see DESIGN.md §2).
 */

#ifndef AQSIM_WORKLOADS_WORKLOAD_HH
#define AQSIM_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "mpi/collectives.hh"
#include "mpi/communicator.hh"
#include "node/node_simulator.hh"
#include "sim/process.hh"

namespace aqsim::workloads
{

/**
 * Awaitable modeling a compute burst: marks the CPU busy (which the
 * host-cost model prices at the full simulation slowdown) and resumes
 * after the modeled latency.
 */
class ComputeAwaitable
{
  public:
    ComputeAwaitable(node::NodeSimulator &node, double ops)
        : node_(node), ops_(ops)
    {}

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        const Tick latency = node_.cpu().computeLatency(ops_);
        node_.cpu().beginCompute();
        node_.queue().scheduleIn(latency, [this, h] {
            node_.cpu().endCompute();
            h.resume();
        });
    }

    void await_resume() const noexcept {}

  private:
    node::NodeSimulator &node_;
    double ops_;
};

/** Per-rank execution context handed to workload programs. */
class AppContext
{
  public:
    AppContext(node::NodeSimulator &node, mpi::Endpoint &comm, Rng rng)
        : node_(node), comm_(comm), rng_(rng)
    {}

    Rank rank() const { return comm_.rank(); }
    std::size_t numRanks() const { return comm_.numRanks(); }
    mpi::Endpoint &comm() { return comm_; }
    node::NodeSimulator &node() { return node_; }
    sim::EventQueue &queue() { return node_.queue(); }
    /** A coroutine taking an AppContext & (a workload's program) gets
     * its frame from this rank's node (sim/frame_pool.hh). */
    sim::FramePool &framePool() { return node_.framePool(); }
    Tick now() const { return node_.queue().now(); }
    Rng &rng() { return rng_; }
    const Rng &rng() const { return rng_; }

    /** Execute @p ops operations on the node CPU. */
    ComputeAwaitable
    compute(double ops)
    {
        return ComputeAwaitable(node_, ops);
    }

    /** Plain simulated delay (sleep; guest counted idle). */
    sim::DelayAwaitable
    delay(Tick ticks)
    {
        return sim::DelayAwaitable(node_.queue(), ticks);
    }

    /**
     * @return ops jittered by a relative normal perturbation; models
     * data-dependent and system-noise variation across ranks and
     * iterations (the load imbalance real benchmarks exhibit).
     */
    double
    jitter(double ops, double rel_sigma)
    {
        return ops * std::max(0.05, 1.0 + rel_sigma * rng_.normal());
    }

  private:
    node::NodeSimulator &node_;
    mpi::Endpoint &comm_;
    Rng rng_;
};

/** A distributed application to run on the simulated cluster. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name ("nas.is", "namd", ...). */
    virtual std::string name() const = 0;

    /** How the benchmark reports its own performance. */
    enum class MetricKind
    {
        /** Rate metric: MOPS (NAS); higher is better. */
        RateMops,
        /** Wall-clock seconds (NAMD); lower is better. */
        WallClockSeconds,
    };

    virtual MetricKind metricKind() const = 0;

    /**
     * Total operation count the benchmark self-reports against
     * (meaningful for RateMops workloads).
     */
    virtual double totalOps() const { return 0.0; }

    /** Per-rank guest program. @p ctx outlives the coroutine. */
    virtual sim::Process program(AppContext &ctx) = 0;

    /**
     * The benchmark's self-reported metric given its completion time —
     * how the paper derives accuracy (NAS reports MOPS, NAMD reports
     * wall-clock).
     */
    double metricValue(Tick completion_tick) const;
};

/**
 * Create a workload by name: "nas.ep", "nas.is", "nas.cg", "nas.mg",
 * "nas.lu", "namd", "pingpong", "burst", "random".
 *
 * @param num_ranks cluster size the problem is partitioned across
 * @param scale relative problem scale (1.0 = default benching size)
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::size_t num_ranks,
                                       double scale = 1.0);

/** Names accepted by makeWorkload, in canonical order. */
std::vector<std::string> workloadNames();

/**
 * Map a NAS-style problem class to a scale factor for makeWorkload:
 * 'S' (smoke), 'W' (workstation), 'A' (the paper's benching size) or
 * 'B' (4x A). Fatal on unknown classes.
 */
double scaleForClass(char problem_class);

/** The five NAS skeleton names, in the paper's order. */
std::vector<std::string> nasWorkloadNames();

} // namespace aqsim::workloads

#endif // AQSIM_WORKLOADS_WORKLOAD_HH
