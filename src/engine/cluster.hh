/**
 * @file
 * Cluster assembly: nodes + endpoints + controller + workload programs.
 *
 * A Cluster wires together everything a run needs, mirroring the
 * paper's Figure 1: N full-system node simulators, each bridged through
 * its NIC to the central network controller, each running one rank of
 * the distributed application.
 */

#ifndef AQSIM_ENGINE_CLUSTER_HH
#define AQSIM_ENGINE_CLUSTER_HH

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "fault/fault_injector.hh"
#include "mpi/communicator.hh"
#include "net/network_controller.hh"
#include "node/cpu_model.hh"
#include "node/node_simulator.hh"
#include "stats/output.hh"
#include "stats/stats.hh"
#include "workloads/workload.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::engine
{

/** Static configuration of a simulated cluster. */
struct ClusterParams
{
    std::size_t numNodes = 2;
    net::NetworkParams network;
    node::CpuParams cpu;
    /**
     * Optional per-node CPU speed multipliers (heterogeneous
     * clusters, the paper's "more complex clusters" future work).
     * Empty = homogeneous; otherwise must hold numNodes entries.
     */
    std::vector<double> cpuSpeedFactors;
    mpi::EndpointParams mpiParams;
    /** Use the sampling CPU model (the paper's future-work extension). */
    bool samplingCpu = false;
    node::SamplingCpuModel::Params sampling;
    /**
     * Fault-injection configuration (all-zero = perfect network, no
     * injector is constructed). Fault randomness derives from the
     * master seed, so runs are reproducible across engines.
     */
    fault::FaultParams faults;
    /** Master seed; all run randomness derives from it. */
    std::uint64_t seed = 1;
};

/** A fully wired simulated cluster ready to be driven by an engine. */
class Cluster
{
  public:
    /**
     * Build the cluster and install one rank of @p workload per node.
     * The workload must outlive the cluster.
     */
    Cluster(const ClusterParams &params, workloads::Workload &workload);

    std::size_t numNodes() const { return nodes_.size(); }
    node::NodeSimulator &node(NodeId id) { return *nodes_.at(id); }
    mpi::Endpoint &endpoint(NodeId id) { return *endpoints_.at(id); }
    net::NetworkController &controller() { return *controller_; }
    /** @return the fault injector, or nullptr on a perfect network. */
    fault::FaultInjector *faultInjector() { return faults_.get(); }
    /**
     * The stats root: the cluster-wide groups (network, faults, sync).
     * Per-node stats are not registered here; find() still resolves
     * "node<i>.<nic|mpi>.<counter>" through a view made on the first
     * lookup of that path and kept for the cluster's lifetime.
     */
    stats::Group &statsRoot() { return statsRoot_; }
    const stats::Group &statsRoot() const { return statsRoot_; }
    workloads::Workload &workload() { return workload_; }
    const ClusterParams &params() const { return params_; }

    /** @return true once every rank's program has completed. */
    bool allDone() const;

    /** @return per-rank completion ticks. */
    std::vector<Tick> finishTicks() const;

    /** @return true if any node has a pending event. */
    bool anyEventPending() const;

    /** @return reliable-mode retransmissions summed over endpoints. */
    std::uint64_t totalRetransmits() const;

    /**
     * Describe per-node progress for deadlock diagnostics (posted
     * receives, pending events, clocks). A clock behind
     * @p clock_floor — the quantum start, for a node an engine left
     * idle rather than snapping it to each boundary — is reported as
     * the floor.
     */
    std::string progressReport(Tick clock_floor = 0) const;

    /**
     * Checkpoint support: each method fills one checkpoint section
     * with the corresponding layer's architectural state (see
     * docs/checkpoint-restore.md for the section layout).
     */
    void serializeNodes(ckpt::Writer &w) const;
    void serializeMpi(ckpt::Writer &w) const;
    void serializeNet(ckpt::Writer &w) const;
    void serializeFault(ckpt::Writer &w) const;
    void serializeWorkload(ckpt::Writer &w) const;

    /**
     * Partition-range serialization (DistributedEngine state gather):
     * the body bytes of nodes [begin, end) for each per-node section,
     * *without* the count prefix — the coordinator splices the peers'
     * ranges back together in node order under one u32(numNodes)
     * prefix, reproducing the whole-cluster encodings byte for byte.
     */
    void serializeNodeRange(ckpt::Writer &w, NodeId begin,
                            NodeId end) const;
    void serializeMpiRange(ckpt::Writer &w, NodeId begin,
                           NodeId end) const;
    void serializeWorkloadRange(ckpt::Writer &w, NodeId begin,
                                NodeId end) const;

    /** FNV-1a fingerprint over every serialized section. */
    std::uint64_t stateHash() const;

    /**
     * Append the per-node stat values (stats::appendValues of every
     * node's nic then mpi descriptors) of nodes [begin, end) to
     * @p out, in node order.
     */
    void appendNodeStats(NodeId begin, NodeId end,
                         std::vector<std::uint64_t> &out) const;

    /**
     * Dump with these node stat values (appendNodeStats over every
     * node) in place of the nodes' own: a distributed run's nodes ran
     * in other processes.
     */
    void adoptNodeStats(std::vector<std::uint64_t> values);

    /** Dump every stat: the cluster-wide groups and every node's. */
    void dumpStats(std::ostream &out, stats::Format format) const;

  private:
    /** The stats root's lookup of node counters. */
    class StatsRoot : public stats::Group
    {
      public:
        explicit StatsRoot(const Cluster &cluster)
            : Group("cluster"), cluster_(cluster)
        {}

        /** Single-threaded: a node path's first lookup makes its view. */
        const stats::Stat *find(const std::string &path) const override;

      private:
        const Cluster &cluster_;
        mutable std::map<std::string, std::unique_ptr<stats::Stat>>
            views_;
    };

    ClusterParams params_;
    workloads::Workload &workload_;
    StatsRoot statsRoot_;
    /** Where the nodes come in the dump: after the groups built with
     * the cluster (network, faults), before later ones (sync). */
    std::size_t nodeStatsAt_ = 0;
    /** Values adopted from other processes (adoptNodeStats). */
    std::vector<std::uint64_t> adoptedNodeStats_;
    std::unique_ptr<net::NetworkController> controller_;
    std::unique_ptr<fault::FaultInjector> faults_;
    std::vector<std::unique_ptr<node::NodeSimulator>> nodes_;
    std::vector<std::unique_ptr<mpi::Endpoint>> endpoints_;
    std::vector<std::unique_ptr<workloads::AppContext>> contexts_;
};

} // namespace aqsim::engine

#endif // AQSIM_ENGINE_CLUSTER_HH
