/**
 * @file
 * Cluster assembly: nodes + endpoints + controller + workload programs.
 *
 * A Cluster wires together everything a run needs, mirroring the
 * paper's Figure 1: N full-system node simulators, each bridged through
 * its NIC to the central network controller, each running one rank of
 * the distributed application.
 *
 * The Cluster also owns the cluster-state layout of a checkpoint
 * image: it writes the nodes, mpi, net, fault and workload sections,
 * from the live cluster or spliced from the node-range slices a
 * distributed run gathers (docs/checkpoint-restore.md).
 */

#ifndef AQSIM_ENGINE_CLUSTER_HH
#define AQSIM_ENGINE_CLUSTER_HH

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "base/block.hh"
#include "base/random.hh"
#include "base/types.hh"
#include "ckpt/ckpt_io.hh"
#include "fault/fault_injector.hh"
#include "mpi/communicator.hh"
#include "net/network_controller.hh"
#include "node/cpu_model.hh"
#include "node/node_simulator.hh"
#include "stats/output.hh"
#include "stats/stats.hh"
#include "workloads/workload.hh"

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

/**
 * One process's share of the cluster state at a quantum boundary
 * (Cluster::slice): what a distributed gather ships to process 0.
 */
struct ClusterSlice
{
    /** The range's bytes of the nodes, mpi and workload sections,
     * without their count prefixes. */
    std::vector<std::uint8_t> nodes;
    std::vector<std::uint8_t> mpi;
    std::vector<std::uint8_t> workload;
    /** The fault-link streams whose source lies in the range (empty
     * on a perfect network). */
    std::vector<std::uint8_t> faultLinks;
    /** This process's fault-injector totals (dropped, duplicated,
     * corrupted, delayed): only its own nodes sent through it. */
    fault::FaultInjector::Totals faultTotals{};
    /** The range's completion ticks, one per node. */
    std::vector<Tick> finishTicks;
    /** The range's reliable-mode retransmissions. */
    std::uint64_t retransmits = 0;
};

/** A whole cluster's state: its checkpoint sections and the outcome a
 * RunResult reports (Cluster::state, Cluster::splice). */
struct ClusterState
{
    /** The nodes, mpi, net, fault and workload sections, in file
     * order. */
    std::vector<ckpt::Section> sections;
    std::vector<Tick> finishTicks;
    std::uint64_t retransmits = 0;
    fault::FaultInjector::Totals faultTotals{};

    /** The fingerprint of the sections (Cluster::stateHash). */
    std::uint64_t hash() const;
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
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

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

    /** @return true once every rank in [@p begin, @p end) has
     * completed its program. */
    bool allDone(NodeId begin, NodeId end) const;
    bool allDone() const { return allDone(0, nodeCount()); }

    /** @return true if any node in [@p begin, @p end) has a pending
     * event. */
    bool anyEventPending(NodeId begin, NodeId end) const;
    bool anyEventPending() const { return anyEventPending(0, nodeCount()); }

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

    /** Every state section plus the run's outcome, from this live
     * cluster. */
    ClusterState state() const;

    /** FNV-1a fingerprint over every serialized section. */
    std::uint64_t stateHash() const;

    /**
     * The share of state() that nodes [@p begin, @p end) own, plus
     * this process's fault totals: a distributed process ran only
     * those nodes, so only their bytes are its to report.
     */
    ClusterSlice slice(NodeId begin, NodeId end) const;

    /**
     * Rebuild state() from @p slices, which cover every node in
     * order, byte for byte: per-node bytes are concatenated under one
     * count, fault totals are summed, and the net section comes from
     * this cluster (process 0's replica, whose controller holds the
     * absorbed global counters; the default PerfectSwitch keeps no
     * state).
     */
    ClusterState splice(const std::vector<ClusterSlice> &slices) const;

    /**
     * A slice's wire encoding: the nodes, mpi, workload and fault-link
     * blobs (Writer::blob), the four fault totals, the finish-tick
     * count and ticks, and the retransmits.
     */
    static void writeSlice(ckpt::Writer &w, const ClusterSlice &slice);

    /**
     * Decode a writeSlice() of nodes [@p begin, @p end) of this
     * cluster. @return false if it is truncated, holds another node
     * count, or holds fault-link streams exactly when this cluster
     * has no fault injector.
     */
    bool readSlice(ckpt::Reader &r, NodeId begin, NodeId end,
                   ClusterSlice &slice) const;

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
    NodeId nodeCount() const { return static_cast<NodeId>(nodes_.size()); }

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
    /**
     * Every node's CPU model, NodeSimulator, Endpoint and AppContext,
     * node by node, then every program's coroutine frame: built in
     * place, destroyed by ~Cluster (docs/performance.md, "A cluster
     * owns its nodes' memory").
     */
    base::Block block_;
    std::vector<node::NodeSimulator *> nodes_;
    std::vector<mpi::Endpoint *> endpoints_;
    std::vector<workloads::AppContext *> contexts_;
};

} // namespace aqsim::engine

#endif // AQSIM_ENGINE_CLUSTER_HH
