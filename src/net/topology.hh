/**
 * @file
 * Multi-hop network topologies as switch timing models.
 *
 * The paper's evaluation uses a single perfect switch, but notes that
 * "within a network controller, adding a timing component is a
 * straightforward task: we can model any kind of
 * network/switch/router topology by making packets take more or less
 * (simulated) time to reach their endpoints". This module provides
 * that: a TopologySwitch prices each frame by its hop count on a
 * configurable topology (ring, 2-D mesh/torus, two-level tree/fat
 * tree), with per-hop latency and per-link serialization.
 *
 * Because a topology raises the *minimum* network latency T between
 * some node pairs, it directly enlarges the safe quantum — the
 * lookahead observation from conservative PDES. minTraversal()
 * reports the smallest pair latency so the synchronizer's safety rule
 * stays correct.
 */

#ifndef AQSIM_NET_TOPOLOGY_HH
#define AQSIM_NET_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/mutex.hh"
#include "net/switch_model.hh"

namespace aqsim::net
{

/** Supported topology shapes. */
enum class TopologyKind
{
    /** Single crossbar: every pair is one hop. */
    Star,
    /** Bidirectional ring: hops = ring distance. */
    Ring,
    /** 2-D mesh without wraparound: hops = Manhattan distance. */
    Mesh2D,
    /** 2-D torus: hops = wrapped Manhattan distance. */
    Torus2D,
    /**
     * Two-level tree: nodes attach to leaf switches of
     * `radix` ports; leaf switches attach to one root. Same-leaf
     * pairs take 1 hop, cross-leaf pairs take 3.
     */
    Tree2Level,
};

/** Parse "star", "ring", "mesh", "torus", "tree". */
TopologyKind parseTopology(const std::string &name);

/** Human-readable name of a topology kind. */
std::string topologyName(TopologyKind kind);

/** Configuration of a TopologySwitch. */
struct TopologyParams
{
    TopologyKind kind = TopologyKind::Star;
    /** Latency of each switch-to-switch / node-to-switch hop. */
    Tick hopLatency = 200;
    /** Link bandwidth in bytes per ns (serialization per hop chain
     * is paid once, on the narrowest link). */
    double bytesPerNs = 10.0;
    /** Ports per leaf switch (Tree2Level only). */
    std::size_t radix = 8;
    /** Model per-destination-port contention (output queueing). */
    bool contention = true;
};

/**
 * Hop-count based switch timing model over a fixed topology. Sources
 * on different threads share the output ports, so the port state has
 * its own mutex.
 */
class TopologySwitch : public SwitchModel
{
  public:
    TopologySwitch(std::size_t num_nodes, TopologyParams params);

    Tick egress(NodeId src, NodeId dst, std::uint32_t bytes,
                Tick ingress) override;

    Tick minTraversal() const override;

    void reset() override;

    /** Checkpoint support: persist the output-port occupancy. */
    void serialize(ckpt::Writer &w) const override;

    /** Number of hops between two nodes on this topology. */
    std::size_t hops(NodeId src, NodeId dst) const;

    /** Largest hop count between any pair (network diameter). */
    std::size_t diameter() const;

    const TopologyParams &params() const { return params_; }

  private:
    std::size_t numNodes_;
    TopologyParams params_;
    /** 2-D grid extents (Mesh2D / Torus2D). */
    std::size_t gridX_ = 1;
    std::size_t gridY_ = 1;
    mutable base::Mutex mutex_;
    /** Output-port occupancy per destination node. */
    std::vector<Tick> portBusyUntil_ AQSIM_GUARDED_BY(mutex_);
};

} // namespace aqsim::net

#endif // AQSIM_NET_TOPOLOGY_HH
