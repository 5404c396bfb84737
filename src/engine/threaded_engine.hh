/**
 * @file
 * Real-parallel execution engine: a persistent worker pool running
 * contiguous node shards, synchronized by an atomic quantum barrier.
 *
 * This engine runs the same Cluster, Synchronizer and NetworkController
 * as the SequentialEngine, but with genuine std::thread parallelism and
 * a real barrier per quantum — the execution style of the paper's
 * actual system. EngineOptions::numWorkers workers (default: hardware
 * concurrency, clamped to the node count) — the run's own thread plus
 * K-1 pool threads — each own ceil(N/K) nodes and run them through
 * the shard loop (engine/shard_exec.hh), so a 64-node cluster does
 * not oversubscribe the host with 64 threads.
 * Host time is measured, not modeled, which makes the engine
 * nondeterministic when quanta exceed the network latency
 * (exactly like the paper's system). With conservative quanta (Q <= T)
 * every delivery crosses a quantum boundary and is merged in a
 * canonical order, so results are bit-identical to the SequentialEngine
 * at every worker count — the property the cross-engine tests verify.
 */

#ifndef AQSIM_ENGINE_THREADED_ENGINE_HH
#define AQSIM_ENGINE_THREADED_ENGINE_HH

#include "core/quantum_policy.hh"
#include "engine/cluster.hh"
#include "engine/run_result.hh"
#include "engine/sequential_engine.hh"

namespace aqsim::engine
{

/** Sharded worker-pool parallel engine with measured wall-clock. */
class ThreadedEngine
{
  public:
    explicit ThreadedEngine(EngineOptions options = {});

    /** Run @p workload under @p policy on a freshly built cluster. */
    RunResult run(const ClusterParams &params,
                  workloads::Workload &workload,
                  core::QuantumPolicy &policy);

    /** Run on an externally constructed cluster. */
    RunResult run(Cluster &cluster, core::QuantumPolicy &policy);

    const EngineOptions &options() const { return options_; }

  private:
    EngineOptions options_;
};

} // namespace aqsim::engine

#endif // AQSIM_ENGINE_THREADED_ENGINE_HH
