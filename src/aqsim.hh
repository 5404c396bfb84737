/**
 * @file
 * Umbrella header: the aqsim public API in one include.
 *
 *     #include <aqsim.hh>
 *
 * brings in everything a downstream user needs to build and run
 * cluster-simulation experiments: cluster construction, quantum
 * policies, both execution engines, the workload library, tracing and
 * the experiment harness. Individual headers remain includable for
 * finer-grained dependencies.
 */

#ifndef AQSIM_AQSIM_HH
#define AQSIM_AQSIM_HH

// Fundamentals
#include "base/args.hh"
#include "base/csv.hh"
#include "base/debug.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/types.hh"

// Runtime invariant checking
#include "check/invariants.hh"

// Simulation kernel
#include "sim/event_queue.hh"
#include "sim/process.hh"

// Statistics
#include "stats/output.hh"
#include "stats/stats.hh"

// Network substrate
#include "net/network_controller.hh"
#include "net/packet.hh"
#include "net/switch_model.hh"
#include "net/topology.hh"

// Node substrate
#include "node/cpu_model.hh"
#include "node/host_cost_model.hh"
#include "node/nic_model.hh"
#include "node/node_simulator.hh"

// Message passing
#include "mpi/collectives.hh"
#include "mpi/communicator.hh"
#include "mpi/message.hh"

// The paper's contribution: adaptive quantum synchronization
#include "core/quantum_policy.hh"
#include "core/sync_stats.hh"
#include "core/synchronizer.hh"

// Execution engines
#include "engine/cluster.hh"
#include "engine/distributed_engine.hh"
#include "engine/run_result.hh"
#include "engine/sequential_engine.hh"
#include "engine/threaded_engine.hh"

// Workloads
#include "workloads/namd.hh"
#include "workloads/nas_cg.hh"
#include "workloads/nas_ep.hh"
#include "workloads/nas_is.hh"
#include "workloads/nas_lu.hh"
#include "workloads/nas_mg.hh"
#include "workloads/synthetic.hh"
#include "workloads/workload.hh"

// Tracing and visualization
#include "trace/ascii_plot.hh"
#include "trace/packet_trace.hh"
#include "trace/timeline.hh"

// Fault injection and chaos scenarios
#include "fault/chaos.hh"
#include "fault/fault_injector.hh"
#include "fault/peer_drill.hh"

// Inter-process transport (distributed engine substrate)
#include "transport/frame.hh"
#include "transport/heartbeat.hh"
#include "transport/socket.hh"

// Self-healing run supervision
#include "supervise/escalation.hh"
#include "supervise/incident_log.hh"
#include "supervise/run_supervisor.hh"

// Experiment harness
#include "harness/experiment.hh"
#include "harness/pareto.hh"
#include "harness/report.hh"

#endif // AQSIM_AQSIM_HH
