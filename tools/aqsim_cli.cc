/**
 * @file
 * aqsim command-line driver: run any cluster-simulation experiment
 * without writing code.
 *
 *   aqsim_cli --workload nas.is --nodes 8 --policy dyn:1.03:0.02 \
 *             [--class A | --scale S] [--seed N]
 *             [--engine sequential|threaded|distributed] [--workers K]
 *             [--topology star|ring|mesh|torus|tree] [--hop-latency T]
 *             [--sampling F] [--noise SIGMA]
 *             [--drop P] [--duplicate P] [--corrupt P]  # fault rates
 *             [--jitter-rate P --jitter-max T]          # reorder jitter
 *             [--link-down a-b:FROM:TO[,...]]           # outage windows
 *             [--node-crash n:FROM:TO[,...]]
 *             [--node-pause n:FROM:TO[,...]]
 *             [--chaos name[:k=v,...][+name...]]  # scenario campaigns
 *             [--reliable] [--retry-timeout T]  # ack + retransmit mode
 *             [--watchdog SECONDS]     # hang detector (0 = off)
 *             [--supervise]            # self-healing restore/retry
 *             [--max-restarts N] [--backoff SECONDS]
 *             [--incident-log FILE.jsonl]
 *             [--inject-fail a:q[:watchdog][,...]]  # recovery drills
 *             [--peer-deadline SECONDS]  # heartbeats every tenth
 *             [--peer-drill op:peer=P[,quantum=Q][,phase=...][;...]]
 *             [--phase-stats]          # exchange-phase timings

 *             [--checkpoint-every N --checkpoint-dir DIR]
 *             [--restore FILE|DIR]
 *             [--checkpoint-keep N]    # rotation (0 = unlimited)
 *             [--baseline]             # also run the 1us ground truth
 *             [--sweep spec1,spec2,...] # compare several policies
 *             [--stats] [--stats-csv]  # dump the statistics tree
 *             [--check]                # runtime invariant checking
 *             [--debug-flags Quantum,Mpi,...]  # trace to stderr
 *             [--timeline FILE.csv]    # per-quantum records
 *             [--trace FILE.csv]       # packet trace
 *             [--quiet]
 *
 * Exit code 0 on success; fatal configuration errors exit 1;
 * --check exits 2 if any runtime invariant was violated.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "aqsim.hh"

using namespace aqsim;

namespace
{

/** Split a comma-separated list into its non-empty elements. */
std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    for (std::size_t start = 0; start <= csv.size();) {
        auto end = csv.find(',', start);
        if (end == std::string::npos)
            end = csv.size();
        if (end > start)
            out.push_back(csv.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

/**
 * @return the file path given to --@p name, or "" if the flag is
 * absent. A bare flag (parsed as "true") is an error, not a file name.
 */
std::string
outputPath(const Args &args, const char *name)
{
    const std::string path = args.getString(name, "");
    if (args.has(name) && (path.empty() || path == "true"))
        fatal("--%s needs a file path (--%s FILE.csv)", name, name);
    return path;
}

/** Parse "<head>:FROM:TO" (times via parseTicks) into head + window. */
std::string
parseWindowSpec(const std::string &spec, Tick &from, Tick &to)
{
    const auto first = spec.find(':');
    const auto second =
        first == std::string::npos ? first : spec.find(':', first + 1);
    if (first == std::string::npos || second == std::string::npos)
        fatal("expected <id>:<from>:<to>, got '%s'", spec.c_str());
    from = core::parseTicks(spec.substr(first + 1,
                                        second - first - 1));
    to = core::parseTicks(spec.substr(second + 1));
    return spec.substr(0, first);
}

NodeId
parseNodeId(const std::string &text, const std::string &spec)
{
    char *end = nullptr;
    const long id = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || id < 0)
        fatal("bad node id '%s' in '%s'", text.c_str(), spec.c_str());
    return static_cast<NodeId>(id);
}

fault::FaultParams
buildFaultParams(const Args &args)
{
    fault::FaultParams faults;
    faults.dropRate = args.getDouble("drop", 0.0);
    faults.duplicateRate = args.getDouble("duplicate", 0.0);
    faults.corruptRate = args.getDouble("corrupt", 0.0);
    faults.jitterRate = args.getDouble("jitter-rate", 0.0);
    if (args.has("jitter-max"))
        faults.maxJitterTicks =
            core::parseTicks(args.getString("jitter-max", "0"));

    for (const auto &spec :
         splitList(args.getString("link-down", ""))) {
        fault::LinkWindow w;
        const std::string link = parseWindowSpec(spec, w.from, w.to);
        const auto dash = link.find('-');
        if (dash == std::string::npos)
            fatal("expected <a>-<b>:<from>:<to>, got '%s'",
                  spec.c_str());
        w.a = parseNodeId(link.substr(0, dash), spec);
        w.b = parseNodeId(link.substr(dash + 1), spec);
        faults.linkDown.push_back(w);
    }
    for (const auto &spec :
         splitList(args.getString("node-crash", ""))) {
        fault::NodeWindow w;
        w.node = parseNodeId(parseWindowSpec(spec, w.from, w.to), spec);
        faults.nodeCrash.push_back(w);
    }
    for (const auto &spec :
         splitList(args.getString("node-pause", ""))) {
        fault::NodeWindow w;
        w.node = parseNodeId(parseWindowSpec(spec, w.from, w.to), spec);
        faults.nodePause.push_back(w);
    }
    return faults;
}

engine::ClusterParams
buildClusterParams(const Args &args, std::size_t nodes,
                   std::uint64_t seed)
{
    auto params = harness::defaultCluster(nodes, seed);

    const std::string topology = args.getString("topology", "star");
    const Tick hop = core::parseTicks(
        args.getString("hop-latency", "200ns"));
    if (topology != "star" || args.has("hop-latency")) {
        net::TopologyParams topo;
        topo.kind = net::parseTopology(topology);
        topo.hopLatency = hop;
        params.network.switchModel =
            std::make_shared<net::TopologySwitch>(nodes, topo);
    }

    const double sampling = args.getDouble("sampling", 1.0);
    if (sampling < 1.0) {
        params.samplingCpu = true;
        params.sampling.detailFraction = sampling;
    }

    params.faults = buildFaultParams(args);
    if (args.has("chaos"))
        fault::applyChaos(params.faults, args.getString("chaos", ""),
                          nodes, seed);
    params.mpiParams.reliable = args.getBool("reliable", false);
    if (args.has("retry-timeout"))
        params.mpiParams.retryTimeout =
            core::parseTicks(args.getString("retry-timeout", "50us"));
    return params;
}

std::uint64_t
parseCount(const std::string &text, const std::string &spec)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        fatal("bad count '%s' in '%s'", text.c_str(), spec.c_str());
    return static_cast<std::uint64_t>(v);
}

supervise::SuperviseOptions
buildSuperviseOptions(const Args &args)
{
    supervise::SuperviseOptions sup;
    sup.enabled = args.getBool("supervise", false);
    sup.maxRestarts =
        static_cast<std::uint64_t>(args.getInt("max-restarts", 5));
    sup.backoffBaseSeconds = args.getDouble("backoff", 0.25);
    sup.incidentLogPath = args.getString("incident-log", "");

    // "attempt:quantum[:watchdog]" — fail attempt N after quantum Q,
    // either as a direct abort or through the watchdog panic path.
    for (const auto &spec :
         splitList(args.getString("inject-fail", ""))) {
        supervise::InjectedFailure f;
        const auto first = spec.find(':');
        if (first == std::string::npos)
            fatal("expected <attempt>:<quantum>[:watchdog], got '%s'",
                  spec.c_str());
        const auto second = spec.find(':', first + 1);
        f.attempt = parseCount(spec.substr(0, first), spec);
        const auto quantum_end =
            second == std::string::npos ? spec.size() : second;
        f.afterQuantum = parseCount(
            spec.substr(first + 1, quantum_end - first - 1), spec);
        if (second != std::string::npos) {
            const std::string kind = spec.substr(second + 1);
            if (kind == "watchdog")
                f.watchdog = true;
            else if (kind != "abort")
                fatal("unknown inject-fail kind '%s' "
                      "(abort|watchdog)", kind.c_str());
        }
        sup.injectFailures.push_back(f);
    }
    if (!sup.enabled &&
        (!sup.injectFailures.empty() || !sup.incidentLogPath.empty()))
        fatal("--inject-fail/--incident-log require --supervise");
    return sup;
}

/** Run one (policy) configuration and return the result. */
engine::RunResult
runOne(const Args &args, workloads::Workload &workload,
       const engine::ClusterParams &cluster_params,
       const std::string &policy_spec, bool want_timeline,
       engine::Cluster **cluster_out,
       std::unique_ptr<engine::Cluster> &cluster_storage,
       trace::PacketTrace *trace)
{
    auto policy = core::parsePolicy(policy_spec);
    engine::EngineOptions options;
    options.recordTimeline = want_timeline;
    if (args.has("noise"))
        options.host.noiseSigma = args.getDouble("noise", 0.25);
    options.numWorkers =
        static_cast<std::size_t>(args.getInt("workers", 0));
    options.watchdogSeconds = args.getDouble("watchdog", 0.0);
    options.phaseStats = args.getBool("phase-stats", false);
    options.checkpointEvery = static_cast<std::uint64_t>(
        args.getInt("checkpoint-every", 0));
    options.checkpointDir = args.getString("checkpoint-dir", "");
    options.restorePath = args.getString("restore", "");
    options.checkpointKeepLast =
        static_cast<std::size_t>(args.getInt("checkpoint-keep", 2));
    options.peerDeadlineSeconds =
        args.getDouble("peer-deadline", options.peerDeadlineSeconds);
    options.peerDrillSpec = args.getString("peer-drill", "");

    supervise::RunRequest request;
    const std::string engine_kind =
        args.getString("engine", "sequential");
    if (engine_kind == "threaded")
        request.engineKind = supervise::EngineKind::Threaded;
    else if (engine_kind == "distributed")
        request.engineKind = supervise::EngineKind::Distributed;
    else if (engine_kind != "sequential")
        fatal("unknown engine '%s' (sequential|threaded|distributed)",
              engine_kind.c_str());
    if (!options.peerDrillSpec.empty() &&
        request.engineKind != supervise::EngineKind::Distributed)
        fatal("--peer-drill requires --engine distributed");
    // The packet trace, the phase timings and the invariant checker's
    // audit of a distributed run live and die in the engine's
    // processes; its stats are gathered into process 0.
    if (request.engineKind == supervise::EngineKind::Distributed)
        for (const char *flag : {"trace", "phase-stats", "check"})
            if (args.has(flag))
                fatal("--%s is not supported with --engine distributed",
                      flag);
    request.distributedStats =
        args.getBool("stats", false) || args.getBool("stats-csv", false);
    request.engine = options;
    request.cluster = cluster_params;
    request.workload = &workload;
    request.policy = policy.get();
    if (trace)
        request.onClusterBuilt = [trace](engine::Cluster &cluster) {
            trace->attach(cluster.controller());
        };

    supervise::RunSupervisor supervisor(buildSuperviseOptions(args));
    engine::RunResult result;
    try {
        result = supervisor.run(request);
    } catch (const supervise::SuperviseAbort &abort) {
        fatal("%s", abort.what());
    }
    cluster_storage = supervisor.takeCluster();
    if (cluster_out)
        *cluster_out = cluster_storage.get();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv,
              {"workload", "nodes", "policy", "scale", "class", "seed",
               "engine", "workers", "topology", "hop-latency",
               "sampling", "noise", "baseline", "stats", "stats-csv",
               "timeline", "trace", "quiet", "debug-flags", "sweep",
               "check", "drop", "duplicate", "corrupt", "jitter-rate",
               "jitter-max", "link-down", "node-crash", "node-pause",
               "reliable", "retry-timeout", "watchdog", "phase-stats",
               "checkpoint-every", "checkpoint-dir", "restore",
               "checkpoint-keep", "chaos",
               "supervise", "max-restarts", "backoff", "incident-log",
               "inject-fail", "peer-deadline", "peer-drill"});

    debug::applyEnvironment();
    if (args.has("debug-flags"))
        debug::setFlags(args.getString("debug-flags", ""));

    auto &checker = check::InvariantChecker::instance();
    checker.applyEnvironment();
    const bool check_mode = args.getBool("check", false);
    if (check_mode) {
        checker.reset();
        checker.setEnabled(true);
    }

    const std::string workload_name =
        args.getString("workload", "nas.cg");
    const auto nodes =
        static_cast<std::size_t>(args.getInt("nodes", 8));
    const std::string policy_spec =
        args.getString("policy", "dyn:1.03:0.02:1us:1000us");
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    double scale = args.getDouble("scale", 1.0);
    if (args.has("class"))
        scale = workloads::scaleForClass(
            args.getString("class", "A").at(0));
    const bool quiet = args.getBool("quiet", false);
    Logger::setVerbose(!quiet);
    const std::string timeline_path = outputPath(args, "timeline");
    const std::string trace_path = outputPath(args, "trace");

    // Shared epilogue: in --check mode print the audit report and
    // convert violations into a distinct exit code.
    auto finish = [&checker, check_mode, quiet]() -> int {
        if (!check_mode)
            return 0;
        if (!quiet || checker.totalViolations() > 0)
            std::fputs(checker.report().c_str(), stderr);
        return checker.totalViolations() > 0 ? 2 : 0;
    };

    auto workload = workloads::makeWorkload(workload_name, nodes,
                                            scale);
    auto cluster_params = buildClusterParams(args, nodes, seed);

    if (args.has("sweep")) {
        // Comparative mode: run the ground truth plus every listed
        // policy spec and print one table.
        std::vector<std::string> specs{harness::groundTruthSpec};
        for (const auto &spec : splitList(args.getString("sweep", "")))
            specs.push_back(spec);
        harness::Table table({"policy", "metric", "error", "speedup",
                              "mean Q (us)", "stragglers"});
        engine::RunResult gt;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            auto wl = workloads::makeWorkload(workload_name, nodes,
                                              scale);
            std::unique_ptr<engine::Cluster> c;
            auto run = runOne(args, *wl, cluster_params, specs[i],
                              false, nullptr, c, nullptr);
            if (i == 0)
                gt = run;
            table.addRow(
                {run.policy, harness::fmtDouble(run.metric, 4),
                 harness::fmtPercent(engine::accuracyError(run, gt)),
                 harness::fmtSpeedup(engine::speedup(run, gt)),
                 harness::fmtDouble(run.meanQuantumTicks * 1e-3, 1),
                 std::to_string(run.stragglers)});
        }
        std::printf("%s on %zu nodes (scale %.2f):\n\n",
                    workload_name.c_str(), nodes, scale);
        table.print(std::cout);
        return finish();
    }

    trace::PacketTrace trace;
    std::unique_ptr<engine::Cluster> cluster;
    engine::Cluster *cluster_ptr = nullptr;
    auto result =
        runOne(args, *workload, cluster_params, policy_spec,
               !timeline_path.empty(), &cluster_ptr, cluster,
               trace_path.empty() ? nullptr : &trace);

    if (!quiet)
        std::printf("%s\n", result.summary().c_str());

    if (args.getBool("baseline", false)) {
        auto gt_workload = workloads::makeWorkload(workload_name,
                                                   nodes, scale);
        std::unique_ptr<engine::Cluster> gt_cluster;
        auto gt = runOne(args, *gt_workload, cluster_params,
                         harness::groundTruthSpec, false, nullptr,
                         gt_cluster, nullptr);
        std::printf("baseline       : %s\n", gt.summary().c_str());
        std::printf("accuracy error : %.3f%%\n",
                    100.0 * engine::accuracyError(result, gt));
        std::printf("speedup        : %.2fx\n",
                    engine::speedup(result, gt));
        std::printf("sim-time ratio : %.3f\n",
                    engine::simTimeRatio(result, gt));
    }

    if (args.getBool("stats", false) && cluster_ptr)
        cluster_ptr->dumpStats(std::cout, stats::Format::Text);
    if (args.getBool("stats-csv", false) && cluster_ptr)
        cluster_ptr->dumpStats(std::cout, stats::Format::Csv);

    if (!timeline_path.empty()) {
        std::ofstream file(timeline_path);
        if (!file)
            fatal("cannot open '%s'", timeline_path.c_str());
        CsvWriter csv(file);
        csv.header({"start", "length", "packets", "stragglers",
                    "hostNs"});
        for (const auto &q : result.timeline) {
            csv.row()
                .field(static_cast<std::uint64_t>(q.start))
                .field(static_cast<std::uint64_t>(q.length))
                .field(q.packets)
                .field(q.stragglers)
                .field(q.hostNs);
        }
        if (!quiet)
            std::printf("timeline written to %s (%zu quanta)\n",
                        timeline_path.c_str(),
                        result.timeline.size());
    }

    if (!trace_path.empty()) {
        std::ofstream file(trace_path);
        if (!file)
            fatal("cannot open '%s'", trace_path.c_str());
        trace.dumpCsv(file);
        if (!quiet)
            std::printf("trace written to %s (%zu packets)\n",
                        trace_path.c_str(), trace.size());
    }
    return finish();
}
