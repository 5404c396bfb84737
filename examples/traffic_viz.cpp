/**
 * @file
 * Visualize a workload's network traffic and quantum dynamics: the
 * traffic-over-time map (paper Fig. 9 left) and, for adaptive runs,
 * the quantum-length evolution. Optionally dumps the packet trace as
 * CSV for external plotting.
 *
 *   $ ./traffic_viz --workload nas.is --nodes 16 \
 *                   [--policy dyn:1.03:0.02:1us:1000us]
 *                   [--trace-csv out.csv]
 */

#include <cstdio>
#include <fstream>

#include "base/args.hh"
#include "harness/experiment.hh"
#include "trace/ascii_plot.hh"
#include "trace/timeline.hh"

using namespace aqsim;

int
main(int argc, char **argv)
{
    Args args(argc, argv,
              {"workload", "nodes", "policy", "scale", "trace-csv"});
    harness::ExperimentConfig config;
    config.workload = args.getString("workload", "nas.is");
    config.numNodes =
        static_cast<std::size_t>(args.getInt("nodes", 16));
    config.policySpec =
        args.getString("policy", "dyn:1.03:0.02:1us:1000us");
    config.scale = args.getDouble("scale", 0.3);
    config.recordTrace = true;
    config.engine.recordTimeline = true;

    std::printf("%s on %zu nodes under %s...\n",
                config.workload.c_str(), config.numNodes,
                config.policySpec.c_str());
    auto out = harness::runExperiment(config);
    std::printf("%s\n\n", out.result.summary().c_str());

    std::printf("Traffic over time (rows = nodes):\n%s\n",
                trace::renderTrafficMap(out.trace.records(),
                                        config.numNodes, 100)
                    .c_str());

    auto series = trace::quantumOverTime(
        out.result.timeline,
        std::max<Tick>(out.result.simTicks / 70, 1));
    std::vector<double> xs, ys;
    for (const auto &pt : series) {
        xs.push_back(static_cast<double>(pt.simTime) * 1e-6);
        ys.push_back(pt.value * 1e-3);
    }
    std::printf("Quantum length over time (us, log scale):\n%s",
                trace::renderLogSeries(xs, ys, 76, 10, "quantum (us)")
                    .c_str());

    const std::string csv_path = args.getString("trace-csv", "");
    if (!csv_path.empty()) {
        std::ofstream file(csv_path);
        if (!file)
            fatal("cannot open '%s' for writing", csv_path.c_str());
        out.trace.dumpCsv(file);
        std::printf("\npacket trace written to %s (%zu records)\n",
                    csv_path.c_str(), out.trace.size());
    }
    return 0;
}
