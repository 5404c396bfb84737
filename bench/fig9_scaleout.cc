/**
 * @file
 * Reproduces paper Section 6 / Figure 9: the 64-node scale-out case
 * study on NAS-EP, NAS-IS and NAMD.
 *
 * For each benchmark this harness emits
 *   - the packet-traffic-over-time chart (Fig. 9 left: one row per
 *     node, density-coded marks) from the ground-truth run,
 *   - the simulation-speedup-over-time series of the adaptive run
 *     versus the 1 us ground truth (Fig. 9 right, log scale),
 *   - the paper's summary table: acceleration and accuracy (EP, NAMD)
 *     or simulated-execution-time ratio (IS) for fixed 100 us, fixed
 *     10 us and the adaptive configuration the paper uses for that
 *     benchmark (EP/IS: dyn 1..100 us; NAMD: dyn 2..100 us).
 *
 * Expected shapes: EP — large speedup at negligible error (sparse
 * traffic); IS — the accuracy worst case: fixed quanta dilate
 * simulated time by orders of magnitude, the adaptive policy recovers
 * to a small ratio; NAMD — the speed worst case: continuous traffic
 * caps every configuration's speedup and the adaptive policy settles
 * near the best fixed quantum.
 */

#include <cmath>

#include "bench_util.hh"
#include "trace/ascii_plot.hh"
#include "trace/timeline.hh"
#include "workloads/workload.hh"

using namespace aqsim;
using namespace aqsim::harness;

namespace
{

constexpr std::size_t scaleOutNodes = 64;

struct CaseSpec
{
    const char *workload;
    double scale;           // relative to BenchOptions::scale = 1
    const char *dynSpec;
    const char *dynLabel;
    bool simTimeRatioMetric; // IS reports the sim-time ratio
};

engine::RunResult
run(const ExperimentConfig &base, const std::string &policy,
    bool timeline, trace::PacketTrace *trace_out)
{
    ExperimentConfig config = base;
    config.policySpec = policy;
    config.engine.recordTimeline = timeline;
    config.recordTrace = trace_out != nullptr;
    auto out = runExperiment(config);
    if (trace_out)
        *trace_out = std::move(out.trace);
    return out.result;
}

void
runCase(const CaseSpec &spec, const aqsim::bench::BenchOptions &options)
{
    ExperimentConfig base;
    base.workload = spec.workload;
    base.numNodes = scaleOutNodes;
    base.scale = spec.scale * options.scale;
    base.seed = options.seed;

    // Ground truth with trace + timeline.
    trace::PacketTrace trace;
    auto gt = run(base, groundTruthSpec, true, &trace);
    const double gt_rate =
        gt.hostNs / static_cast<double>(gt.simTicks);

    // Comparison configurations.
    auto q100 = run(base, "fixed:100us", false, nullptr);
    auto q10 = run(base, "fixed:10us", false, nullptr);
    auto dyn = run(base, spec.dynSpec, true, nullptr);

    if (!options.csv) {
        std::printf("\n===== 64-node %s =====\n", spec.workload);
        std::printf(
            "ground truth: sim=%.3f ms, %llu packets, %llu quanta\n",
            static_cast<double>(gt.simTicks) * 1e-6,
            static_cast<unsigned long long>(gt.packets),
            static_cast<unsigned long long>(gt.quanta));
        std::printf("\nTraffic over time (Fig. 9 left; rows=nodes, "
                    "columns=time):\n%s",
                    trace::renderTrafficMap(trace.records(),
                                            scaleOutNodes, 100)
                        .c_str());

        // Speedup-over-time of the adaptive run (Fig. 9 right).
        const Tick window = std::max<Tick>(dyn.simTicks / 60, 1);
        auto series =
            trace::speedupOverTime(dyn.timeline, gt_rate, window);
        std::vector<double> xs, ys;
        for (const auto &pt : series) {
            xs.push_back(static_cast<double>(pt.simTime) * 1e-6);
            ys.push_back(pt.value);
        }
        std::printf("\nSpeedup over time vs 1us quantum (%s):\n%s",
                    spec.dynLabel,
                    trace::renderLogSeries(xs, ys, 80, 12,
                                           "speedup vs 1us")
                        .c_str());
    }

    // The paper's summary table for this benchmark.
    const char *metric_name = spec.simTimeRatioMetric
                                  ? "Simulated Exec. Ratio vs. 1us"
                                  : "Accuracy Error vs. 1us";
    Table table({"Quantum", "Acceleration vs. 1us", metric_name});
    auto add = [&](const std::string &label,
                   const engine::RunResult &r) {
        const double accel = engine::speedup(r, gt);
        std::string metric;
        if (spec.simTimeRatioMetric)
            metric = fmtRatio(engine::simTimeRatio(r, gt));
        else
            metric = fmtPercent(engine::accuracyError(r, gt));
        table.addRow({label, fmtSpeedup(accel), metric});
    };
    add("100us", q100);
    add("10us", q10);
    add(spec.dynLabel, dyn);
    aqsim::bench::emit(table,
                       std::string("Section 6 table: ") +
                           spec.workload + " at 64 nodes",
                       options.csv);
}

} // namespace

int
main(int argc, char **argv)
{
    auto options = aqsim::bench::BenchOptions::parse(argc, argv);
    // Defaults chosen so each ground-truth run stays in the
    // few-thousand-quanta range; --scale rescales all three.
    const CaseSpec cases[] = {
        {"nas.ep", 16.0, "dyn:1.03:0.02:1us:100us", "dyn 1:100",
         false},
        {"nas.is", 1.0, "dyn:1.03:0.02:1us:100us", "dyn 1:100", true},
        {"namd", 4.0, "dyn:1.03:0.02:2us:100us", "dyn 2:100", false},
    };
    for (const auto &spec : cases)
        runCase(spec, options);
    return 0;
}
