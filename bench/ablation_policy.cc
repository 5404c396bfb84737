/**
 * @file
 * Ablation studies of the adaptive-quantum design choices called out
 * in DESIGN.md:
 *
 *  1. Increase/decrease factor sweep — the paper's claim that "the
 *     best configurations grow the quantum in very small increments
 *     but decrease it very quickly" (Section 3).
 *  2. Policy-shape comparison — Algorithm 1 vs. a threshold variant
 *     (tolerate a few packets) vs. a symmetric AIMD-style variant
 *     (what the design degrades to without the fast collapse).
 *  3. Modeled optimistic (checkpoint/rollback) synchronization — the
 *     paper's Section 3 argument for why an optimistic PDES approach
 *     is unaffordable for full-system simulators: every straggler
 *     would trigger a checkpoint restore costing tens of seconds.
 *  4. Switch-model ablation — perfect vs. store-and-forward switch.
 */

#include <cmath>

#include "bench_util.hh"
#include "engine/sequential_engine.hh"
#include "net/topology.hh"
#include "workloads/workload.hh"

using namespace aqsim;
using namespace aqsim::harness;

namespace
{

void
sweepIncDec(Harness &harness, bool csv)
{
    Table table({"inc", "dec", "accuracy error", "speedup"});
    const double incs[] = {1.01, 1.03, 1.05, 1.10, 1.30};
    const double decs[] = {0.9, 0.5, 0.1, 0.02};
    for (double inc : incs) {
        for (double dec : decs) {
            char spec[96];
            std::snprintf(spec, sizeof(spec),
                          "dyn:%g:%g:1us:1000us", inc, dec);
            auto run = harness.run("burst", 8, spec);
            table.addRow({fmtDouble(inc, 2), fmtDouble(dec, 2),
                          fmtPercent(harness.error(run)),
                          fmtSpeedup(harness.speedup(run))});
        }
    }
    aqsim::bench::emit(table,
                       "Ablation 1: increase/decrease factor sweep "
                       "(burst workload, 8 nodes)",
                       csv);
}

void
comparePolicyShapes(Harness &harness, bool csv)
{
    Table table({"policy", "workload", "accuracy error", "speedup"});
    const char *policies[] = {
        "dyn:1.03:0.02:1us:1000us", // Algorithm 1
        "threshold:1.03:0.02:4",    // tolerate sparse packets
        "symmetric:1.03",           // no fast collapse
        "fixed:10us",
        "fixed:1000us",
    };
    for (const char *workload : {"nas.cg", "namd"}) {
        for (const char *spec : policies) {
            auto run = harness.run(workload, 8, spec);
            table.addRow({run.policy, workload,
                          fmtPercent(harness.error(run)),
                          fmtSpeedup(harness.speedup(run))});
        }
    }
    aqsim::bench::emit(table,
                       "Ablation 2: policy shape comparison (8 nodes)",
                       csv);
}

void
optimisticModel(Harness &harness, bool csv)
{
    // Model the paper's Section 3 argument. An optimistic simulator
    // runs without barriers (host time = busy work only, no quantum
    // overhead — the best possible case) but must roll back on every
    // straggler. Checkpoint restore for a full-system node:
    // "A single checkpointing-rollback phase for a node can easily
    // last in the order of 30-40 seconds".
    const double rollback_ns = 30e9;
    Table table({"approach", "host time (s)", "vs. ground truth"});
    for (const char *workload : {"nas.cg", "namd"}) {
        const auto &gt = harness.groundTruth(workload, 8);
        // Straggler frequency proxy: what a generous 1000us window
        // observes (optimistic execution is unsynchronized, so its
        // conflict rate is at least this).
        auto coarse = harness.run(workload, 8, "fixed:1000us");
        // Optimistic: no synchronization overhead at all ...
        const double optimistic_work =
            gt.hostNs * 0.3; // generously assume barriers were 70%
        // ... but every straggler is a rollback.
        const double optimistic_total =
            optimistic_work +
            static_cast<double>(coarse.stragglers) * rollback_ns;
        auto dyn = harness.run(workload, 8,
                               "dyn:1.03:0.02:1us:1000us");

        char gt_s[32], opt_s[32], dyn_s[32];
        std::snprintf(gt_s, sizeof(gt_s), "%.2f", gt.hostNs * 1e-9);
        std::snprintf(opt_s, sizeof(opt_s), "%.2f",
                      optimistic_total * 1e-9);
        std::snprintf(dyn_s, sizeof(dyn_s), "%.2f",
                      dyn.hostNs * 1e-9);
        table.addRow({std::string(workload) + " conservative 1us",
                      gt_s, "1.0x"});
        table.addRow(
            {std::string(workload) + " optimistic (modeled)", opt_s,
             fmtSpeedup(gt.hostNs / optimistic_total)});
        table.addRow({std::string(workload) + " adaptive quantum",
                      dyn_s, fmtSpeedup(gt.hostNs / dyn.hostNs)});
    }
    aqsim::bench::emit(
        table,
        "Ablation 3: modeled optimistic (checkpoint/rollback) "
        "synchronization, 30s per rollback",
        csv);
}

void
switchModels(double scale, std::uint64_t seed, bool csv)
{
    Table table(
        {"switch", "workload", "sim time (ms)", "stragglers"});
    for (const char *workload : {"nas.is", "namd"}) {
        for (bool store_and_forward : {false, true}) {
            auto wl = workloads::makeWorkload(workload, 8, scale);
            auto policy =
                core::parsePolicy("dyn:1.03:0.02:1us:1000us");
            auto params = defaultCluster(8, seed);
            if (store_and_forward) {
                // A star with output-port contention: each frame is
                // serialized onto its destination port after one hop.
                net::TopologyParams star;
                star.kind = net::TopologyKind::Star;
                star.hopLatency = 500;
                star.bytesPerNs = 10.0;
                star.contention = true;
                params.network.switchModel =
                    std::make_shared<net::TopologySwitch>(8, star);
            }
            engine::SequentialEngine engine;
            auto run = engine.run(params, *wl, *policy);
            table.addRow(
                {store_and_forward ? "store-and-forward" : "perfect",
                 workload,
                 fmtDouble(static_cast<double>(run.simTicks) * 1e-6,
                           3),
                 std::to_string(run.stragglers)});
        }
    }
    aqsim::bench::emit(table, "Ablation 4: switch timing model", csv);
}

void
topologies(double scale, std::uint64_t seed, bool csv)
{
    // The adaptive policy needs no topology-specific tuning: the
    // packet count it reacts to is topology-independent, while the
    // safe minimum quantum (T) grows with the one-hop latency.
    Table table({"topology", "diameter", "sim time (ms)",
                 "accuracy error", "speedup"});
    for (const char *name : {"star", "ring", "torus", "tree"}) {
        net::TopologyParams topo;
        topo.kind = net::parseTopology(name);
        topo.hopLatency = 300;
        topo.radix = 4; // two leaf switches at 8 nodes

        auto run_policy = [&](const char *spec) {
            auto wl = workloads::makeWorkload("nas.cg", 8, scale);
            auto policy = core::parsePolicy(spec);
            auto params = defaultCluster(8, seed);
            params.network.switchModel =
                std::make_shared<net::TopologySwitch>(8, topo);
            engine::SequentialEngine engine;
            return engine.run(params, *wl, *policy);
        };
        auto gt = run_policy("fixed:1us");
        auto dyn = run_policy("dyn:1.03:0.02:1us:1000us");
        net::TopologySwitch probe(8, topo);
        table.addRow(
            {name, std::to_string(probe.diameter()),
             fmtDouble(static_cast<double>(dyn.simTicks) * 1e-6, 3),
             fmtPercent(engine::accuracyError(dyn, gt)),
             fmtSpeedup(engine::speedup(dyn, gt))});
    }
    aqsim::bench::emit(table,
                       "Ablation 5: adaptive sync across topologies "
                       "(nas.cg, 8 nodes, 300ns hops)",
                       csv);
}

void
samplingCpu(double scale, std::uint64_t seed, bool csv)
{
    // The paper's future work: "combine this technique with
    // 'sampling' of the individual node simulators to take further
    // advantage of another accuracy/speed tradeoff."
    Table table({"node simulator", "detail", "host time (s)",
                 "metric vs detailed"});
    double detailed_metric = 0.0;
    for (double detail : {1.0, 0.5, 0.1, 0.02}) {
        auto wl = workloads::makeWorkload("nas.ep", 8, scale);
        auto policy = core::parsePolicy("dyn:1.05:0.02:1us:1000us");
        auto params = defaultCluster(8, seed);
        if (detail < 1.0) {
            params.samplingCpu = true;
            params.sampling.detailFraction = detail;
            params.sampling.timingNoise = 0.03;
        }
        engine::SequentialEngine engine;
        auto run = engine.run(params, *wl, *policy);
        if (detail == 1.0)
            detailed_metric = run.metric;
        char host_s[32];
        std::snprintf(host_s, sizeof(host_s), "%.2f",
                      run.hostNs * 1e-9);
        table.addRow({detail == 1.0 ? "detailed" : "sampling",
                      fmtPercent(detail), host_s,
                      fmtPercent(std::abs(run.metric -
                                          detailed_metric) /
                                 detailed_metric)});
    }
    aqsim::bench::emit(
        table,
        "Ablation 6: adaptive sync + node-simulator sampling (the "
        "paper's future-work combination; nas.ep, 8 nodes)",
        csv);
}

void
noiseSensitivity(double scale, std::uint64_t seed, bool csv)
{
    // How host-speed heterogeneity (the source of node skew) drives
    // straggler rate and accuracy error at a coarse fixed quantum.
    Table table({"host noise sigma", "stragglers", "accuracy error"});
    for (double sigma : {0.0, 0.1, 0.25, 0.5}) {
        auto run_with = [&](const char *spec) {
            auto wl = workloads::makeWorkload("nas.cg", 8, scale);
            auto policy = core::parsePolicy(spec);
            auto params = defaultCluster(8, seed);
            engine::EngineOptions options;
            options.host.noiseSigma = sigma;
            engine::SequentialEngine engine(options);
            return engine.run(params, *wl, *policy);
        };
        auto gt = run_with("fixed:1us");
        auto coarse = run_with("fixed:300us");
        table.addRow({fmtDouble(sigma, 2),
                      fmtPercent(coarse.stragglerFraction()),
                      fmtPercent(engine::accuracyError(coarse, gt))});
    }
    aqsim::bench::emit(table,
                       "Ablation 7: host-speed heterogeneity vs. "
                       "accuracy at fixed 300us (nas.cg, 8 nodes)",
                       csv);
}

void
stragglerPolicies(double scale, std::uint64_t seed, bool csv)
{
    // The paper's Section 3 choice: deliver stragglers immediately
    // ("the only possibility we have") vs. the simpler alternative of
    // deferring them to the next quantum boundary.
    Table table({"straggler policy", "workload", "sim-time ratio",
                 "accuracy error"});
    for (const char *workload : {"nas.is", "namd"}) {
        auto run_with = [&](engine::StragglerPolicy sp,
                            const char *spec) {
            auto wl = workloads::makeWorkload(workload, 8, scale);
            auto policy = core::parsePolicy(spec);
            auto params = defaultCluster(8, seed);
            engine::EngineOptions options;
            options.stragglerPolicy = sp;
            engine::SequentialEngine engine(options);
            return engine.run(params, *wl, *policy);
        };
        auto gt = run_with(engine::StragglerPolicy::DeliverNow,
                           "fixed:1us");
        for (auto sp : {engine::StragglerPolicy::DeliverNow,
                        engine::StragglerPolicy::DeferToNextQuantum}) {
            auto run = run_with(sp, "fixed:100us");
            table.addRow(
                {sp == engine::StragglerPolicy::DeliverNow
                     ? "deliver now (paper)"
                     : "defer to next quantum",
                 workload,
                 fmtRatio(engine::simTimeRatio(run, gt)),
                 fmtPercent(engine::accuracyError(run, gt))});
        }
    }
    aqsim::bench::emit(table,
                       "Ablation 8: straggler handling at fixed "
                       "100us (8 nodes)",
                       csv);
}

} // namespace

int
main(int argc, char **argv)
{
    auto options = aqsim::bench::BenchOptions::parse(argc, argv);
    Harness harness(options.scale * 0.5, options.seed);
    sweepIncDec(harness, options.csv);
    comparePolicyShapes(harness, options.csv);
    optimisticModel(harness, options.csv);
    switchModels(options.scale * 0.5, options.seed, options.csv);
    topologies(options.scale * 0.5, options.seed, options.csv);
    samplingCpu(options.scale * 0.5, options.seed, options.csv);
    noiseSensitivity(options.scale * 0.25, options.seed, options.csv);
    stragglerPolicies(options.scale * 0.5, options.seed, options.csv);
    return 0;
}
