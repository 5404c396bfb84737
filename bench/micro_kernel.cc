/**
 * @file
 * Microbenchmarks (google-benchmark) of the simulation kernel: event
 * queue throughput, coroutine switching, RNG, statistics sampling,
 * and the per-node cost of building a cluster.
 */

#include <benchmark/benchmark.h>

#include "base/random.hh"
#include "engine/cluster.hh"
#include "harness/experiment.hh"
#include "sim/event_queue.hh"
#include "sim/process.hh"
#include "stats/histogram.hh"
#include "workloads/workload.hh"

using namespace aqsim;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const auto batch = static_cast<std::uint64_t>(state.range(0));
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < batch; ++i)
            q.schedule(q.now() + 1 + (i * 7919) % 1000,
                       [&sink] { ++sink; });
        while (q.runOne()) {}
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_EventQueueCancel(benchmark::State &state)
{
    sim::EventQueue q;
    for (auto _ : state) {
        auto id = q.schedule(q.now() + 100, [] {});
        benchmark::DoNotOptimize(q.deschedule(id));
    }
}
BENCHMARK(BM_EventQueueCancel);

/**
 * Timeout-style churn: schedule a window of events, cancel half, run
 * the rest. Exercises O(1) generation-counted cancellation plus the
 * lazy stale-entry pruning in the heap — the NIC/MPI timeout pattern.
 */
void
BM_EventQueueCancelChurn(benchmark::State &state)
{
    constexpr int window = 256;
    sim::EventQueue q;
    std::vector<sim::EventQueue::EventId> ids;
    ids.reserve(window);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        ids.clear();
        for (int i = 0; i < window; ++i)
            ids.push_back(q.schedule(q.now() + 1 + (i * 31) % 97,
                                     [&sink] { ++sink; }));
        for (int i = 0; i < window; i += 2)
            q.deschedule(ids[static_cast<std::size_t>(i)]);
        while (q.runOne()) {}
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * window);
}
BENCHMARK(BM_EventQueueCancelChurn);

sim::Process
delayLoop(sim::EventQueue &q, std::size_t hops)
{
    for (std::size_t i = 0; i < hops; ++i)
        co_await sim::DelayAwaitable(q, 1);
}

void
BM_CoroutineDelayChain(benchmark::State &state)
{
    const auto hops = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        auto p = delayLoop(q, hops);
        p.start();
        while (q.runOne()) {}
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_CoroutineDelayChain)->Arg(100)->Arg(1000);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_RngLognormal(benchmark::State &state)
{
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.lognormalMean(1.0, 0.2));
}
BENCHMARK(BM_RngLognormal);

void
BM_Log2DistSample(benchmark::State &state)
{
    stats::Group g("bench");
    auto &d = g.add<stats::Log2Distribution>("d", "");
    Rng rng(7);
    for (auto _ : state)
        d.sample(rng.next() & 0xffffff);
}
BENCHMARK(BM_Log2DistSample);

/**
 * Build and destroy a nas.ep cluster: what a node costs before it
 * does any work (event slab, MPI match lists, stats tree, NIC). The
 * workload is made once; only the cluster is timed.
 */
void
BM_ClusterBuild(benchmark::State &state)
{
    const auto nodes = static_cast<std::size_t>(state.range(0));
    auto workload = workloads::makeWorkload("nas.ep", nodes, 1.0);
    const auto params = harness::defaultCluster(nodes, 1);
    for (auto _ : state) {
        engine::Cluster cluster(params, *workload);
        benchmark::DoNotOptimize(cluster.numNodes());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * nodes));
}
BENCHMARK(BM_ClusterBuild)->Arg(2048)->Unit(benchmark::kMillisecond);

} // namespace
