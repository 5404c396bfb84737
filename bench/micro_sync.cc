/**
 * @file
 * Microbenchmarks (google-benchmark) of the synchronization layer:
 * policy stepping, controller injection, and whole-cluster quantum
 * throughput as a function of node count — including the Fig. 5
 * effect (per-quantum synchronization overhead) — and the framed
 * socket round trip the distributed engine pays once per quantum.
 */

#include <benchmark/benchmark.h>

#include <thread>

#include "core/quantum_policy.hh"
#include "engine/sequential_engine.hh"
#include "engine/threaded_engine.hh"
#include "engine/worker_pool.hh"
#include "harness/experiment.hh"
#include "net/network_controller.hh"
#include "transport/socket.hh"
#include "workloads/workload.hh"

using namespace aqsim;

namespace
{

void
BM_AdaptivePolicyStep(benchmark::State &state)
{
    core::AdaptiveQuantumPolicy policy({});
    std::uint64_t np = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy.next(np));
        np = (np + 1) % 3;
    }
}
BENCHMARK(BM_AdaptivePolicyStep);

class NullScheduler : public net::DeliveryScheduler
{
  public:
    Tick
    place(const net::Packet &pkt, net::DeliveryKind &kind) override
    {
        kind = net::DeliveryKind::OnTime;
        return pkt.idealArrival;
    }
};

/**
 * Controller injection throughput with one source node per thread, the
 * ThreadedEngine's access pattern: every worker injects only for the
 * nodes it runs. All threads share one controller, so any write shared
 * between sources on the per-packet path shows as lost scaling.
 */
void
BM_ControllerInject(benchmark::State &state)
{
    struct Shared
    {
        stats::Group root{"bench"};
        NullScheduler scheduler;
        net::NetworkController controller{16, {}, root};
        Shared() { controller.setScheduler(&scheduler); }
    };
    static Shared shared;
    net::NetworkController &controller = shared.controller;
    const auto src = static_cast<NodeId>(state.thread_index());
    const auto dst =
        static_cast<NodeId>((src + 1) % controller.numNodes());
    Tick t = 0;
    for (auto _ : state) {
        net::Packet pkt;
        pkt.src = src;
        pkt.dst = dst;
        pkt.bytes = 1500;
        pkt.sendTick = t;
        pkt.departTick = t;
        controller.inject(pkt);
        ++t;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ControllerInject)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

/**
 * End-to-end cluster-simulation throughput: simulated microseconds
 * per host second, as a function of node count, for a fixed quantum.
 * Demonstrates the engine itself scales to 64-node clusters.
 */
void
BM_ClusterQuantaThroughput(benchmark::State &state)
{
    const auto nodes = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto workload = workloads::makeWorkload("burst", nodes, 0.05);
        auto policy = core::parsePolicy("fixed:10us");
        auto params = harness::defaultCluster(nodes, 1);
        engine::SequentialEngine engine;
        auto result = engine.run(params, *workload, *policy);
        benchmark::DoNotOptimize(result.simTicks);
        state.counters["quanta"] =
            static_cast<double>(result.quanta);
    }
}
BENCHMARK(BM_ClusterQuantaThroughput)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

/**
 * Raw empty-quantum round trip through the worker pool: the calling
 * thread (worker 0) and K-1 pool threads cross the quantum-start and
 * quantum-end barriers with no work between. This is the per-quantum
 * synchronization floor of the ThreadedEngine (the Fig. 5 cost on the
 * host side). The name predates the pool's single-barrier design and
 * is kept so the committed baselines still apply.
 */
void
BM_WorkerPoolQuantumGate(benchmark::State &state)
{
    const auto workers = static_cast<std::size_t>(state.range(0));
    engine::WorkerPool pool(workers, [](std::size_t, Tick) {});
    Tick qe = 0;
    for (auto _ : state)
        pool.runQuantum(++qe);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkerPoolQuantumGate)->Arg(1)->Arg(2)->Arg(4);

/**
 * One framed request/reply over a socketChannelPair, the far end
 * echoing on a second thread, each frame moved by a one-link
 * DuplexRound as the distributed engine moves every frame: its
 * per-quantum Quantum -> Exchange round trip with no simulation work
 * between. Arg = body bytes (64 B is a control frame; 4 KB a frame
 * with delivery runs).
 */
void
BM_FrameRoundTrip(benchmark::State &state)
{
    auto [near, far] = transport::socketChannelPair();
    // Send @p frame on @p ch, or receive into it; false on failure.
    const auto move = [](transport::SocketChannel &ch,
                         transport::Frame &frame, bool send) {
        transport::DuplexRound round(1);
        if (send)
            round.send(0, ch, frame);
        else
            round.receive(0, ch);
        transport::DuplexRound::Event e;
        if (!round.advance(e, 10.0) ||
            e.kind == transport::DuplexRound::EventKind::Failed)
            return false;
        if (!send)
            frame = std::move(e.frame);
        return true;
    };
    transport::Frame request;
    request.type = transport::FrameType::Quantum;
    request.body.assign(static_cast<std::size_t>(state.range(0)), 0x5a);
    std::thread echo([&far, &move] {
        transport::Frame f;
        while (move(*far, f, false) &&
               f.type == transport::FrameType::Quantum) {
            f.type = transport::FrameType::Exchange;
            if (!move(*far, f, true))
                break;
        }
    });
    transport::Frame reply;
    for (auto _ : state) {
        if (!move(*near, request, true) || !move(*near, reply, false)) {
            state.SkipWithError("echo failed");
            break;
        }
    }
    transport::Frame stop;
    stop.type = transport::FrameType::Stop;
    move(*near, stop, true);
    echo.join();
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * 2 * request.body.size()));
}
BENCHMARK(BM_FrameRoundTrip)->Arg(64)->Arg(4096)->UseRealTime();

/**
 * End-to-end ThreadedEngine throughput: exercises the real gate,
 * shard loop and mailbox swap-buffer path (unlike the sequential
 * variant above, whose barrier cost is modeled, not executed).
 */
void
BM_ThreadedClusterQuantaThroughput(benchmark::State &state)
{
    const auto nodes = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto workload = workloads::makeWorkload("burst", nodes, 0.05);
        auto policy = core::parsePolicy("fixed:10us");
        auto params = harness::defaultCluster(nodes, 1);
        engine::ThreadedEngine engine;
        auto result = engine.run(params, *workload, *policy);
        benchmark::DoNotOptimize(result.simTicks);
        state.counters["quanta"] =
            static_cast<double>(result.quanta);
    }
}
BENCHMARK(BM_ThreadedClusterQuantaThroughput)
    ->Arg(2)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

/** Policy comparison at constant workload: runtime of the harness. */
void
BM_RunUnderPolicy(benchmark::State &state)
{
    const char *specs[] = {"fixed:1us", "fixed:100us",
                           "dyn:1.03:0.02:1us:1000us"};
    const char *spec = specs[state.range(0)];
    for (auto _ : state) {
        auto workload = workloads::makeWorkload("pingpong", 2, 0.3);
        auto policy = core::parsePolicy(spec);
        auto params = harness::defaultCluster(2, 1);
        engine::SequentialEngine engine;
        auto result = engine.run(params, *workload, *policy);
        benchmark::DoNotOptimize(result.hostNs);
    }
    state.SetLabel(spec);
}
BENCHMARK(BM_RunUnderPolicy)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

} // namespace
