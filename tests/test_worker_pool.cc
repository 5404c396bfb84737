/**
 * Tests for the worker-pool engine layer: shard math, the pool's
 * barrier protocol (worker 0 is the calling thread), and the
 * cross-engine determinism contract — a
 * conservative ThreadedEngine run is bit-identical to the
 * SequentialEngine at *every* worker count, including oversubscribed
 * and clamped ones.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "engine/threaded_engine.hh"
#include "engine/worker_pool.hh"
#include "test_util.hh"

using namespace aqsim;

namespace
{

engine::RunResult
runWith(const std::string &workload, std::size_t nodes,
        const std::string &policy, std::size_t workers,
        bool threaded, double scale = 0.05)
{
    auto wl = workloads::makeWorkload(workload, nodes, scale);
    auto pol = core::parsePolicy(policy);
    auto params = harness::defaultCluster(nodes, 1);
    engine::EngineOptions options;
    options.numWorkers = workers;
    if (threaded) {
        engine::ThreadedEngine engine(options);
        return engine.run(params, *wl, *pol);
    }
    engine::SequentialEngine engine(options);
    return engine.run(params, *wl, *pol);
}

/** Threads of this process, as the kernel lists them. */
std::size_t
liveThreads()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/**
 * liveThreads() once it has held still for a few milliseconds: a
 * joined thread can linger in /proc/self/task for a moment after
 * pthread_join returns.
 */
std::size_t
settledThreads()
{
    std::size_t last = liveThreads();
    for (int still = 0, polls = 0; still < 5 && polls < 2000; ++polls) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::size_t now = liveThreads();
        still = now == last ? still + 1 : 0;
        last = now;
    }
    return last;
}

} // namespace

TEST(WorkerPoolShards, CoverAllTasksExactlyOnce)
{
    for (std::size_t tasks : {1u, 2u, 7u, 8u, 64u}) {
        for (std::size_t workers : {1u, 2u, 3u, 8u}) {
            if (workers > tasks)
                continue;
            std::vector<int> owned(tasks, 0);
            std::size_t prev_end = 0;
            for (std::size_t w = 0; w < workers; ++w) {
                auto [begin, end] = engine::WorkerPool::shardRange(
                    w, workers, tasks);
                EXPECT_EQ(begin, prev_end);
                prev_end = end;
                for (std::size_t t = begin; t < end; ++t)
                    ++owned[t];
            }
            EXPECT_EQ(prev_end, tasks);
            for (int count : owned)
                EXPECT_EQ(count, 1);
        }
    }
}

TEST(WorkerPoolShards, ResolveWorkerCountClampsAndDefaults)
{
    // Explicit requests are clamped to the task count, never zero.
    EXPECT_EQ(engine::WorkerPool::resolveWorkerCount(4, 64), 4u);
    EXPECT_EQ(engine::WorkerPool::resolveWorkerCount(7, 4), 4u);
    EXPECT_EQ(engine::WorkerPool::resolveWorkerCount(1, 1), 1u);
    // Default (0) resolves to some positive hardware-derived count.
    EXPECT_GE(engine::WorkerPool::resolveWorkerCount(0, 64), 1u);
    EXPECT_LE(engine::WorkerPool::resolveWorkerCount(0, 4), 4u);
}

TEST(WorkerPoolGate, EveryWorkerRunsEveryQuantum)
{
    constexpr std::size_t workers = 3;
    constexpr int quanta = 50;
    std::vector<std::atomic<int>> runs(workers);
    std::atomic<Tick> last_end{0};
    {
        engine::WorkerPool pool(workers, [&](std::size_t w, Tick qe) {
            ++runs[w];
            last_end.store(qe, std::memory_order_relaxed);
        });
        EXPECT_EQ(pool.numWorkers(), workers);
        for (int q = 1; q <= quanta; ++q)
            pool.runQuantum(static_cast<Tick>(q) * 10);
        // runQuantum is a full barrier: all work for this quantum is
        // done and visible once it returns.
        for (std::size_t w = 0; w < workers; ++w)
            EXPECT_EQ(runs[w].load(), quanta);
        EXPECT_EQ(last_end.load(), static_cast<Tick>(quanta) * 10);
    }
}

TEST(WorkerPoolGate, StopsCleanlyWithoutQuanta)
{
    engine::WorkerPool pool(4, [](std::size_t, Tick) {});
    // Destructor joins a pool that never ran a quantum.
}

TEST(WorkerPoolThreads, WorkerZeroRunsOnTheCallingThread)
{
    constexpr std::size_t workers = 3;
    std::vector<std::thread::id> ran_on(workers);
    engine::WorkerPool pool(workers, [&](std::size_t w, Tick) {
        ran_on[w] = std::this_thread::get_id();
    });
    pool.runQuantum(1);
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
    EXPECT_NE(ran_on[1], ran_on[0]);
    EXPECT_NE(ran_on[2], ran_on[0]);
    EXPECT_NE(ran_on[1], ran_on[2]);
}

TEST(WorkerPoolThreads, SpawnsOneThreadFewerThanWorkers)
{
    // A sanitizer runtime may start a helper thread of its own when
    // the process first creates a thread; let that happen before
    // counting, then assert on deltas, not absolute counts.
    { engine::WorkerPool warm_up(2, [](std::size_t, Tick) {}); }
    for (const std::size_t workers : {1ul, 3ul}) {
        const std::size_t before = settledThreads();
        {
            engine::WorkerPool pool(workers, [](std::size_t, Tick) {});
            EXPECT_EQ(pool.numWorkers(), workers);
            EXPECT_EQ(liveThreads(), before + workers - 1) << workers;
        }
        EXPECT_EQ(settledThreads(), before) << workers;
    }
}

TEST(WorkerPoolGate, BarrierSurvivesTenThousandBackToBackQuanta)
{
    // Three crossings per quantum (start, one inside like the
    // engine's exchange, end) with no work between them: each worker
    // publishes its count before the inner crossing and, after it,
    // must see every other worker's count for this quantum.
    constexpr std::size_t workers = 4;
    constexpr Tick quanta = 10'000;
    std::vector<std::atomic<Tick>> seen(workers);
    std::atomic<std::uint64_t> stale{0};
    engine::WorkerPool pool(workers, [&](std::size_t w, Tick qe) {
        seen[w].store(qe, std::memory_order_relaxed);
        pool.barrier().arriveAndWait();
        for (std::size_t u = 0; u < workers; ++u)
            if (seen[u].load(std::memory_order_relaxed) != qe)
                stale.fetch_add(1, std::memory_order_relaxed);
    });
    for (Tick q = 1; q <= quanta; ++q)
        pool.runQuantum(q);
    EXPECT_EQ(stale.load(), 0u);
    for (std::size_t w = 0; w < workers; ++w)
        EXPECT_EQ(seen[w].load(), quanta);
}

/**
 * The cross-engine contract of the issue: conservative fixed-Q runs
 * are bit-identical between ThreadedEngine (any worker count) and
 * SequentialEngine in every simulated-result field.
 */
TEST(WorkerPoolDeterminism, ConservativeMatchesSequentialAtAllWorkerCounts)
{
    constexpr std::size_t nodes = 4;
    for (const char *workload : {"pingpong", "nas.cg"}) {
        const auto expected =
            runWith(workload, nodes, "fixed:1us", 0, false);
        // {1, 2, N-1, N, N+3}: N+3 exercises the clamp path.
        for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    nodes - 1, nodes, nodes + 3}) {
            const auto got =
                runWith(workload, nodes, "fixed:1us", workers, true);
            EXPECT_EQ(got.simTicks, expected.simTicks)
                << workload << " workers=" << workers;
            EXPECT_EQ(got.packets, expected.packets)
                << workload << " workers=" << workers;
            EXPECT_EQ(got.stragglers, expected.stragglers)
                << workload << " workers=" << workers;
            EXPECT_EQ(got.finishTicks, expected.finishTicks)
                << workload << " workers=" << workers;
        }
    }
}

TEST(WorkerPoolDeterminism, EightNodesShardedMatchesSequential)
{
    const auto expected = runWith("nas.mg", 8, "fixed:1us", 0, false, 0.02);
    const auto got = runWith("nas.mg", 8, "fixed:1us", 3, true, 0.02);
    EXPECT_EQ(got.simTicks, expected.simTicks);
    EXPECT_EQ(got.packets, expected.packets);
    EXPECT_EQ(got.stragglers, expected.stragglers);
    EXPECT_EQ(got.finishTicks, expected.finishTicks);
}

TEST(WorkerPoolDeterminism, NonConservativeShardedStillCompletes)
{
    // With Q > T the sharded engine is racy (like the paper's system)
    // but must stay functionally correct at any worker count.
    for (std::size_t workers : {1u, 2u, 5u}) {
        const auto result =
            runWith("burst", 8, "fixed:50us", workers, true, 0.1);
        EXPECT_GT(result.simTicks, 0u);
        EXPECT_GT(result.packets, 0u);
    }
}
