/**
 * @file
 * The memory shape of a cluster: heap allocations counted by a
 * replacement global operator new (it counts for this whole test
 * binary; only the tests below read the count), and the page faults
 * of a build (getrusage).
 *
 * A node's build cost is what the paper's OS-idle model rests on:
 * thousands of mostly idle nodes must cost almost nothing. A cluster
 * builds every node's objects and its program frame into one block
 * (base::Block), and a node recycles its later coroutine frames
 * (sim::FramePool), so neither a build nor the message path makes a
 * heap allocation per node or per message.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

#include "core/quantum_policy.hh"
#include "engine/cluster.hh"
#include "engine/threaded_engine.hh"
#include "harness/experiment.hh"
#include "workloads/workload.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t size) noexcept
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

/** Out of line, so the compiler does not pair an inlined free() with
 * the operator new that returned the pointer. */
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

} // namespace

// Every unaligned form is replaced, so none of them can pair this
// binary's malloc/free with a sanitizer's own allocator.
void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    release(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    release(p);
}

namespace aqsim
{
namespace
{

/** Heap allocations made while building an @p nodes-node nas.ep
 * cluster (the workload itself is built first and not counted). */
std::uint64_t
buildAllocations(std::size_t nodes)
{
    auto workload = workloads::makeWorkload("nas.ep", nodes, 1.0);
    const auto params = harness::defaultCluster(nodes, 1);
    const std::uint64_t before = allocations.load();
    engine::Cluster cluster(params, *workload);
    return allocations.load() - before;
}

TEST(ClusterAlloc, PerNodeBuildAllocationsAreZero)
{
    // The difference of two sizes cancels the per-cluster allocations
    // (controller, pointer vectors), leaving the per-node ones.
    const std::uint64_t small = buildAllocations(512);
    const std::uint64_t large = buildAllocations(1024);
    const double per_node =
        (static_cast<double>(large) - static_cast<double>(small)) / 512.0;
    RecordProperty("per_node_build_allocations", std::to_string(per_node));
    std::printf("per-node build allocations: %.2f (%llu at 512 nodes)\n",
                per_node, static_cast<unsigned long long>(small));
    // The node, its CPU model, its MPI endpoint, its app context and
    // the program's coroutine frame are built in the cluster's block;
    // the event queue and the NIC receive pool hold their first
    // entries inline.
    EXPECT_LE(per_node, 0.0) << "per-node allocations: " << per_node;
    EXPECT_GE(small, 1u) << "the counter is not counting";
}

/** True in a sanitizer build, whose shadow memory faults on its own. */
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool sanitized = true;
#else
constexpr bool sanitized = false;
#endif

/** @return true if transparent huge pages are off on this host. */
bool
hugePagesDisabled()
{
    std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string modes;
    std::getline(in, modes);
    return modes.find("[never]") != std::string::npos;
}

long
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
}

TEST(ClusterAlloc, BuildOf2048NodesTakesAtMost100MinorFaults)
{
    if (hugePagesDisabled())
        GTEST_SKIP() << "transparent huge pages are set to never";
    if (sanitized)
        GTEST_SKIP() << "the sanitizer's shadow pages fault too";
    auto workload = workloads::makeWorkload("nas.ep", 2048, 1.0);
    const auto params = harness::defaultCluster(2048, 1);
    const long before = minorFaults();
    auto cluster = std::make_unique<engine::Cluster>(params, *workload);
    const long faults = minorFaults() - before;
    RecordProperty("build_minor_faults", std::to_string(faults));
    std::printf("2048-node build: %ld minor faults\n", faults);
    // The block's used 3.9 MB in two huge pages, plus the controller's
    // per-source arrays and the cluster's pointer vectors.
    EXPECT_LE(faults, 100);
}

TEST(ClusterAlloc, Is256RunMakesFewerThan10000Allocations)
{
    // The perfbench is256.thr.dyn configuration: NAS IS on 256 nodes
    // at scale 0.25, adaptive quantum, two worker threads. Each node
    // reuses its send and collective frames, so the run's allocations
    // do not grow with its 1.36 M messages.
    auto workload = workloads::makeWorkload("nas.is", 256, 0.25);
    const auto params = harness::defaultCluster(256, 1);
    auto policy = core::parsePolicy("dyn:1.03:0.02:1us:1000us");
    engine::EngineOptions options;
    options.numWorkers = 2;
    engine::ThreadedEngine engine(options);
    const std::uint64_t before = allocations.load();
    const engine::RunResult result = engine.run(params, *workload, *policy);
    const std::uint64_t made = allocations.load() - before;
    RecordProperty("run_allocations", std::to_string(made));
    std::printf("is256 run: %llu allocations, %llu packets\n",
                static_cast<unsigned long long>(made),
                static_cast<unsigned long long>(result.packets));
    EXPECT_GT(result.packets, 100000u);
    EXPECT_LT(made, 10000u);
}

} // namespace
} // namespace aqsim
