/**
 * @file
 * Heap allocations of cluster construction, counted by a replacement
 * global operator new (it counts for this whole test binary; only the
 * test below reads the count).
 *
 * A node's build cost is what the paper's OS-idle model rests on:
 * thousands of mostly idle nodes must cost almost nothing. Per-node
 * stats are descriptors over owner counters (stats::Descriptor), so
 * building a node allocates only what the node holds.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "engine/cluster.hh"
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

TEST(ClusterAlloc, PerNodeBuildAllocationsStayAtFiveOrFewer)
{
    // The difference of two sizes cancels the per-cluster allocations
    // (controller, vectors' first blocks), leaving the per-node ones.
    const std::uint64_t small = buildAllocations(512);
    const std::uint64_t large = buildAllocations(1024);
    ASSERT_GT(large, small);
    const double per_node = static_cast<double>(large - small) / 512.0;
    RecordProperty("per_node_build_allocations", std::to_string(per_node));
    std::printf("per-node build allocations: %.2f\n", per_node);
    // Five: the node, its CPU model, its MPI endpoint, its app
    // context and the guest coroutine frame. The event queue and the
    // NIC receive pool hold their first entries inline.
    EXPECT_LE(per_node, 5.0) << "per-node allocations: " << per_node;
    EXPECT_GE(per_node, 1.0) << "the counter is not counting";
}

} // namespace
} // namespace aqsim
