/**
 * @file
 * Where a node's coroutine frames come from.
 *
 * Every sim::Process frame is allocated through
 * Process::promise_type::operator new, which is handed the
 * coroutine's arguments. The first argument that names a node (has a
 * `sim::FramePool &framePool()` member: an mpi::Endpoint, a
 * workloads::AppContext) picks that node's pool; a coroutine with no
 * such argument gets a plain heap frame.
 *
 * A pool serves a frame from one of two places:
 *
 *  - while the cluster installs the programs, from the cluster's
 *    block (carveFrom), so the program frames sit beside the nodes
 *    they run on and cost no heap block each; such a frame is never
 *    reused, the block goes back whole;
 *  - otherwise from a free list per 64-byte size class: a frame that
 *    dies goes on its class's list and the next frame of that class
 *    reuses it, so a node's steady stream of send, sendrecv and
 *    collective frames stops allocating after the first of each.
 *    Frames above the largest class come from the heap each time.
 *
 * The pool gives its free lists back to the heap when it dies. A
 * frame records its pool in a 16-byte header in front of it, so
 * release() needs no argument but the frame.
 *
 * A pool is not thread-safe: it belongs to one node, and a node's
 * frames are made and destroyed only by the thread running that node.
 * Under AddressSanitizer a frame on a free list (and a dead block
 * frame) is poisoned, so a use of a recycled frame still fails.
 */

#ifndef AQSIM_SIM_FRAME_POOL_HH
#define AQSIM_SIM_FRAME_POOL_HH

#include <concepts>
#include <cstddef>
#include <cstdint>

namespace aqsim::base
{
class Block;
} // namespace aqsim::base

namespace aqsim::sim
{

/** One node's coroutine frames; see the file comment. */
class FramePool
{
  public:
    /** The size-class step, and the largest pooled frame. */
    static constexpr std::size_t classBytes = 64;
    static constexpr std::size_t numClasses = 8;

    FramePool() = default;
    ~FramePool();

    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    /** Carve new frames from @p block while it has room (nullptr:
     * stop). The block must outlive every frame carved from it. */
    void carveFrom(base::Block *block) { block_ = block; }

    /** A frame of @p size bytes from @p pool, or from the heap if
     * @p pool is nullptr. */
    static void *allocate(FramePool *pool, std::size_t size);

    /** Give back a frame allocate() returned. */
    static void release(void *frame) noexcept;

  private:
    /** Where a frame came from, and so where release() puts it. */
    enum class Source : std::uint32_t
    {
        Heap,
        FreeList,
        Block,
    };

    /** In front of every frame. While the frame sits on a free list,
     * `next` replaces `pool`. */
    struct Header
    {
        union
        {
            FramePool *pool;
            Header *next;
        };
        /** The frame's bytes behind the header. */
        std::uint32_t bytes;
        Source source;
    };
    static_assert(sizeof(Header) == 16, "keeps frames 16-byte aligned");

    base::Block *block_ = nullptr;
    /** Free frames per class (class c at free_[c - 1]). */
    Header *free_[numClasses] = {};
};

/** A coroutine argument that names the node whose pool serves the
 * frame. */
template <typename T>
concept NamesFramePool = requires(T &t) {
    { t.framePool() } -> std::same_as<FramePool &>;
};

/** The pool named by the first argument that names one, or nullptr. */
inline FramePool *
framePoolOf()
{
    return nullptr;
}

template <typename First, typename... Rest>
FramePool *
framePoolOf(First &first, Rest &...rest)
{
    if constexpr (NamesFramePool<First>)
        return &first.framePool();
    else
        return framePoolOf(rest...);
}

} // namespace aqsim::sim

#endif // AQSIM_SIM_FRAME_POOL_HH
