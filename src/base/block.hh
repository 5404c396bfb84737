/**
 * @file
 * One mapped block that objects are built into in place.
 *
 * A Block is one anonymous private mapping that hands out memory front
 * to back (carve) and goes back to the system whole when the Block
 * dies; nothing carved from it is freed on its own. engine::Cluster
 * builds every node's objects into one (docs/performance.md, "A
 * cluster owns its nodes' memory"), so standing N nodes up costs one
 * mapping instead of 5N heap blocks, and their pages are the block's.
 *
 * A block that spans at least one 2 MB huge page is aligned to 2 MB
 * and marked MADV_HUGEPAGE: on a host whose transparent huge pages are
 * set to `madvise` or `always`, touching it takes one fault per 2 MB
 * instead of one per 4 KB page. On a host set to `never` the advice
 * does nothing and the block is plain 4 KB pages; the code path is the
 * same. The size is the only input to the choice.
 *
 * Under AddressSanitizer the unused part of the block stays poisoned,
 * so a stray access past the last carved object fails loudly.
 */

#ifndef AQSIM_BASE_BLOCK_HH
#define AQSIM_BASE_BLOCK_HH

#include <cstddef>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace aqsim::base
{

/** Mark [@p p, @p p + @p n) unaddressable under ASan; else nothing. */
inline void
poisonMemory([[maybe_unused]] const void *p, [[maybe_unused]] std::size_t n)
{
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

/** Undo poisonMemory() for [@p p, @p p + @p n). */
inline void
unpoisonMemory([[maybe_unused]] const void *p,
               [[maybe_unused]] std::size_t n)
{
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

/** A bump-allocated anonymous mapping; see the file comment. */
class Block
{
  public:
    static constexpr std::size_t hugePageBytes = std::size_t{2} << 20;

    /** Map at least @p bytes (rounded up to whole pages, or to whole
     * huge pages once it spans one). Throws std::bad_alloc if the
     * mapping fails. */
    explicit Block(std::size_t bytes);
    ~Block();

    Block(const Block &) = delete;
    Block &operator=(const Block &) = delete;

    /**
     * @return @p bytes at the next @p align boundary of the unused
     * space, or nullptr if they do not fit. @p align is a power of
     * two no larger than a page.
     */
    void *carve(std::size_t bytes,
                std::size_t align = __STDCPP_DEFAULT_NEW_ALIGNMENT__);

    /** Construct a T in the block; throws std::bad_alloc if it does
     * not fit. The caller runs its destructor before the block dies. */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        void *p = carve(sizeof(T), alignof(T));
        if (!p)
            throw std::bad_alloc();
        return ::new (p) T(std::forward<Args>(args)...);
    }

  private:
    std::byte *base_ = nullptr;
    std::size_t size_ = 0;
    std::size_t used_ = 0;
};

} // namespace aqsim::base

#endif // AQSIM_BASE_BLOCK_HH
