#include "base/block.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

#include "base/logging.hh"

namespace aqsim::base
{

namespace
{

std::size_t
roundUp(std::size_t n, std::size_t to)
{
    return (n + to - 1) / to * to;
}

} // namespace

Block::Block(std::size_t bytes)
{
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const bool huge = bytes >= hugePageBytes;
    size_ = roundUp(bytes ? bytes : 1, huge ? hugePageBytes : page);
    // A huge-page block is mapped one huge page longer and trimmed to
    // a 2 MB-aligned span, so every 2 MB of it can be one huge page.
    const std::size_t mapped = huge ? size_ + hugePageBytes : size_;
    void *map = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map == MAP_FAILED)
        throw std::bad_alloc();
    auto *start = static_cast<std::byte *>(map);
    if (huge) {
        const auto addr = reinterpret_cast<std::uintptr_t>(start);
        const std::size_t head = roundUp(addr, hugePageBytes) - addr;
        if (head)
            ::munmap(start, head);
        if (hugePageBytes - head)
            ::munmap(start + head + size_, hugePageBytes - head);
        start += head;
        // Advice, not a requirement: with THP off this fails or does
        // nothing, and the block is plain pages.
        ::madvise(start, size_, MADV_HUGEPAGE);
    }
    base_ = start;
    poisonMemory(base_, size_);
}

Block::~Block()
{
    unpoisonMemory(base_, size_);
    ::munmap(base_, size_);
}

void *
Block::carve(std::size_t bytes, std::size_t align)
{
    AQSIM_ASSERT(align && (align & (align - 1)) == 0);
    const std::size_t at = roundUp(used_, align);
    if (at > size_ || bytes > size_ - at)
        return nullptr;
    used_ = at + bytes;
    unpoisonMemory(base_ + at, bytes);
    return base_ + at;
}

} // namespace aqsim::base
