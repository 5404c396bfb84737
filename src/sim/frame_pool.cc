#include "sim/frame_pool.hh"

#include <new>

#include "base/block.hh"

namespace aqsim::sim
{

FramePool::~FramePool()
{
    for (std::size_t c = 0; c < numClasses; ++c) {
        while (Header *h = free_[c]) {
            base::unpoisonMemory(h, sizeof(Header) + (c + 1) * classBytes);
            free_[c] = h->next;
            ::operator delete(h);
        }
    }
}

void *
FramePool::allocate(FramePool *pool, std::size_t size)
{
    const std::size_t cls = (size + classBytes - 1) / classBytes;
    Header *h = nullptr;
    if (pool && pool->block_) {
        const std::size_t bytes = (size + 15) / 16 * 16;
        h = static_cast<Header *>(
            pool->block_->carve(sizeof(Header) + bytes));
        if (h) {
            h->pool = pool;
            h->bytes = static_cast<std::uint32_t>(bytes);
            h->source = Source::Block;
            return h + 1;
        }
    }
    if (!pool || cls > numClasses) {
        h = static_cast<Header *>(::operator new(sizeof(Header) + size));
        h->pool = nullptr;
        h->bytes = static_cast<std::uint32_t>(size);
        h->source = Source::Heap;
        return h + 1;
    }
    Header *&head = pool->free_[cls - 1];
    if (head) {
        h = head;
        base::unpoisonMemory(h, sizeof(Header) + cls * classBytes);
        head = h->next;
    } else {
        h = static_cast<Header *>(
            ::operator new(sizeof(Header) + cls * classBytes));
        h->bytes = static_cast<std::uint32_t>(cls * classBytes);
        h->source = Source::FreeList;
    }
    h->pool = pool;
    return h + 1;
}

void
FramePool::release(void *frame) noexcept
{
    Header *h = static_cast<Header *>(frame) - 1;
    switch (h->source) {
      case Source::Heap:
        ::operator delete(h);
        return;
      case Source::FreeList: {
        Header *&head = h->pool->free_[h->bytes / classBytes - 1];
        h->next = head;
        head = h;
        break;
      }
      case Source::Block:
        // Dead until the block goes back whole.
        break;
    }
    base::poisonMemory(h, sizeof(Header) + h->bytes);
}

} // namespace aqsim::sim
