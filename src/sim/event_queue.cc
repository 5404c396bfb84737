#include "sim/event_queue.hh"

#include <algorithm>

#include "base/logging.hh"
#include "check/invariants.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::sim
{

EventQueue::EventQueue()
{
    // Thread the inline records onto the free list low-slot-first.
    for (std::uint32_t i = 0; i + 1 < inlineRecords; ++i)
        firstRecords_[i].nextFree = i + 1;
    firstRecords_[inlineRecords - 1].nextFree = noFreeSlot;
}

void
EventQueue::scheduleChecks(Tick when)
{
    check::InvariantChecker::instance().onEventScheduled(when, now_);
    AQSIM_ASSERT(when >= now_);
}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ == noFreeSlot)
        addChunk();
    const std::uint32_t slot = freeHead_;
    freeHead_ = recordAt(slot)->nextFree;
    return slot;
}

void
EventQueue::addChunk()
{
    const std::uint32_t base = capacity_;
    chunks_.push_back(std::make_unique<Record[]>(chunkSize));
    capacity_ += chunkSize;
    // Thread the fresh records onto the free list low-slot-first.
    for (std::uint32_t i = chunkSize; i-- > 0;) {
        recordAt(base + i)->nextFree = freeHead_;
        freeHead_ = base + i;
    }
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Record &rec = *recordAt(slot);
    // Invalidate every outstanding handle/heap entry; skip 0 on wrap
    // so no live generation ever equals the invalidEvent encoding.
    if (++rec.gen == 0)
        rec.gen = 1;
    rec.nextFree = freeHead_;
    freeHead_ = slot;
}

bool
EventQueue::deschedule(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id >> 32);
    const auto gen = static_cast<std::uint32_t>(id);
    if (slot >= capacity_)
        return false;
    Record &rec = *recordAt(slot);
    if (rec.gen != gen || !rec.cb)
        return false;
    // Lazy cancellation: the heap entry stays and is dropped when it
    // reaches the head (its generation no longer matches).
    rec.cb.reset();
    freeSlot(slot);
    ++stale_;
    --numLive_;
    ++numCancelled_;
    return true;
}

void
EventQueue::pushHeap(const HeapKey &key, const HeapRef &ref)
{
    // 4-ary sift-up with a hole (no swaps): parent of i is (i-1)/4.
    // Only keys_ is compared; refs_ just mirrors the moves.
    keys_.push_back(key);
    refs_.push_back(ref);
    std::size_t i = keys_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!key.before(keys_[parent]))
            break;
        keys_[i] = keys_[parent];
        refs_[i] = refs_[parent];
        i = parent;
    }
    keys_[i] = key;
    refs_[i] = ref;
}

void
EventQueue::popHeapTop() const
{
    const HeapKey last_key = keys_.back();
    const HeapRef last_ref = refs_.back();
    keys_.pop_back();
    refs_.pop_back();
    const std::size_t n = keys_.size();
    if (n == 0)
        return;
    // 4-ary sift-down of the former tail: children of i start at 4i+1.
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = (i << 2) + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t end = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < end; ++c) {
            if (keys_[c].before(keys_[best]))
                best = c;
        }
        if (!keys_[best].before(last_key))
            break;
        keys_[i] = keys_[best];
        refs_[i] = refs_[best];
        i = best;
    }
    keys_[i] = last_key;
    refs_[i] = last_ref;
}

void
EventQueue::dropStaleHeads() const
{
    // stale_ > 0 means the heap holds a cancelled entry, so it is
    // not empty.
    while (stale_ != 0 &&
           recordAt(refs_.front().slot)->gen != refs_.front().gen) {
        popHeapTop();
        --stale_;
    }
}

bool
EventQueue::empty() const
{
    pruneStale();
    return keys_.empty();
}

Tick
EventQueue::nextTick() const
{
    pruneStale();
    return keys_.empty() ? maxTick : keys_.front().when;
}

void
EventQueue::fireTop()
{
    const HeapKey top = keys_.front();
    const HeapRef top_ref = refs_.front();
    popHeapTop();
    Record &rec = *recordAt(top_ref.slot);
    check::InvariantChecker::instance().onTickAdvance(now_, top.when);
    AQSIM_ASSERT(top.when >= now_);
    now_ = top.when;
    ++numExecuted_;
    --numLive_;
    // The handle dies before the callback runs (a self-deschedule must
    // return false), but the slot is recycled only afterwards: the
    // callback may schedule new events, and records never move, so
    // invoking in place is safe.
    if (++rec.gen == 0)
        rec.gen = 1;
    rec.cb();
    rec.cb.reset();
    rec.nextFree = freeHead_;
    freeHead_ = top_ref.slot;
}

bool
EventQueue::runOne()
{
    pruneStale();
    if (keys_.empty())
        return false;
    fireTop();
    return true;
}

std::size_t
EventQueue::runUntil(Tick limit)
{
    AQSIM_ASSERT(limit >= now_);
    std::size_t executed = 0;
    // One heap peek per event: pruneStale() leaves a live head, whose
    // tick decides both "is there work" and "is it within the limit".
    for (;;) {
        pruneStale();
        if (keys_.empty() || keys_.front().when > limit)
            break;
        fireTop();
        ++executed;
    }
    now_ = limit;
    return executed;
}

void
EventQueue::fastForwardTo(Tick when)
{
    check::InvariantChecker::instance().onTickAdvance(now_, when);
    AQSIM_ASSERT(when >= now_);
    AQSIM_ASSERT(nextTick() >= when);
    now_ = when;
}

void
EventQueue::serialize(ckpt::Writer &w) const
{
    w.u64(now_);
    w.u64(nextSeq_);
    w.u64(numScheduled_);
    w.u64(numExecuted_);
    w.u64(numCancelled_);

    // Live entries only, in the queue's own deterministic execution
    // order; the heap array layout is an implementation artifact and
    // must not leak into the fingerprint.
    std::vector<HeapKey> live;
    live.reserve(numLive_);
    for (std::size_t i = 0; i < keys_.size(); ++i)
        if (recordAt(refs_[i].slot)->gen == refs_[i].gen)
            live.push_back(keys_[i]);
    std::sort(live.begin(), live.end(),
              [](const HeapKey &a, const HeapKey &b) {
                  return a.before(b);
              });
    w.u32(static_cast<std::uint32_t>(live.size()));
    for (const HeapKey &e : live) {
        w.u64(e.when);
        w.i32(e.prio);
        w.u64(e.seq);
    }
}

} // namespace aqsim::sim
