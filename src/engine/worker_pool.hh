/**
 * @file
 * Persistent quantum-synchronous worker pool for the ThreadedEngine,
 * plus the per-node cross-thread delivery mailbox its shards
 * communicate through.
 *
 * The paper's Fig. 5 observation — per-quantum synchronization
 * overhead dominates parallel cluster simulation — applies to our own
 * host execution too. Two design points follow from it:
 *
 *  - One epoch-counted WorkerBarrier with a spin-then-yield wait is
 *    the only rendezvous: an uncontended crossing is one atomic RMW
 *    per thread and never enters the kernel.
 *  - WorkerPool spawns K-1 threads once per run and reuses them every
 *    quantum; the thread calling runQuantum() runs shard 0 itself, so
 *    no thread sits idle waiting for the others, and a one-worker run
 *    is an inline call. A 64-node cluster on an 8-core host runs
 *    ceil(64/8) node shards per thread instead of oversubscribing the
 *    machine with 64 threads (see docs/performance.md).
 *
 * Memory-ordering contract: runQuantum() returns only after the
 * quantum-end crossing, and the next one starts with the quantum-start
 * crossing, so everything the calling thread writes between quanta is
 * visible to every worker in the next quantum and everything a worker
 * writes in a quantum is visible to the caller after runQuantum().
 * Engines rely on this to touch node state between quanta without
 * extra locks.
 */

#ifndef AQSIM_ENGINE_WORKER_POOL_HH
#define AQSIM_ENGINE_WORKER_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "base/mutex.hh"
#include "base/types.hh"
#include "net/network_controller.hh"
#include "net/packet.hh"

namespace aqsim::engine
{

namespace detail
{

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

constexpr int spinIterations = 256;

/**
 * Spin briefly for the low-latency common case, then yield so an
 * oversubscribed host (more workers than cores) makes progress
 * instead of burning a timeslice.
 */
template <typename Pred>
inline void
spinUntil(Pred pred)
{
    for (int i = 0; i < spinIterations; ++i) {
        if (pred())
            return;
        cpuRelax();
    }
    while (!pred())
        std::this_thread::yield();
}

} // namespace detail

/**
 * Epoch-counted (sense-reversing) barrier for a fixed set of threads:
 * the only rendezvous of the ThreadedEngine. The WorkerPool crosses it
 * at quantum start and quantum end, and the engine crosses it once in
 * between to separate its execute and exchange phases. Free at K=1.
 *
 * Everything any thread wrote before its arriveAndWait() is visible
 * to every thread after the call returns (release sequence on the
 * arrival count into the last arriver, release/acquire on the epoch
 * out of it). Back-to-back reuse is safe: a phase cannot complete
 * without every thread's arrival, so a waiter that has not yet seen
 * the epoch move still sees it differ from the one it entered with.
 */
class WorkerBarrier
{
  public:
    explicit WorkerBarrier(std::size_t workers) : workers_(workers) {}

    WorkerBarrier(const WorkerBarrier &) = delete;
    WorkerBarrier &operator=(const WorkerBarrier &) = delete;

    /** Arrive and block until every thread has arrived. */
    void
    arriveAndWait()
    {
        if (workers_ == 1)
            return;
        const std::uint64_t epoch =
            epoch_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            workers_) {
            // Last arriver: reset the count *before* the epoch bump
            // that lets anyone (and eventually itself) re-enter.
            arrived_.store(0, std::memory_order_relaxed);
            epoch_.fetch_add(1, std::memory_order_release);
            return;
        }
        detail::spinUntil([&] {
            return epoch_.load(std::memory_order_acquire) != epoch;
        });
    }

  private:
    alignas(64) std::atomic<std::uint64_t> epoch_{0};
    alignas(64) std::atomic<std::size_t> arrived_{0};
    const std::size_t workers_;
};

/** A delivery parked in a destination node's mailbox (by value). */
struct ParkedDelivery
{
    net::Packet pkt;
    Tick when;
    /** How the placement was accounted (for the invariant checker). */
    net::DeliveryKind kind;
};

/**
 * Per-node cross-thread mailbox for *urgent* deliveries only:
 * stragglers and on-time deliveries that land inside the receiver's
 * open quantum, which must reach the live receiver mid-quantum.
 * Cross-quantum deliveries — every delivery of a conservative run —
 * bypass the mailbox entirely and are staged lock-free in the source
 * shard's DeliveryBatch run, so the mailbox lock is off the
 * conservative hot path.
 *
 * Swap-buffer style: producers park deliveries with one short lock
 * acquisition; the consumer drains the whole batch with one lock
 * acquisition into a reusable scratch buffer, so the steady state
 * allocates nothing and never holds the lock while delivering.
 *
 * The owner-side handshake (open/close) is lock-free in the common
 * empty case — across a cluster that is K×N avoided uncontended
 * mutex acquisitions per quantum. It still guarantees the property
 * the canonical exchange merge depends on: a placement that saw the
 * node open has pushed before close() returns, and everything placed
 * after close() is deferred to the quantum boundary. The mechanism is
 * a Dekker-style pairing: a producer increments claims_ (seq_cst)
 * *before* re-reading atBarrier_, and close() stores atBarrier_
 * (seq_cst) *before* reading claims_ — sequential consistency forbids
 * both sides reading the stale value, so close() either sees the
 * claim (and waits for it to resolve into a push or a deferral) or
 * the producer sees the barrier (and defers).
 */
class NodeMailbox
{
  public:
    /**
     * Producer (any worker): decide placement of @p pkt (with
     * in-quantum ideal arrival @p ideal < @p qe) against the open
     * quantum. Urgent placements (receiver still running) are parked
     * here and @p parked is set; barrier placements (receiver already
     * closed) are *not* stored — the caller stages them into its
     * shard's DeliveryBatch run for the canonical barrier merge.
     */
    Tick park(const net::Packet &pkt, Tick ideal, Tick qe,
              net::DeliveryKind &kind, bool &parked)
        AQSIM_EXCLUDES(mutex_);

    /** Owner: open the node's quantum slice (lock-free). */
    void
    open()
    {
        atBarrier_.store(false, std::memory_order_release);
    }

    /**
     * Owner: close the slice atomically w.r.t. producers; lock-free
     * whenever the mailbox is empty and unclaimed (the common case).
     * @return true if deliveries raced in before the close.
     */
    bool close() AQSIM_EXCLUDES(mutex_);

    /**
     * Swap the parked batch out under one lock acquisition. The
     * returned buffer is reused on the next drain; only the node's
     * owning worker drains (mid-quantum and at close), so the single
     * scratch buffer is race-free without the lock.
     */
    std::vector<ParkedDelivery> &drain() AQSIM_EXCLUDES(mutex_);

    /** Set while the mailbox holds a delivery inside the open quantum. */
    bool
    urgent() const
    {
        return urgent_.load(std::memory_order_acquire);
    }

    /** Owner: publish the node's simulated position to producers. */
    void
    setCurrentTick(Tick t)
    {
        currentTick_.store(t, std::memory_order_release);
    }

  private:
    base::Mutex mutex_;
    std::vector<ParkedDelivery> incoming_ AQSIM_GUARDED_BY(mutex_);
    /** Consumer-owned (only the owning worker drains, and the pool
     * barrier orders drains across quanta); deliberately not
     * GUARDED_BY — it is touched outside the lock by that worker. */
    std::vector<ParkedDelivery> scratch_;
    /** True between close() and open(); the Dekker partner of
     * claims_ (see class comment). */
    std::atomic<bool> atBarrier_{true};
    /** Producers in flight between their claim and its resolution. */
    std::atomic<std::uint32_t> claims_{0};
    std::atomic<Tick> currentTick_{0};
    /** Maintained under mutex_ as "incoming_ is non-empty": set by
     * the producer after its push, cleared by the drain's swap. */
    std::atomic<bool> urgent_{false};
};

/**
 * A persistent pool of K workers driven one quantum at a time. Worker 0
 * is the thread that calls runQuantum(); workers 1..K-1 are threads
 * spawned once and parked at the quantum-start crossing between
 * quanta. The destructor publishes stop, crosses once and joins.
 */
class WorkerPool
{
  public:
    /** Per-quantum work: (worker index, quantum end tick). */
    using QuantumFn = std::function<void(std::size_t, Tick)>;

    WorkerPool(std::size_t workers, QuantumFn fn);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run one quantum: release the workers, run shard 0 on this
     * thread, and wait for every worker at the quantum end. noexcept
     * so an exception escaping shard 0 terminates, exactly as one
     * escaping a spawned worker does, instead of unwinding past the
     * barrier its peers are waiting at.
     */
    void
    runQuantum(Tick quantum_end) noexcept
    {
        quantumEnd_ = quantum_end;
        barrier_.arriveAndWait();
        fn_(0, quantum_end);
        barrier_.arriveAndWait();
    }

    /**
     * The pool's barrier, for a rendezvous inside a quantum: every
     * worker must cross it the same number of times per quantum.
     */
    WorkerBarrier &barrier() { return barrier_; }

    std::size_t numWorkers() const { return threads_.size() + 1; }

    /**
     * Resolve a requested worker count: 0 means the host's hardware
     * concurrency; the result is clamped to [1, num_tasks] so no
     * worker ever owns an empty shard.
     */
    static std::size_t resolveWorkerCount(std::size_t requested,
                                          std::size_t num_tasks);

    /**
     * Contiguous shard [begin, end) of @p num_tasks owned by
     * @p worker when split across @p workers (ceil division; the last
     * shards may be one element shorter).
     */
    static std::pair<std::size_t, std::size_t>
    shardRange(std::size_t worker, std::size_t workers,
               std::size_t num_tasks);

  private:
    void threadBody(std::size_t worker);

    WorkerBarrier barrier_;
    /** Written by worker 0 before the quantum-start crossing. */
    Tick quantumEnd_ = 0;
    bool stop_ = false;
    QuantumFn fn_;
    std::vector<std::thread> threads_;
};

} // namespace aqsim::engine

#endif // AQSIM_ENGINE_WORKER_POOL_HH
