#include "engine/worker_pool.hh"

#include <algorithm>

#include "base/logging.hh"

namespace aqsim::engine
{

Tick
NodeMailbox::park(const net::Packet &pkt, Tick ideal, Tick qe,
                  net::DeliveryKind &kind, bool &parked)
{
    parked = false;
    // Lock-free fast path — Fig. 3d: receiver already closed its
    // quantum slice. Not stored: the caller stages it for the
    // canonical exchange merge (DeliveryBatch).
    if (atBarrier_.load(std::memory_order_seq_cst)) {
        kind = net::DeliveryKind::NextQuantum;
        return qe;
    }
    // Dekker handshake with close(): claim *before* re-reading the
    // barrier flag (both seq_cst; see the class comment). Either the
    // re-read sees the barrier and we defer, or close() sees this
    // claim and waits for it to resolve.
    claims_.fetch_add(1, std::memory_order_seq_cst);
    if (atBarrier_.load(std::memory_order_seq_cst)) {
        claims_.fetch_sub(1, std::memory_order_release);
        kind = net::DeliveryKind::NextQuantum;
        return qe;
    }
    Tick actual;
    {
        base::MutexLock lock(mutex_);
        const Tick rnow =
            currentTick_.load(std::memory_order_acquire);
        if (ideal >= rnow) {
            kind = net::DeliveryKind::OnTime;
            actual = ideal;
        } else {
            kind = net::DeliveryKind::Straggler;
            actual = std::min(rnow, qe);
        }
        incoming_.push_back(ParkedDelivery{pkt, actual, kind});
        urgent_.store(true, std::memory_order_release);
    }
    // The release decrement pairs with close()'s acquire wait: the
    // push above is visible wherever the claim is seen resolved.
    claims_.fetch_sub(1, std::memory_order_release);
    parked = true;
    return actual;
}

bool
NodeMailbox::close()
{
    // Dekker partner of park()'s claim (see the class comment).
    atBarrier_.store(true, std::memory_order_seq_cst);
    if (claims_.load(std::memory_order_seq_cst) != 0) {
        // A producer saw the node open and is parking right now; its
        // push-or-defer resolves in a bounded handful of
        // instructions, so waiting for it keeps the old "saw open =>
        // pushed before close returns" guarantee.
        detail::spinUntil([&] {
            return claims_.load(std::memory_order_acquire) == 0;
        });
    }
    // Quiescent now: claims are drained and any later producer sees
    // the barrier flag, so the empty hint is exact and the common
    // empty case returns without ever touching the mutex.
    return urgent_.load(std::memory_order_acquire);
}

std::vector<ParkedDelivery> &
NodeMailbox::drain()
{
    scratch_.clear();
    {
        base::MutexLock lock(mutex_);
        scratch_.swap(incoming_);
        urgent_.store(false, std::memory_order_release);
    }
    return scratch_;
}

WorkerPool::WorkerPool(std::size_t workers, QuantumFn fn)
    : barrier_(workers), fn_(std::move(fn))
{
    if (workers == 0)
        fatal("worker pool needs at least one worker "
              "(use resolveWorkerCount to map 0 to the host's "
              "concurrency)");
    threads_.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w)
        threads_.emplace_back(&WorkerPool::threadBody, this, w);
}

WorkerPool::~WorkerPool()
{
    // Every worker is parked at the quantum-start crossing (each
    // runQuantum ended with a full crossing), so one stop crossing
    // reaches each exactly once.
    stop_ = true;
    barrier_.arriveAndWait();
    for (auto &t : threads_)
        t.join();
}

void
WorkerPool::threadBody(std::size_t worker)
{
    for (;;) {
        barrier_.arriveAndWait();
        if (stop_)
            return;
        fn_(worker, quantumEnd_);
        barrier_.arriveAndWait();
    }
}

std::size_t
WorkerPool::resolveWorkerCount(std::size_t requested,
                               std::size_t num_tasks)
{
    std::size_t workers = requested;
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
    }
    workers = std::min(workers, num_tasks);
    return std::max<std::size_t>(workers, 1);
}

std::pair<std::size_t, std::size_t>
WorkerPool::shardRange(std::size_t worker, std::size_t workers,
                       std::size_t num_tasks)
{
    const std::size_t per = (num_tasks + workers - 1) / workers;
    const std::size_t begin = std::min(worker * per, num_tasks);
    const std::size_t end = std::min(begin + per, num_tasks);
    return {begin, end};
}

} // namespace aqsim::engine
