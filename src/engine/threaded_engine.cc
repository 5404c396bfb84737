#include "engine/threaded_engine.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "base/failure.hh"
#include "base/logging.hh"
#include "base/mutex.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/ckpt_io.hh"
#include "core/synchronizer.hh"
#include "engine/delivery_batch.hh"
#include "engine/quantum_driver.hh"
#include "engine/shard_exec.hh"
#include "engine/worker_pool.hh"

namespace aqsim::engine
{

namespace
{

/**
 * Thread-safe placement. Cross-quantum deliveries — every delivery of
 * a conservative run — take the lock-free path: they are staged into
 * the *source* shard's DeliveryBatch run (this thread is the shard's
 * owning worker, so the append is single-writer) and merged into the
 * destination queues in canonical order at the barrier. Only
 * in-quantum deliveries (stragglers / on-time to a live receiver) go
 * through the destination's NodeMailbox lock.
 */
class ThreadedScheduler : public net::DeliveryScheduler
{
  public:
    ThreadedScheduler(std::vector<NodeMailbox> &mailboxes,
                      DeliveryBatch &batch, core::Synchronizer &sync)
        : mailboxes_(mailboxes), batch_(batch), sync_(sync)
    {}

    Tick
    place(const net::Packet &pkt, net::DeliveryKind &kind) override
    {
        const Tick ideal = pkt.idealArrival;
        // quantumEnd only changes at the barrier, with every worker
        // parked, so this unlocked read is stable for the whole
        // quantum.
        const Tick qe = sync_.quantumEnd();
        if (ideal >= qe) {
            // Arrives in a later quantum: always safely schedulable.
            kind = net::DeliveryKind::OnTime;
            batch_.stage(pkt, ideal, kind);
            return ideal;
        }
        bool parked = false;
        const Tick when =
            mailboxes_[pkt.dst].park(pkt, ideal, qe, kind, parked);
        if (!parked)
            batch_.stage(pkt, when, kind);
        return when;
    }

  private:
    std::vector<NodeMailbox> &mailboxes_;
    DeliveryBatch &batch_;
    core::Synchronizer &sync_;
};

/**
 * The persistent worker pool as a QuantumExecutor. K workers — the
 * run's own thread as worker 0 plus K-1 pool threads — each own a
 * fixed contiguous shard of ceil(n/K) nodes for the whole run, so
 * large clusters do not oversubscribe the host with one thread per
 * node.
 */
class PoolExecutor : public QuantumExecutor
{
  public:
    PoolExecutor(Cluster &cluster, QuantumDriver &driver,
                 const EngineOptions &options)
        : cluster_(cluster), driver_(driver), options_(options),
          n_(cluster.numNodes()),
          workers_(WorkerPool::resolveWorkerCount(options.numWorkers, n_)),
          mailboxes_(n_), batch_(n_, workers_, options.phaseStats),
          scheduler_(mailboxes_, batch_, driver.sync()),
          loop_(cluster, mailboxes_.data()), earliest_(workers_, 0),
          pool_(workers_,
                [this](std::size_t w, Tick qe) { runShard(w, qe); })
    {
        cluster.controller().setScheduler(&scheduler_);
        // Each worker folds the counter slots of the nodes it ran.
        cluster.controller().setFoldLanes(workers_);
    }

    const char *name() const override { return "threaded"; }
    bool done() const override { return cluster_.allDone(); }
    bool pending() const override { return cluster_.anyEventPending(); }

    /** Every worker's bound, folded: a delivery merged into one shard
     * was staged, and so counted, by another. */
    Tick
    nextEventTick() const override
    {
        return *std::min_element(earliest_.begin(), earliest_.end());
    }

    std::optional<HostNs>
    runQuantum() override
    {
        // The exchange merge happens *inside* the quantum, after the
        // workers' exchange crossing: every destination node's staged
        // deliveries flow through its own shard's column merger in
        // canonical (when, src, departTick) order — identical for
        // every worker count — and are already dispatched (visible to
        // the deadlock check) when runQuantum returns.
        quantumStart_ = driver_.sync().quantumStart();
        pool_.runQuantum(driver_.sync().quantumEnd());
        {
            // A worker's failure is the root cause; the cancellation
            // it requested is only the messenger, so it goes first.
            base::MutexLock lock(failMutex_);
            if (firstFailure_)
                throw *firstFailure_;
        }
        return std::nullopt; // measured by the driver
    }

    /**
     * All workers are parked at the barrier and the shard runs are
     * merged, so the cut is identical for every worker count. The
     * engine-private section carries only the delivery layer's
     * quiescence proof and deterministic lifetime counters — never
     * measured wall-clock, which must not enter the divergence check.
     */
    ckpt::CheckpointImage
    boundaryImage(std::uint64_t config_hash) override
    {
        loop_.catchUp(0, n_, driver_.sync().quantumStart());
        ckpt::Writer w;
        DeliveryBatch::serialize(w, batch_.counts());
        return ckpt::buildImage(driver_.sync(), config_hash, name(),
                                cluster_.state().sections, w.take());
    }

    void
    describe(PanicInfo &info) const override
    {
        // Read-only (the watchdog thread calls it too): a lagging
        // clock reads as the quantum start.
        info.progress = cluster_.progressReport(info.quantumStart);
    }

    void
    finish(RunResult &result) override
    {
        loop_.catchUp(0, n_, driver_.sync().quantumStart());
        fillResult(result, cluster_.state(),
                   options_.phaseStats ? &batch_.phases() : nullptr);
    }

  private:
    /**
     * One worker's quantum: execute its shard through the shard loop,
     * meet the other workers at the exchange barrier, then merge +
     * dispatch the column destined for its *own* shard — so the merge
     * runs K-wide, with no cross-shard queue mutation (DeliveryBatch
     * documents the ownership protocol).
     *
     * Supervised runs execute under a per-thread base::FailureTrap, so
     * a fatal()/panic() raised inside an event callback (e.g.
     * reliable-delivery retry exhaustion) unwinds to here as a
     * RunAbort. The first failure is latched, cancellation is
     * requested, and the failing worker still crosses every barrier
     * so its peers are never left waiting on a thread that bailed
     * out. Any other exception terminates on every worker, worker 0
     * included (WorkerPool::runQuantum is noexcept).
     */
    void
    runShard(std::size_t w, Tick qe)
    {
        base::CancelToken *const cancel = options_.cancelToken;
        std::optional<base::FailureTrap> trap;
        if (cancel)
            trap.emplace();
        batch_.beginQuantum(w);
        try {
            if (!cancel || !cancel->cancelled()) {
                const auto [begin, end] =
                    WorkerPool::shardRange(w, workers_, n_);
                const Tick ran = loop_.runQuantum(
                    begin, end, quantumStart_, qe, w, cancel);
                earliest_[w] = std::min(ran, batch_.earliestStaged(w));
            }
        } catch (const base::RunAbort &abort) {
            latchFailure(abort);
        }
        pool_.barrier().arriveAndWait();
        // A cancellation requested before the exchange barrier is
        // visible to every worker after it, so either all shards
        // merge or none do.
        if (!cancel || !cancel->cancelled()) {
            try {
                batch_.mergeShard(w, cluster_, loop_.wake());
            } catch (const base::RunAbort &abort) {
                latchFailure(abort);
            }
        }
    }

    void
    latchFailure(const base::RunAbort &abort)
    {
        {
            base::MutexLock lock(failMutex_);
            if (!firstFailure_)
                firstFailure_ = std::make_unique<base::RunAbort>(abort);
        }
        if (options_.cancelToken)
            options_.cancelToken->requestCancel();
    }

    Cluster &cluster_;
    QuantumDriver &driver_;
    const EngineOptions &options_;
    const std::size_t n_;
    const std::size_t workers_;
    std::vector<NodeMailbox> mailboxes_;
    DeliveryBatch batch_;
    ThreadedScheduler scheduler_;
    ShardLoop loop_;
    /** Written by worker 0 before the quantum-start crossing. */
    Tick quantumStart_ = 0;
    /** By worker: the least of its nodes' wake ticks and of the
     * deliveries it staged, as of its last quantum (0: run the
     * first). */
    std::vector<Tick> earliest_;
    base::Mutex failMutex_;
    std::unique_ptr<base::RunAbort>
        firstFailure_ AQSIM_GUARDED_BY(failMutex_);
    /**
     * Declared last, so destroyed first: the workers are stopped and
     * joined before the state they touch goes away.
     */
    WorkerPool pool_;
};

} // namespace

ThreadedEngine::ThreadedEngine(EngineOptions options)
    : options_(options)
{
    if (options_.stragglerPolicy == StragglerPolicy::DeferToNextQuantum)
        fatal("EngineOptions::stragglerPolicy = DeferToNextQuantum is "
              "not supported by the threaded engine (sequential "
              "engine only)");
}


RunResult
ThreadedEngine::run(const ClusterParams &params,
                    workloads::Workload &workload,
                    core::QuantumPolicy &policy)
{
    Cluster cluster(params, workload);
    return run(cluster, policy);
}

RunResult
ThreadedEngine::run(Cluster &cluster, core::QuantumPolicy &policy)
{
    QuantumDriver driver(options_, cluster, policy);
    PoolExecutor pool(cluster, driver, options_);
    return driver.run(pool);
}

} // namespace aqsim::engine
