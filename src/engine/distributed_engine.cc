#include "engine/distributed_engine.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

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
#include "fault/peer_drill.hh"
#include "mpi/packet_codec.hh"
#include "transport/heartbeat.hh"
#include "transport/socket.hh"

namespace aqsim::engine
{

const char *
peerFailureKindName(PeerFailureKind kind)
{
    switch (kind) {
    case PeerFailureKind::Disconnect:
        return "disconnect";
    case PeerFailureKind::Hang:
        return "hang";
    case PeerFailureKind::Corrupt:
        return "corrupt";
    case PeerFailureKind::Protocol:
        return "protocol";
    }
    return "unknown";
}

std::string
PeerFailure::describe() const
{
    const char *verb = "failed";
    switch (kind) {
    case PeerFailureKind::Disconnect:
        verb = "disconnected";
        break;
    case PeerFailureKind::Hang:
        verb = "hung";
        break;
    case PeerFailureKind::Corrupt:
        verb = "sent a corrupt frame";
        break;
    case PeerFailureKind::Protocol:
        verb = "broke the barrier protocol";
        break;
    }
    char head[192];
    std::snprintf(head, sizeof(head),
                  "peer %zu (pid %ld) %s at %s after %.2fs without a "
                  "frame; peer quarantined, surviving peers torn down",
                  peer, pid, verb, phase.c_str(), frameAge);
    std::string out(head);
    if (!detail.empty()) {
        out += " (";
        out += detail;
        out += ")";
    }
    return out;
}

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double>(SteadyClock::now() - start)
        .count();
}

/* ------------------------------------------------------------------ */
/* Every process: one shard and its half of the mesh                 */
/* ------------------------------------------------------------------ */

/**
 * Staging-only placement: in a conservative run every delivery's
 * ideal arrival lies at or beyond the quantum boundary, so placement
 * never consults the receiver's live state — which is exactly what
 * makes the partitioned execution exact. A delivery inside the open
 * quantum means the conservative precondition was violated; failing
 * loudly beats silently diverging from the sequential schedule.
 */
class DistScheduler : public net::DeliveryScheduler
{
  public:
    explicit DistScheduler(DeliveryBatch &batch) : batch_(batch) {}

    void setQuantumEnd(Tick qe) { qe_ = qe; }

    Tick
    place(const net::Packet &pkt, net::DeliveryKind &kind) override
    {
        const Tick ideal = pkt.idealArrival;
        if (ideal < qe_)
            fatal("distributed run is not conservative: delivery at "
                  "tick %llu inside the open quantum ending %llu",
                  static_cast<unsigned long long>(ideal),
                  static_cast<unsigned long long>(qe_));
        kind = net::DeliveryKind::OnTime;
        batch_.stage(pkt, ideal, kind);
        return ideal;
    }

  private:
    DeliveryBatch &batch_;
    Tick qe_ = 0;
};

/** Execute any drills registered for this (peer, phase, quantum). */
void
fireDrills(const std::vector<fault::PeerDrill> &drills, std::size_t peer,
           fault::PeerDrillPhase phase, std::uint64_t quantum)
{
    for (const fault::PeerDrill &d : drills) {
        if (d.peer != peer || d.phase != phase)
            continue;
        if (phase != fault::PeerDrillPhase::Hello &&
            d.quantum != quantum)
            continue;
        switch (d.op) {
        case fault::PeerDrillOp::Kill:
            ::kill(::getpid(), SIGKILL);
            break; // unreachable
        case fault::PeerDrillOp::Stop:
            // Frozen until process 0's teardown SIGKILL: the
            // socket stays open, heartbeats stop — the Hang case.
            ::raise(SIGSTOP);
            break;
        case fault::PeerDrillOp::Exit:
            ::_exit(0); // no protocol goodbye: the half-open case
        }
    }
}

/** What a peer's Exchange frame tells process 0 besides its rows: its
 * counter advance this quantum, its progress as it will stand once
 * the quantum is merged, and a lower bound on its next event. */
struct Report
{
    net::NetworkController::Counters deltas;
    bool done = true;
    bool pending = false;
    /** The least of the shard's wake ticks and of the deliveries it
     * staged: every event of the merged cluster is at or after the
     * least over the shards. */
    Tick next = maxTick;
};

/** One process's end of each mesh link, by partner; own slot empty. */
using Links = std::vector<std::unique_ptr<transport::SocketChannel>>;

/**
 * One process's shard and its half of the socket mesh. Process 0 and
 * every forked peer run the same object: the shard loop, a K-lane
 * DeliveryBatch that only stages (DistScheduler), and the one Exchange
 * and State encoding.
 *
 * Exchange := from(u32) qi(u64) [deltas(8 x u64) done pending
 *             next(u64)] count(u32) packet*count
 *
 * The bracketed part rides only the frame to process 0; the packets
 * are sub-run (from, to) in staging order (DeliveryBatch::takeRun).
 */
class MeshShard
{
  public:
    MeshShard(Cluster &cluster, std::size_t index, std::size_t k)
        : cluster_(cluster), index_(index), k_(k),
          range_(WorkerPool::shardRange(index, k, cluster.numNodes())),
          // Every quantum is conservative (DistScheduler stages every
          // delivery), so the shard loop needs no mailboxes.
          batch_(cluster.numNodes(), k, false), scheduler_(batch_),
          loop_(cluster, nullptr)
    {
        cluster.controller().setScheduler(&scheduler_);
        cluster.controller().setFoldLanes(k);
    }

    /** Run the shard's nodes through quantum [@p qs, @p qe). */
    void
    run(Tick qs, Tick qe, const base::CancelToken *cancel)
    {
        for (std::size_t s = 0; s < k_; ++s)
            batch_.beginQuantum(s);
        scheduler_.setQuantumEnd(qe);
        const Tick ran = loop_.runQuantum(range_.first, range_.second,
                                          qs, qe, index_, cancel);
        next_ = std::min(ran, batch_.earliestStaged(index_));
    }

    /**
     * Merging only schedules NIC deliveries, so it finishes no app,
     * and it leaves a queue non-empty exactly when the queue already
     * was or a staged delivery lands in it. So the OR over every
     * shard of "a queue is non-empty or this shard staged a delivery"
     * is the merged cluster's pending flag.
     */
    Report
    progress() const
    {
        Report p;
        p.done = cluster_.allDone(range_.first, range_.second);
        p.pending = cluster_.anyEventPending(range_.first, range_.second);
        for (std::size_t d = 0; d < k_; ++d)
            p.pending = p.pending || batch_.stagedBetween(index_, d) > 0;
        p.next = next_;
        return p;
    }

    /** This quantum's Exchange frame to process @p to. */
    transport::Frame
    exchangeFrame(std::uint64_t qi, std::size_t to)
    {
        ckpt::Writer w;
        w.u32(static_cast<std::uint32_t>(index_));
        w.u64(qi);
        if (to == 0) {
            // A peer's quantum starts at beginQuantum(), which empties
            // the fold lanes, and the shard loop folds every node it
            // ran into this shard's lane: the lane is the delta.
            const auto &d = cluster_.controller().foldLane(index_);
            w.u64(d.idsAssigned);
            w.u64(d.packetsThisQuantum);
            w.u64(d.totalPackets);
            w.u64(d.totalStragglers);
            w.u64(d.totalNextQuantum);
            w.u64(d.totalLatenessTicks);
            w.u64(d.totalDropped);
            w.u64(d.bytes);
            const Report p = progress();
            w.boolean(p.done);
            w.boolean(p.pending);
            w.u64(p.next);
        }
        const std::size_t count = batch_.stagedBetween(index_, to);
        w.u32(static_cast<std::uint32_t>(count));
        const std::size_t taken =
            batch_.takeRun(index_, to, [&w](const net::Packet &pkt) {
                mpi::putPacket(w, pkt);
            });
        AQSIM_ASSERT(taken == count);
        transport::Frame f;
        f.type = transport::FrameType::Exchange;
        f.body = w.take();
        return f;
    }

    /**
     * Decode process @p from's Exchange frame of quantum @p qi and
     * stage its rows for this shard's merge. Process 0 also reads
     * @p report. @return false if the frame is malformed.
     */
    bool
    adopt(const transport::Frame &f, std::uint64_t qi, std::size_t from,
          Report &report)
    {
        ckpt::Reader r(f.body, "exchange");
        if (f.type != transport::FrameType::Exchange || r.u32() != from ||
            r.u64() != qi)
            return false;
        if (index_ == 0) {
            net::NetworkController::Counters &d = report.deltas;
            d.idsAssigned = r.u64();
            d.packetsThisQuantum = r.u64();
            d.totalPackets = r.u64();
            d.totalStragglers = r.u64();
            d.totalNextQuantum = r.u64();
            d.totalLatenessTicks = r.u64();
            d.totalDropped = r.u64();
            d.bytes = r.u64();
            report.done = r.boolean();
            report.pending = r.boolean();
            report.next = r.u64();
        }
        const std::uint32_t count = r.u32();
        for (std::uint32_t j = 0; r.ok() && j < count; ++j) {
            net::Packet pkt;
            if (!mpi::getPacket(r, pkt))
                return false;
            batch_.injectRemote(from, index_, pkt);
        }
        return r.ok() && r.remaining() == 0;
    }

    /**
     * The exchange half of quantum @p qi, as one full-duplex round:
     * this shard's frame to every other process is queued before any
     * receive waits, and one poll(2) writes and reads them all as the
     * sockets allow, so no frame size and no order in which the other
     * processes get to the round can deadlock it. Then merge this
     * shard's column.
     *
     * @param links this process's end of each mesh link
     * @param io this process's side of the round:
     *        io.next(round, event) -> bool is the process's one wait:
     *        the round's next sent frame or received Exchange frame
     *        (false: give up); io.sent(q) follows this shard's frame
     *        to q leaving; io.adopted(q, report) follows q's frame
     *        being staged; io.malformed(q) reports a frame from q that
     *        is not its Exchange of quantum qi.
     * @return false as soon as the round fails.
     */
    template <typename Io>
    bool
    exchange(std::uint64_t qi, Links &links, Io &io)
    {
        transport::DuplexRound round(k_);
        for (std::size_t q = 0; q < k_; ++q) {
            if (q == index_)
                continue;
            round.send(q, *links[q], exchangeFrame(qi, q));
            round.receive(q, *links[q]);
        }
        transport::DuplexRound::Event e;
        while (round.busy()) {
            if (!io.next(round, e))
                return false;
            if (e.kind == transport::DuplexRound::EventKind::Sent) {
                io.sent(e.link);
                continue;
            }
            Report report;
            if (!adopt(e.frame, qi, e.link, report)) {
                io.malformed(e.link);
                return false;
            }
            io.adopted(e.link, report);
        }
        batch_.mergeShard(index_, cluster_, loop_.wake());
        return true;
    }

    /**
     * State := slice index(u32) q(u64) pending(u64) staged(u64)
     * merged(u64) [count(u64) nodeStat(u64)*count]
     *
     * This shard's Cluster::slice after quantum @p q, nodes caught up
     * to its end tick @p boundary first (quanta without work ran
     * nowhere, so clocks may lag further than the last quantum this
     * shard ran), then its batch counts. With @p node_stats the
     * shard's per-node stat values (Cluster::appendNodeStats) follow
     * as one flat array.
     */
    std::vector<std::uint8_t>
    stateSlice(std::uint64_t q, Tick boundary, bool node_stats)
    {
        const auto [begin, end] = range_;
        loop_.catchUp(begin, end, boundary);
        ckpt::Writer w;
        Cluster::writeSlice(w, cluster_.slice(begin, end));
        w.u32(static_cast<std::uint32_t>(index_));
        w.u64(q);
        const DeliveryBatch::Counts counts = batch_.counts();
        w.u64(counts.pending);
        w.u64(counts.staged);
        w.u64(counts.merged);
        if (node_stats) {
            std::vector<std::uint64_t> values;
            cluster_.appendNodeStats(begin, end, values);
            w.u64(values.size());
            for (std::uint64_t v : values)
                w.u64(v);
        }
        return w.take();
    }

  private:
    Cluster &cluster_;
    const std::size_t index_;
    const std::size_t k_;
    const std::pair<std::size_t, std::size_t> range_;
    DeliveryBatch batch_;
    DistScheduler scheduler_;
    ShardLoop loop_;
    /** Report::next as of the last quantum run. */
    Tick next_ = maxTick;
};

/** Everything one forked peer needs (set up before fork). */
struct PeerSetup
{
    std::size_t index = 1;
    /** Process 0's replica, inherited through fork. */
    Cluster *cluster = nullptr;
    const EngineOptions *options = nullptr;
    const std::vector<fault::PeerDrill> *drills = nullptr;
    /** This process's end of each mesh link. Link 0 carries the
     * control frames and heartbeats. */
    Links *links = nullptr;
};

/**
 * Peer protocol loop, on the peer's own copy of process 0's pristine
 * replica (built before the fork and untouched until then). A Quantum
 * frame runs the shard through its quantum, exchanges rows with every
 * other process and merges this shard's column. A StateReq frame
 * answers with the shard's State slice. Every frame moves through
 * one wait, RoundIo::next.
 *
 * Quantum := qs(u64) qe(u64) qi(u64), with qi above the last one
 * (quanta without work are never sent). StateReq := q(u64)
 * boundary(u64) nodeStats(bool).
 *
 * @return process exit code (0 = clean Stop).
 */
int
peerMain(const PeerSetup &p)
{
    auto &links = *p.links;
    MeshShard shard(*p.cluster, p.index, links.size());
    const auto &drills = *p.drills;
    transport::SocketChannel &control = *links[0];
    // Beats well inside the deadline keep a slow peer from reading
    // as a hung one.
    transport::HeartbeatSender heartbeat(
        control, p.options->peerDeadlineSeconds / 10.0);

    /** The peer's side of every round: any failure ends the peer
     * (process 0 attributes it), and a round gives up once no event
     * came for the deadline. */
    struct RoundIo
    {
        const PeerSetup &p;
        // Healthy peers must outlive failure detection in process 0:
        // a peer that gave up first would turn one failed peer into
        // K-1.
        const double deadline = p.options->peerDeadlineSeconds * 2.0 + 1.0;
        std::uint64_t quantum = 0;

        bool
        next(transport::DuplexRound &round,
             transport::DuplexRound::Event &e) const
        {
            return round.advance(e, deadline) &&
                   e.kind != transport::DuplexRound::EventKind::Failed;
        }
        void
        sent(std::size_t q) const
        {
            if (q == 0)
                fireDrills(*p.drills, p.index,
                           fault::PeerDrillPhase::Sent, quantum);
        }
        void adopted(std::size_t, const Report &) const {}
        void malformed(std::size_t) const {}
    };
    RoundIo io{p};
    transport::DuplexRound::Event e;
    /** Write @p f to process 0. */
    const auto send = [&](const transport::Frame &f) {
        transport::DuplexRound round(1);
        round.send(0, control, f);
        return io.next(round, e);
    };

    fireDrills(drills, p.index, fault::PeerDrillPhase::Hello, 0);
    {
        transport::Frame hello;
        hello.type = transport::FrameType::Hello;
        ckpt::Writer w;
        w.u32(static_cast<std::uint32_t>(p.index));
        w.u32(static_cast<std::uint32_t>(links.size()));
        w.u32(static_cast<std::uint32_t>(p.cluster->numNodes()));
        hello.body = w.take();
        if (!send(hello))
            return 1;
    }

    for (;;) {
        transport::DuplexRound round(1);
        round.receive(0, control);
        if (!io.next(round, e))
            return 1; // process 0 gone or wedged: nothing to save
        const transport::Frame f = std::move(e.frame);
        switch (f.type) {
        case transport::FrameType::Quantum: {
            ckpt::Reader r(f.body, "quantum");
            const Tick qs = r.u64();
            const Tick qe = r.u64();
            const std::uint64_t qi = r.u64();
            if (!r.ok() || r.remaining() != 0 || qi <= io.quantum ||
                qe <= qs)
                return 1;
            p.cluster->controller().beginQuantum();
            shard.run(qs, qe, nullptr);
            io.quantum = qi;
            fireDrills(drills, p.index,
                       fault::PeerDrillPhase::Exchange, qi);
            if (!shard.exchange(qi, links, io))
                return 1; // a sibling gone: process 0 attributes it
            fireDrills(drills, p.index, fault::PeerDrillPhase::Ack, qi);
            break;
        }
        case transport::FrameType::StateReq: {
            ckpt::Reader r(f.body, "state request");
            const std::uint64_t q = r.u64();
            const Tick boundary = r.u64();
            const bool node_stats = r.boolean();
            if (!r.ok() || r.remaining() != 0)
                return 1;
            transport::Frame st;
            st.type = transport::FrameType::State;
            st.body = shard.stateSlice(q, boundary, node_stats);
            if (!send(st))
                return 1;
            break;
        }
        case transport::FrameType::Stop:
            return 0;
        default:
            return 1; // a frame no peer expects
        }
    }
}

/**
 * Peer entry: run the protocol loop under a FailureTrap so an
 * in-simulation fatal()/panic() becomes an Abort frame process 0 can
 * attribute, instead of a silent disconnect.
 */
int
peerProcess(const PeerSetup &p)
{
    base::FailureTrap trap;
    try {
        return peerMain(p);
    } catch (const base::RunAbort &abort) {
        transport::Frame f;
        f.type = transport::FrameType::Abort;
        ckpt::Writer w;
        w.str(abort.cause());
        w.str(abort.detail());
        f.body = w.take();
        // Best effort, never waited on: the pipe may be gone or full.
        transport::SocketChannel &control = *(*p.links)[0];
        control.post(f);
        control.flush();
        return 1;
    }
}

/* ------------------------------------------------------------------ */
/* Process 0: the quantum driver and its peers                        */
/* ------------------------------------------------------------------ */

/**
 * Process 0's view of its forked peers, indexed by process (slot 0,
 * process 0 itself, holds no channel and no pid): mesh links and pids
 * (protocol-thread-owned), plus a mutex-guarded liveness table the
 * watchdog's dump thread reads, and RAII teardown — on any exit path
 * every child is SIGKILLed (which also reaps SIGSTOPped peers) and
 * reaped, so a failed run never leaks processes.
 */
class PeerGroup
{
  public:
    explicit PeerGroup(std::size_t count)
        : channels(count), pids(count, -1), live_(count)
    {
        const auto now = SteadyClock::now();
        base::MutexLock lock(mutex_);
        for (Liveness &l : live_)
            l.lastFrame = now;
    }

    ~PeerGroup() { teardown(); }

    PeerGroup(const PeerGroup &) = delete;
    PeerGroup &operator=(const PeerGroup &) = delete;

    std::size_t size() const { return channels.size(); }

    void
    setPhase(std::size_t w, const char *phase) AQSIM_EXCLUDES(mutex_)
    {
        base::MutexLock lock(mutex_);
        live_[w].phase = phase;
    }

    void
    touch(std::size_t w) AQSIM_EXCLUDES(mutex_)
    {
        base::MutexLock lock(mutex_);
        live_[w].lastFrame = SteadyClock::now();
    }

    double
    frameAge(std::size_t w) const AQSIM_EXCLUDES(mutex_)
    {
        base::MutexLock lock(mutex_);
        return std::chrono::duration<double>(SteadyClock::now() -
                                             live_[w].lastFrame)
            .count();
    }

    void
    markFailed(std::size_t w) AQSIM_EXCLUDES(mutex_)
    {
        base::MutexLock lock(mutex_);
        live_[w].failed = true;
        live_[w].phase = "failed";
    }

    bool
    failed(std::size_t w) const AQSIM_EXCLUDES(mutex_)
    {
        base::MutexLock lock(mutex_);
        return live_[w].failed;
    }

    /** One line per forked peer for the watchdog's PanicInfo::peers. */
    std::string
    report() const AQSIM_EXCLUDES(mutex_)
    {
        const auto now = SteadyClock::now();
        base::MutexLock lock(mutex_);
        std::string out;
        for (std::size_t w = 1; w < live_.size(); ++w) {
            const double age = std::chrono::duration<double>(
                                   now - live_[w].lastFrame)
                                   .count();
            char line[128];
            std::snprintf(line, sizeof(line),
                          "  peer %zu: pid %ld phase=%s last-frame "
                          "%.2fs ago\n",
                          w, static_cast<long>(pids[w]),
                          live_[w].phase, age);
            out += line;
        }
        return out;
    }

    /**
     * Clean shutdown: a Stop frame to every healthy peer, posted and
     * flushed without waiting, then a reap bounded by the deadline;
     * whoever fails to exit in time meets teardown()'s SIGKILL.
     */
    void
    stopAll(double deadline_seconds) AQSIM_EXCLUDES(mutex_)
    {
        transport::Frame stop;
        stop.type = transport::FrameType::Stop;
        for (std::size_t w = 0; w < size(); ++w) {
            if (pids[w] > 0 && !failed(w) && !reaped(w)) {
                channels[w]->post(stop);
                channels[w]->flush();
            }
        }
        const auto start = SteadyClock::now();
        for (std::size_t w = 0; w < size(); ++w)
            if (pids[w] > 0 && !reaped(w) &&
                reapChild(pids[w], std::max(0.0, deadline_seconds -
                                                     secondsSince(start))))
                markReaped(w);
    }

    /**
     * Last-resort teardown (every exit path): SIGKILL — which also
     * terminates SIGSTOPped peers — and a blocking reap. Idempotent.
     */
    void
    teardown() AQSIM_EXCLUDES(mutex_)
    {
        for (std::size_t w = 0; w < size(); ++w) {
            if (pids[w] <= 0 || reaped(w))
                continue;
            ::kill(pids[w], SIGKILL);
            ::waitpid(pids[w], nullptr, 0);
            markReaped(w);
        }
    }

    Links channels;
    std::vector<pid_t> pids;

  private:
    struct Liveness
    {
        /** The phase of process 0's last wait on the peer (a
         * literal). */
        const char *phase = "spawn";
        SteadyClock::time_point lastFrame;
        bool failed = false;
        bool reaped = false;
    };

    bool
    reaped(std::size_t w) const AQSIM_EXCLUDES(mutex_)
    {
        base::MutexLock lock(mutex_);
        return live_[w].reaped;
    }

    void
    markReaped(std::size_t w) AQSIM_EXCLUDES(mutex_)
    {
        base::MutexLock lock(mutex_);
        live_[w].reaped = true;
    }

    mutable base::Mutex mutex_;
    std::vector<Liveness> live_ AQSIM_GUARDED_BY(mutex_);
};

/**
 * Process 0's side of a run, as a QuantumExecutor: it runs shard 0
 * itself and drives the forked peers, one Quantum frame each per
 * quantum with work, then the same mesh exchange every peer runs.
 * Every wait on a peer is one function, wait(): deadline-bounded, it
 * absorbs heartbeats, polls supervised cancellation, and converts
 * every failure mode into a PeerFailure-carrying RunAbort stamped
 * with the completed-quanta count.
 */
class Coordinator : public QuantumExecutor
{
  public:
    Coordinator(Cluster &cluster, QuantumDriver &driver,
                const EngineOptions &options, PeerGroup &peers,
                const std::vector<fault::PeerDrill> &drills,
                bool node_stats)
        : cluster_(cluster), driver_(driver), options_(options),
          peers_(peers), drills_(drills), k_(peers.size()),
          nodeStats_(node_stats), shard_(cluster, 0, k_),
          // At quantum 0 the pristine replica *is* every shard's
          // state; afterwards the flags aggregate over the shards.
          allDone_(cluster.allDone()),
          anyPending_(cluster.anyEventPending())
    {}

    const char *name() const override { return "distributed"; }

    /**
     * No panic stash: a boundary image requires a cross-process state
     * gather, and the peers are by definition unresponsive when the
     * watchdog fires.
     */
    bool stashesPanicImage() const override { return false; }

    bool done() const override { return allDone_; }
    bool pending() const override { return anyPending_; }

    /** The least Report::next over the shards, except that a quantum
     * a peer drill names always runs, so the drill fires whether or
     * not the quantum has work. */
    Tick
    nextEventTick() const override
    {
        const std::uint64_t qi = driver_.sync().numQuanta() + 1;
        for (const fault::PeerDrill &d : drills_)
            if (d.phase != fault::PeerDrillPhase::Hello &&
                d.quantum == qi)
                return 0;
        return next_;
    }

    /**
     * Handshake: every peer announces itself with a geometry echo,
     * which catches build/parameter skew before any quantum runs.
     */
    void
    begin() override
    {
        const std::size_t n = cluster_.numNodes();
        transport::DuplexRound round(k_);
        for (std::size_t w = 1; w < k_; ++w)
            round.receive(w, *peers_.channels[w]);
        transport::DuplexRound::Event e;
        while (round.busy()) {
            wait(round, transport::FrameType::Hello, "hello", e);
            ckpt::Reader r(e.frame.body, "hello");
            const std::uint32_t index = r.u32();
            const std::uint32_t k = r.u32();
            const std::uint32_t nodes = r.u32();
            if (!r.ok() || index != e.link || k != k_ || nodes != n)
                fail(e.link, PeerFailureKind::Protocol, "hello",
                     "geometry mismatch in hello");
        }
    }

    std::optional<HostNs>
    runQuantum() override
    {
        const core::Synchronizer &sync = driver_.sync();
        const std::uint64_t qi = sync.numQuanta() + 1;
        transport::Frame quantum;
        quantum.type = transport::FrameType::Quantum;
        ckpt::Writer wr;
        wr.u64(sync.quantumStart());
        wr.u64(sync.quantumEnd());
        wr.u64(qi);
        quantum.body = wr.take();
        // What a socket does not take now goes out with the exchange
        // round's send on that link, under its deadline.
        dispatch(quantum, "quantum dispatch");
        shard_.run(sync.quantumStart(), sync.quantumEnd(),
                   options_.cancelToken);
        driver_.pollCancel();

        // Each peer's deltas are absorbed into this controller
        // *before* completeQuantum(), so the policy and stats see the
        // global per-quantum packet count.
        const Report own = shard_.progress();
        allDone_ = own.done;
        anyPending_ = own.pending;
        next_ = own.next;
        RoundIo io{*this};
        shard_.exchange(qi, peers_.channels, io);
        return std::nullopt; // measured by the driver
    }

    /** Cross-process state gather, paid only when an image is due. */
    ckpt::CheckpointImage
    boundaryImage(std::uint64_t config_hash) override
    {
        DeliveryBatch::Counts counts;
        ClusterState state = gather(false, counts);
        ckpt::Writer w;
        DeliveryBatch::serialize(w, counts);
        return ckpt::buildImage(driver_.sync(), config_hash, name(),
                                std::move(state.sections), w.take());
    }

    /**
     * The other shards' node state lives in the peers; the useful
     * dump here is per-peer liveness.
     */
    void
    describe(PanicInfo &info) const override
    {
        info.peers = peers_.report();
    }

    /**
     * Final gather — finish ticks, retransmit totals, the spliced
     * state fingerprint that must equal the sequential engine's
     * Cluster::stateHash bit for bit and, for a stats dump, every
     * node's stat values — then a clean peer shutdown.
     */
    void
    finish(RunResult &result) override
    {
        DeliveryBatch::Counts counts;
        const ClusterState state = gather(nodeStats_, counts);
        peers_.stopAll(options_.peerDeadlineSeconds);
        fillResult(result, state, nullptr);
    }

  private:
    /**
     * Process 0's one wait on its peers: progress @p round to its next
     * sent frame or received @p want frame, every peer in the round
     * being in @p phase. Heartbeats are absorbed and their receive
     * re-armed, and any frame keeps its peer alive (PeerGroup's
     * liveness clock). A peer is Hung once a frame due from it has
     * not come within the deadline of its last one (or of the round's
     * start, if later), or once this process's frame to it has not
     * left within the deadline of the round's start. A closed pipe, wire damage, a peer-reported
     * Abort or any other frame fails the peer; cancellation is polled
     * throughout. Call only while the round is busy.
     */
    void
    wait(transport::DuplexRound &round, transport::FrameType want,
         const char *phase, transport::DuplexRound::Event &e)
    {
        for (std::size_t w = 1; w < k_; ++w)
            if (round.sending(w) || round.receiving(w))
                peers_.setPhase(w, phase);
        for (;;) {
            driver_.pollCancel();
            // Short slices keep the cancellation poll responsive
            // without giving up any of a peer's deadline.
            double slice = 0.25;
            const double age = round.age();
            for (std::size_t w = 1; w < k_; ++w) {
                // How long the peer has kept the round waiting; its
                // silence counts from the round's start at the
                // earliest.
                double late = round.sending(w) ? age : 0.0;
                if (round.receiving(w))
                    late = std::max(late,
                                    std::min(age, peers_.frameAge(w)));
                const double left = options_.peerDeadlineSeconds - late;
                if (left <= 0.0)
                    fail(w, PeerFailureKind::Hang, phase);
                slice = std::min(slice, left);
            }
            if (!round.advance(e, std::max(slice, 0.01)))
                continue;
            if (e.kind == transport::DuplexRound::EventKind::Failed)
                failStatus(e.link, e.status, phase);
            if (e.kind == transport::DuplexRound::EventKind::Sent)
                return;
            peers_.touch(e.link);
            if (e.frame.type == want)
                return;
            if (e.frame.type != transport::FrameType::Heartbeat)
                failFrame(e.link, e.frame, phase);
            round.receive(e.link, *peers_.channels[e.link]);
        }
    }

    /**
     * Post @p frame to every peer and write what each socket takes
     * now, without waiting; the next round's send on the link writes
     * the rest. A closed pipe fails its peer at once.
     */
    void
    dispatch(const transport::Frame &frame, const char *phase)
    {
        for (std::size_t w = 1; w < k_; ++w) {
            transport::SocketChannel &ch = *peers_.channels[w];
            ch.post(frame);
            if (ch.flush() == transport::RecvStatus::Closed)
                failStatus(w, transport::RecvStatus::Closed, phase);
        }
    }

    /** Process 0's side of an exchange round (MeshShard::exchange). */
    struct RoundIo
    {
        Coordinator &c;

        bool
        next(transport::DuplexRound &round,
             transport::DuplexRound::Event &e) const
        {
            c.wait(round, transport::FrameType::Exchange, phase, e);
            return true;
        }
        void sent(std::size_t) const {}
        void
        adopted(std::size_t, const Report &report) const
        {
            c.cluster_.controller().absorbRemoteDeltas(report.deltas);
            c.allDone_ = c.allDone_ && report.done;
            c.anyPending_ = c.anyPending_ || report.pending;
            c.next_ = std::min(c.next_, report.next);
        }
        [[noreturn]] void
        malformed(std::size_t w) const
        {
            c.fail(w, PeerFailureKind::Protocol, phase,
                   "malformed exchange body");
        }

        static constexpr const char *phase = "exchange barrier";
    };

    /** Fail peer @p w for frame @p f, which is not the one due: a
     * peer-reported Abort or an unexpected type. */
    [[noreturn]] void
    failFrame(std::size_t w, const transport::Frame &f, const char *phase)
    {
        if (f.type == transport::FrameType::Abort) {
            ckpt::Reader r(f.body, "abort");
            const std::string cause = r.str();
            const std::string detail = r.str();
            fail(w, PeerFailureKind::Protocol, phase,
                 "peer aborted itself: " + cause + ": " + detail);
        }
        fail(w, PeerFailureKind::Protocol, phase,
             std::string("unexpected ") +
                 transport::frameTypeName(f.type) + " frame");
    }

    /** Fail peer @p w for a Closed or Corrupt channel. */
    [[noreturn]] void
    failStatus(std::size_t w, transport::RecvStatus status,
               const char *phase)
    {
        fail(w,
             status == transport::RecvStatus::Corrupt
                 ? PeerFailureKind::Corrupt
                 : PeerFailureKind::Disconnect,
             phase);
    }

    /** Quarantine peer @p w and abort the run with its failure. */
    [[noreturn]] void
    fail(std::size_t w, PeerFailureKind kind, const char *phase,
         std::string detail = "")
    {
        PeerFailure failure;
        failure.kind = kind;
        failure.peer = w;
        failure.pid = static_cast<long>(peers_.pids[w]);
        failure.phase = phase;
        failure.frameAge = peers_.frameAge(w);
        failure.detail = std::move(detail);
        peers_.markFailed(w);
        peers_.channels[w]->close();
        throw base::RunAbort("peer-failure", failure.describe(),
                             driver_.sync().numQuanta());
    }

    /**
     * Every StateReq goes out before shard 0's own slice is taken, so
     * all shards serialize in parallel, and then one round reads the
     * State frames in whatever order they arrive. Each
     * column is already merged, so a StateReq carries no rows: only
     * the completed quanta, the boundary every shard catches its
     * clocks up to, and whether to append the node stat values
     * (@p node_stats).
     *
     * @return the shards' slices spliced into the cluster state;
     *         @p counts receives their batch counts, summed (stage and
     *         merge each happen once per delivery, in some process).
     *         With @p node_stats, every node's stat values and the
     *         summed fault totals are adopted into the replica for
     *         its stats dump.
     */
    ClusterState
    gather(bool node_stats, DeliveryBatch::Counts &counts)
    {
        const std::uint64_t q = driver_.sync().numQuanta();
        const Tick boundary = driver_.sync().quantumStart();
        transport::Frame req;
        req.type = transport::FrameType::StateReq;
        ckpt::Writer wr;
        wr.u64(q);
        wr.u64(boundary);
        wr.boolean(node_stats);
        req.body = wr.take();
        dispatch(req, "state gather");
        std::vector<ClusterSlice> slices(k_);
        std::vector<std::vector<std::uint64_t>> stats(k_);
        if (!readSlice(shard_.stateSlice(q, boundary, node_stats), 0, q,
                       node_stats, slices[0], counts, stats[0]))
            panic("shard 0 wrote a malformed state slice");
        transport::DuplexRound round(k_);
        for (std::size_t w = 1; w < k_; ++w) {
            round.drain(w, *peers_.channels[w]);
            round.receive(w, *peers_.channels[w]);
        }
        transport::DuplexRound::Event e;
        while (round.busy()) {
            wait(round, transport::FrameType::State, "state gather", e);
            if (e.kind == transport::DuplexRound::EventKind::Received &&
                !readSlice(e.frame.body, e.link, q, node_stats,
                           slices[e.link], counts, stats[e.link]))
                fail(e.link, PeerFailureKind::Protocol, "state gather",
                     "malformed state slice");
        }
        ClusterState state = cluster_.splice(slices);
        if (node_stats) {
            std::vector<std::uint64_t> all;
            for (const std::vector<std::uint64_t> &values : stats)
                all.insert(all.end(), values.begin(), values.end());
            cluster_.adoptNodeStats(std::move(all));
            if (fault::FaultInjector *inj = cluster_.faultInjector())
                inj->adoptTotals(state.faultTotals);
        }
        return state;
    }

    /** Decode shard @p w's State frame at boundary @p q into
     * @p slice, adding its batch counts to @p counts and (if
     * @p node_stats) reading its node stat values into @p stats.
     * @return false if it is malformed or off this run's geometry. */
    bool
    readSlice(const std::vector<std::uint8_t> &body, std::size_t w,
              std::uint64_t q, bool node_stats, ClusterSlice &slice,
              DeliveryBatch::Counts &counts,
              std::vector<std::uint64_t> &stats) const
    {
        const auto [begin, end] =
            WorkerPool::shardRange(w, k_, cluster_.numNodes());
        ckpt::Reader r(body, "state");
        if (!cluster_.readSlice(r, static_cast<NodeId>(begin),
                                static_cast<NodeId>(end), slice) ||
            r.u32() != w || r.u64() != q)
            return false;
        counts.pending += r.u64();
        counts.staged += r.u64();
        counts.merged += r.u64();
        if (node_stats) {
            const std::uint64_t count = r.u64();
            if (count > r.remaining() / sizeof(std::uint64_t))
                return false;
            stats.resize(count);
            for (std::uint64_t &v : stats)
                v = r.u64();
        }
        return r.ok() && r.remaining() == 0;
    }

    Cluster &cluster_;
    QuantumDriver &driver_;
    const EngineOptions &options_;
    PeerGroup &peers_;
    const std::vector<fault::PeerDrill> &drills_;
    const std::size_t k_;
    /** The final gather collects every node's stat values. */
    const bool nodeStats_;
    MeshShard shard_;
    bool allDone_;
    bool anyPending_;
    /** The least Report::next of the last quantum run (0: run the
     * first). */
    Tick next_ = 0;
};

} // namespace

std::vector<fault::PeerDrill>
checkedPeerDrills(const EngineOptions &options, std::size_t num_nodes)
{
    const std::size_t k =
        WorkerPool::resolveWorkerCount(options.numWorkers, num_nodes);
    auto drills = fault::parsePeerDrills(options.peerDrillSpec);
    for (const fault::PeerDrill &d : drills)
        if (d.peer == 0 || d.peer >= k)
            fatal("peer drill names peer %zu, which is not one of "
                  "the %zu forked peers 1..K-1 (process 0 runs shard "
                  "0)",
                  d.peer, k - 1);
    return drills;
}

bool
reapChild(long pid, double seconds)
{
    const auto start = SteadyClock::now();
#ifdef SYS_pidfd_open
    const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
    const int pidfd = -1;
#endif
    bool reaped = false;
    for (;;) {
        const pid_t got =
            ::waitpid(static_cast<pid_t>(pid), nullptr, WNOHANG);
        if (got == static_cast<pid_t>(pid) || (got < 0 && errno == ECHILD)) {
            reaped = true;
            break;
        }
        const double left = seconds - secondsSince(start);
        if (left <= 0.0)
            break;
        // The pidfd reads ready once the child has exited. Without
        // one (a kernel before 5.3), poll in 1 ms slices.
        struct pollfd pfd;
        pfd.fd = pidfd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        ::poll(&pfd, pidfd >= 0 ? 1 : 0,
               pidfd >= 0 ? static_cast<int>(std::ceil(left * 1e3)) : 1);
    }
    if (pidfd >= 0)
        ::close(pidfd);
    return reaped;
}

DistributedEngine::DistributedEngine(EngineOptions options)
    : options_(options)
{}

RunResult
DistributedEngine::run(const ClusterParams &params,
                       workloads::Workload &workload,
                       core::QuantumPolicy &policy,
                       std::unique_ptr<Cluster> *replica)
{
    if (params.network.switchModel)
        fatal("distributed engine requires the default PerfectSwitch: "
              "stateful per-port switch occupancy cannot be spliced "
              "from per-peer state slices");

    // Process 0's replica: shard 0 runs on it, and it holds the
    // globally absorbed controller counters and assembles checkpoints.
    // Nothing has executed on it before the forks, so each peer
    // inherits it pristine and runs its own shard on that copy.
    auto owned = std::make_unique<Cluster>(params, workload);
    Cluster &cluster = *owned;
    const std::size_t n = cluster.numNodes();
    QuantumDriver driver(options_, cluster, policy);
    if (!driver.sync().conservative())
        fatal("distributed engine requires a conservative fixed "
              "quantum <= the minimum network latency (%llu ticks): "
              "only then is partitioned execution exact",
              static_cast<unsigned long long>(
                  cluster.controller().minNetworkLatency()));

    const std::size_t k =
        WorkerPool::resolveWorkerCount(options_.numWorkers, n);
    const auto drills = checkedPeerDrills(options_, n);

    // The mesh: links[a][b] is process a's end of the socketpair it
    // shares with process b. Every pair exists before any fork, and
    // every fork happens before any thread of process 0 exists
    // (watchdog): a post-thread fork could inherit a lock held
    // mid-operation by a non-forked thread.
    std::vector<std::vector<std::unique_ptr<transport::SocketChannel>>>
        links(k);
    for (auto &ends : links)
        ends.resize(k);
    for (std::size_t a = 0; a < k; ++a)
        for (std::size_t b = a + 1; b < k; ++b)
            std::tie(links[a][b], links[b][a]) =
                transport::socketChannelPair();
    PeerGroup peers(k);
    for (std::size_t w = 1; w < k; ++w) {
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal("fork: %s", std::strerror(errno));
        if (pid == 0) {
            // Peer: drop every end but its own, so a dead process's
            // socket actually reads EOF.
            for (std::size_t u = 0; u < k; ++u)
                if (u != w)
                    links[u].clear();
            PeerSetup setup;
            setup.index = w;
            setup.cluster = &cluster;
            setup.options = &options_;
            setup.drills = &drills;
            setup.links = &links[w];
            ::_exit(peerProcess(setup));
        }
        peers.pids[w] = pid;
    }
    peers.channels = std::move(links[0]);
    links.clear();

    Coordinator coord(cluster, driver, options_, peers, drills,
                      replica != nullptr);
    // The driver starts the run's watchdog thread, after every fork.
    RunResult result = driver.run(coord);
    if (replica)
        *replica = std::move(owned);
    return result;
    // `peers` is destroyed on return: any peer stopAll failed to reap
    // is SIGKILLed and reaped before an unclaimed replica goes away.
}

} // namespace aqsim::engine
