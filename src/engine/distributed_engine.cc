#include "engine/distributed_engine.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

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
 * counter advance this quantum and its progress as it will stand once
 * the quantum is merged. */
struct Report
{
    net::NetworkController::Counters deltas;
    bool done = true;
    bool pending = false;
};

/**
 * One process's shard and its half of the socket mesh. Process 0 and
 * every forked peer run the same object: the shard loop, a K-lane
 * DeliveryBatch that only stages (DistScheduler), and the one Exchange
 * and State encoding.
 *
 * Exchange := from(u32) qi(u64) [deltas(8 x u64) done pending]
 *             count(u32) packet*count
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

    /** Run the shard's nodes from the last boundary to @p qe. */
    void
    run(Tick qe, const base::CancelToken *cancel)
    {
        prev_ = cluster_.controller().snapshotCounters();
        for (std::size_t s = 0; s < k_; ++s)
            batch_.beginQuantum(s);
        scheduler_.setQuantumEnd(qe);
        loop_.runQuantum(range_.first, range_.second, boundary_, qe,
                         index_, cancel);
        boundary_ = qe;
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
        for (NodeId id = range_.first; id < range_.second; ++id) {
            const node::NodeSimulator &node = cluster_.node(id);
            p.done = p.done && node.appDone();
            p.pending = p.pending || !node.queue().empty();
        }
        for (std::size_t d = 0; d < k_; ++d)
            p.pending = p.pending || batch_.stagedBetween(index_, d) > 0;
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
            const auto cur = cluster_.controller().snapshotCounters();
            w.u64(cur.idsAssigned - prev_.idsAssigned);
            w.u64(cur.packetsThisQuantum - prev_.packetsThisQuantum);
            w.u64(cur.totalPackets - prev_.totalPackets);
            w.u64(cur.totalStragglers - prev_.totalStragglers);
            w.u64(cur.totalNextQuantum - prev_.totalNextQuantum);
            w.u64(cur.totalLatenessTicks - prev_.totalLatenessTicks);
            w.u64(cur.totalDropped - prev_.totalDropped);
            w.u64(cur.bytes - prev_.bytes);
            const Report p = progress();
            w.boolean(p.done);
            w.boolean(p.pending);
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
        f.body = w.buffer();
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
     * The exchange half of quantum @p qi: visit every other process in
     * ascending index, sending before receiving to a lower one and
     * receiving before sending to a higher one, then merge this
     * shard's column. Every process thus works through the pairs in
     * one global order, ascending (higher index, lower index), so the
     * least unfinished pair always has both ends at it: a frame larger
     * than the socket buffer blocks its sender only until the partner
     * reads it. A peer's frame to process 0 leaves first.
     *
     * @param send send(q, frame) -> bool
     * @param recv recv(q) -> bool, receiving and adopting q's frame
     * @return false as soon as a send or receive fails.
     */
    template <typename Send, typename Recv>
    bool
    exchange(std::uint64_t qi, Send &&send, Recv &&recv)
    {
        for (std::size_t q = 0; q < k_; ++q) {
            if (q == index_)
                continue;
            if (q < index_) {
                if (!send(q, exchangeFrame(qi, q)) || !recv(q))
                    return false;
            } else if (!recv(q) || !send(q, exchangeFrame(qi, q))) {
                return false;
            }
        }
        batch_.mergeShard(index_, cluster_, loop_.wake());
        return true;
    }

    /**
     * State := index(u32) q(u64) nodes mpi workload (u64-length
     * slices) hasFault [linkRows totals(4 x u64)] owned(u32)
     * finishTick*owned retransmits merged staged
     *
     * This shard's slice of every cluster section at boundary @p q,
     * nodes caught up first.
     */
    std::vector<std::uint8_t>
    stateSlice(std::uint64_t q)
    {
        const auto [begin, end] = range_;
        loop_.catchUp(begin, end, boundary_);
        ckpt::Writer w;
        w.u32(static_cast<std::uint32_t>(index_));
        w.u64(q);
        const auto slice = [&](auto &&serialize) {
            ckpt::Writer b;
            serialize(b);
            w.u64(b.size());
            w.bytes(b.buffer().data(), b.size());
        };
        slice([&](ckpt::Writer &b) {
            cluster_.serializeNodeRange(b, begin, end);
        });
        slice([&](ckpt::Writer &b) {
            cluster_.serializeMpiRange(b, begin, end);
        });
        slice([&](ckpt::Writer &b) {
            cluster_.serializeWorkloadRange(b, begin, end);
        });
        const fault::FaultInjector *inj = cluster_.faultInjector();
        w.boolean(inj != nullptr);
        if (inj) {
            slice([&](ckpt::Writer &b) {
                inj->serializeLinkRange(b, begin, end);
            });
            w.u64(inj->totalDropped());
            w.u64(inj->totalDuplicated());
            w.u64(inj->totalCorrupted());
            w.u64(inj->totalDelayed());
        }
        w.u32(static_cast<std::uint32_t>(end - begin));
        for (NodeId id = begin; id < end; ++id)
            w.u64(cluster_.node(id).appFinishTick());
        w.u64(cluster_.totalRetransmits());
        w.u64(batch_.totalMerged());
        w.u64(batch_.totalStaged());
        return w.buffer();
    }

  private:
    Cluster &cluster_;
    const std::size_t index_;
    const std::size_t k_;
    const std::pair<std::size_t, std::size_t> range_;
    DeliveryBatch batch_;
    DistScheduler scheduler_;
    ShardLoop loop_;
    /** End of the last quantum run (the next one's start). */
    Tick boundary_ = 0;
    /** Controller counters when the open quantum began. */
    net::NetworkController::Counters prev_;
};

/** Everything one forked peer needs (set up before fork). */
struct PeerSetup
{
    std::size_t index = 1;
    /** Process 0's replica, inherited through fork. */
    Cluster *cluster = nullptr;
    const EngineOptions *options = nullptr;
    const std::vector<fault::PeerDrill> *drills = nullptr;
    /** This process's end of each mesh pair, by partner; own slot
     * empty. Link 0 carries the control frames and heartbeats. */
    std::vector<std::unique_ptr<transport::SocketChannel>> *links =
        nullptr;
};

/**
 * Peer protocol loop, on the peer's own copy of process 0's pristine
 * replica (built before the fork and untouched until then). A Quantum
 * frame runs the shard to the new boundary, exchanges rows with every
 * other process and merges this shard's column. A StateReq frame
 * answers with the shard's State slice.
 *
 * @return process exit code (0 = clean Stop).
 */
int
peerMain(const PeerSetup &p)
{
    auto &links = *p.links;
    MeshShard shard(*p.cluster, p.index, links.size());
    const auto &drills = *p.drills;
    // Healthy peers must outlive failure detection in process 0: a
    // peer that gave up first would turn one failed peer into K-1.
    const double deadline = p.options->peerDeadlineSeconds * 2.0 + 1.0;
    transport::SocketChannel &control = *links[0];
    transport::HeartbeatSender heartbeat(control,
                                         p.options->heartbeatSeconds);

    fireDrills(drills, p.index, fault::PeerDrillPhase::Hello, 0);
    {
        transport::Frame hello;
        hello.type = transport::FrameType::Hello;
        ckpt::Writer w;
        w.u32(static_cast<std::uint32_t>(p.index));
        w.u32(static_cast<std::uint32_t>(links.size()));
        w.u32(static_cast<std::uint32_t>(p.cluster->numNodes()));
        hello.body = w.buffer();
        if (!control.send(hello))
            return 1;
    }

    std::uint64_t last_quantum = 0;
    const auto send = [&](std::size_t q, const transport::Frame &f) {
        return links[q]->send(f);
    };
    const auto recv = [&](std::size_t q) {
        transport::Frame f;
        Report unused;
        return links[q]->recv(f, deadline) == transport::RecvStatus::Ok &&
               shard.adopt(f, last_quantum, q, unused);
    };

    for (;;) {
        transport::Frame f;
        if (control.recv(f, deadline) != transport::RecvStatus::Ok)
            return 1; // process 0 gone or wedged: nothing to save
        switch (f.type) {
        case transport::FrameType::Quantum: {
            ckpt::Reader r(f.body, "quantum");
            const Tick qe = r.u64();
            const std::uint64_t qi = r.u64();
            if (!r.ok() || r.remaining() != 0 || qi != last_quantum + 1)
                return 1;
            p.cluster->controller().beginQuantum();
            shard.run(qe, nullptr);
            last_quantum = qi;
            fireDrills(drills, p.index,
                       fault::PeerDrillPhase::Exchange, qi);
            if (!shard.exchange(qi, send, recv))
                return 1; // a sibling gone: process 0 attributes it
            fireDrills(drills, p.index, fault::PeerDrillPhase::Ack, qi);
            break;
        }
        case transport::FrameType::StateReq: {
            transport::Frame st;
            st.type = transport::FrameType::State;
            st.body = shard.stateSlice(last_quantum);
            if (!f.body.empty() || !control.send(st))
                return 1;
            break;
        }
        case transport::FrameType::Stop:
            return 0;
        default:
            return 1; // Abort, or a frame no peer expects
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
        f.body = w.buffer();
        (*p.links)[0]->send(f); // best effort; the pipe may be gone
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
                          live_[w].phase.c_str(), age);
            out += line;
        }
        return out;
    }

    /**
     * Clean shutdown: Stop frame to every healthy peer, then a
     * bounded reap; whoever fails to exit in time meets teardown()'s
     * SIGKILL.
     */
    void
    stopAll(double deadline_seconds) AQSIM_EXCLUDES(mutex_)
    {
        transport::Frame stop;
        stop.type = transport::FrameType::Stop;
        for (std::size_t w = 0; w < size(); ++w)
            if (pids[w] > 0 && !failed(w) && !reaped(w))
                channels[w]->send(stop);
        const auto start = SteadyClock::now();
        for (std::size_t w = 0; w < size(); ++w) {
            while (pids[w] > 0 && !reaped(w)) {
                int status = 0;
                const pid_t got = ::waitpid(pids[w], &status, WNOHANG);
                if (got == pids[w] || (got < 0 && errno == ECHILD)) {
                    markReaped(w);
                    break;
                }
                if (secondsSince(start) >= deadline_seconds)
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
        }
    }

    /**
     * Last-resort teardown (every exit path): best-effort Abort frame
     * so a healthy peer can exit on its own terms, then SIGKILL —
     * which also terminates SIGSTOPped peers — and a blocking reap.
     * Idempotent.
     */
    void
    teardown() AQSIM_EXCLUDES(mutex_)
    {
        for (std::size_t w = 0; w < size(); ++w) {
            if (pids[w] <= 0 || reaped(w))
                continue;
            if (!failed(w) && channels[w]) {
                transport::Frame f;
                f.type = transport::FrameType::Abort;
                ckpt::Writer wr;
                wr.str("process 0");
                wr.str("run torn down");
                f.body = wr.buffer();
                channels[w]->send(f);
            }
            ::kill(pids[w], SIGKILL);
            ::waitpid(pids[w], nullptr, 0);
            markReaped(w);
        }
    }

    std::vector<std::unique_ptr<transport::SocketChannel>> channels;
    std::vector<pid_t> pids;

  private:
    struct Liveness
    {
        std::string phase = "spawn";
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

/** One shard's serialized state slice (MeshShard::stateSlice,
 * decoded). */
struct PeerState
{
    std::vector<std::uint8_t> nodes;
    std::vector<std::uint8_t> mpi;
    std::vector<std::uint8_t> workload;
    std::vector<std::uint8_t> faultRows;
    std::uint64_t faultTotals[4] = {0, 0, 0, 0};
    bool hasFault = false;
    std::vector<Tick> finish;
    std::uint64_t retransmits = 0;
    /** The shard's DeliveryBatch lifetime totals (boundary merged). */
    std::uint64_t merged = 0;
    std::uint64_t staged = 0;
};

/** Copy the next @p len raw bytes out of @p body via @p r. */
bool
takeRaw(ckpt::Reader &r, const std::vector<std::uint8_t> &body,
        std::uint64_t len, std::vector<std::uint8_t> &out)
{
    if (!r.ok() || r.remaining() < len)
        return false;
    const std::size_t offset = body.size() - r.remaining();
    out.assign(body.begin() + static_cast<std::ptrdiff_t>(offset),
               body.begin() + static_cast<std::ptrdiff_t>(offset + len));
    r.skip(len);
    return true;
}

/** All peer slices spliced into whole-cluster section bodies. */
struct GatheredState
{
    std::vector<std::uint8_t> nodesBody;
    std::vector<std::uint8_t> mpiBody;
    std::vector<std::uint8_t> netBody;
    std::vector<std::uint8_t> faultBody;
    std::vector<std::uint8_t> workloadBody;
    std::vector<std::uint8_t> engineBody;
    std::vector<Tick> finishTicks;
    std::uint64_t retransmits = 0;
};

/**
 * Splice the shards' contiguous, node-ordered slices back into the
 * exact whole-cluster section encodings Cluster::serialize* would
 * produce — process 0's replica contributes the net section
 * (its controller holds the absorbed global counters; the default
 * PerfectSwitch is stateless, which run() enforced up front).
 */
GatheredState
assembleState(Cluster &cluster, const std::vector<PeerState> &states,
              std::uint64_t staged_total)
{
    const std::size_t n = cluster.numNodes();
    GatheredState g;
    {
        ckpt::Writer w;
        w.u32(static_cast<std::uint32_t>(n));
        for (const PeerState &st : states)
            w.bytes(st.nodes.data(), st.nodes.size());
        g.nodesBody = w.buffer();
    }
    {
        ckpt::Writer w;
        w.u32(static_cast<std::uint32_t>(n));
        for (const PeerState &st : states)
            w.bytes(st.mpi.data(), st.mpi.size());
        g.mpiBody = w.buffer();
    }
    {
        ckpt::Writer w;
        cluster.serializeNet(w);
        g.netBody = w.buffer();
    }
    {
        ckpt::Writer w;
        const bool has = cluster.faultInjector() != nullptr;
        w.boolean(has);
        if (has) {
            w.u32(static_cast<std::uint32_t>(n * n));
            for (const PeerState &st : states)
                w.bytes(st.faultRows.data(), st.faultRows.size());
            for (std::size_t i = 0; i < 4; ++i) {
                std::uint64_t total = 0;
                for (const PeerState &st : states)
                    total += st.faultTotals[i];
                w.u64(total);
            }
        }
        g.faultBody = w.buffer();
    }
    {
        ckpt::Writer w;
        w.u32(static_cast<std::uint32_t>(n));
        for (const PeerState &st : states)
            w.bytes(st.workload.data(), st.workload.size());
        g.workloadBody = w.buffer();
    }
    {
        // Matches DeliveryBatch::serialize at a boundary: pending is
        // always 0 and the lifetime counters sum over the peers
        // (stage and merge each happen exactly once per delivery,
        // just in different processes).
        std::uint64_t merged_total = 0;
        for (const PeerState &st : states)
            merged_total += st.merged;
        ckpt::Writer w;
        w.u32(0);
        w.u64(staged_total);
        w.u64(merged_total);
        g.engineBody = w.buffer();
    }
    for (const PeerState &st : states) {
        g.finishTicks.insert(g.finishTicks.end(), st.finish.begin(),
                             st.finish.end());
        g.retransmits += st.retransmits;
    }
    return g;
}

/** Frame the gathered bodies as a checkpoint image (buildImage's
 * section order, with the spliced bodies standing in for the live
 * cluster's). */
ckpt::CheckpointImage
spliceImage(const GatheredState &g, const core::Synchronizer &sync,
            std::uint64_t config_hash, const char *engine_name)
{
    ckpt::CheckpointImage image;
    image.quantumIndex = sync.numQuanta();
    image.quantumStart = sync.quantumStart();
    image.quantumEnd = sync.quantumEnd();
    image.configHash = config_hash;
    image.engine = engine_name;
    {
        ckpt::Writer w;
        sync.serialize(w);
        image.sections.push_back({ckpt::sectionSync, w.buffer()});
    }
    image.sections.push_back({ckpt::sectionNodes, g.nodesBody});
    image.sections.push_back({ckpt::sectionMpi, g.mpiBody});
    image.sections.push_back({ckpt::sectionNet, g.netBody});
    image.sections.push_back({ckpt::sectionFault, g.faultBody});
    image.sections.push_back({ckpt::sectionWorkload, g.workloadBody});
    image.sections.push_back({ckpt::sectionEngine, g.engineBody});
    image.stateHash = ckpt::sectionsHash(image.sections);
    return image;
}

/** Cluster::stateHash over the spliced section bodies. */
std::uint64_t
splicedStateHash(const GatheredState &g)
{
    ckpt::Writer w;
    w.bytes(g.nodesBody.data(), g.nodesBody.size());
    w.bytes(g.mpiBody.data(), g.mpiBody.size());
    w.bytes(g.netBody.data(), g.netBody.size());
    w.bytes(g.faultBody.data(), g.faultBody.size());
    w.bytes(g.workloadBody.data(), g.workloadBody.size());
    return w.hash();
}

/**
 * Process 0's side of a run, as a QuantumExecutor: it runs shard 0
 * itself and drives the forked peers, one Quantum frame each per
 * quantum, then the same mesh exchange every peer runs. Every wait on
 * a peer is deadline-bounded, absorbs heartbeats, polls supervised
 * cancellation, and converts every failure mode into a
 * PeerFailure-carrying RunAbort stamped with the completed-quanta
 * count.
 */
class Coordinator : public QuantumExecutor
{
  public:
    Coordinator(Cluster &cluster, QuantumDriver &driver,
                const EngineOptions &options, PeerGroup &peers)
        : cluster_(cluster), driver_(driver), options_(options),
          peers_(peers), k_(peers.size()), shard_(cluster, 0, k_),
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

    /**
     * Handshake: every peer announces itself with a geometry echo,
     * which catches build/parameter skew before any quantum runs.
     */
    void
    begin() override
    {
        const std::size_t n = cluster_.numNodes();
        for (std::size_t w = 1; w < k_; ++w) {
            const transport::Frame hello =
                await(w, transport::FrameType::Hello, "hello");
            ckpt::Reader r(hello.body, "hello");
            const std::uint32_t index = r.u32();
            const std::uint32_t k = r.u32();
            const std::uint32_t nodes = r.u32();
            if (!r.ok() || index != w || k != k_ || nodes != n)
                fail(w, PeerFailureKind::Protocol, "hello",
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
        wr.u64(sync.quantumEnd());
        wr.u64(qi);
        quantum.body = wr.buffer();
        for (std::size_t w = 1; w < k_; ++w)
            sendFrame(w, quantum, "quantum dispatch");
        shard_.run(sync.quantumEnd(), options_.cancelToken);
        driver_.pollCancel();

        // Each peer's deltas are absorbed into this controller
        // *before* completeQuantum(), so the policy and stats see the
        // global per-quantum packet count.
        const Report own = shard_.progress();
        allDone_ = own.done;
        anyPending_ = own.pending;
        shard_.exchange(
            qi,
            [this](std::size_t w, const transport::Frame &f) {
                sendFrame(w, f, "exchange barrier");
                return true;
            },
            [this, qi](std::size_t w) {
                const transport::Frame f = await(
                    w, transport::FrameType::Exchange, "exchange barrier");
                Report report;
                if (!shard_.adopt(f, qi, w, report))
                    fail(w, PeerFailureKind::Protocol, "exchange barrier",
                         "malformed exchange body");
                cluster_.controller().absorbRemoteDeltas(report.deltas);
                allDone_ = allDone_ && report.done;
                anyPending_ = anyPending_ || report.pending;
                return true;
            });
        return std::nullopt; // measured by the driver
    }

    /** Cross-process state gather, paid only when an image is due. */
    ckpt::CheckpointImage
    boundaryImage(std::uint64_t config_hash) override
    {
        return spliceImage(gather(), driver_.sync(), config_hash, name());
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
     * Final gather — finish ticks, retransmit totals, and the spliced
     * state fingerprint that must equal the sequential engine's
     * Cluster::stateHash bit for bit — then a clean peer shutdown.
     */
    void
    finish(RunResult &result) override
    {
        const GatheredState g = gather();
        peers_.stopAll(options_.peerDeadlineSeconds);
        result.finishTicks = g.finishTicks;
        result.retransmits = g.retransmits;
        result.finalStateHash = splicedStateHash(g);
    }

  private:
    void
    sendFrame(std::size_t w, const transport::Frame &frame,
              const char *phase)
    {
        if (!peers_.channels[w]->send(frame))
            fail(w, PeerFailureKind::Disconnect, phase);
    }

    /**
     * Wait for one @p want frame from peer @p w. Any frame resets
     * the liveness window (heartbeats keep a slow peer alive); the
     * deadline elapsing, a closed pipe, wire damage, an unexpected
     * type, or a peer-reported Abort all throw.
     */
    transport::Frame
    await(std::size_t w, transport::FrameType want, const char *phase)
    {
        peers_.setPhase(w, phase);
        transport::SocketChannel &ch = *peers_.channels[w];
        auto window_start = SteadyClock::now();
        for (;;) {
            driver_.pollCancel();
            const double elapsed = secondsSince(window_start);
            if (elapsed >= options_.peerDeadlineSeconds)
                fail(w, PeerFailureKind::Hang, phase);
            // Short slices keep the cancellation poll responsive
            // without giving up any of the peer's deadline.
            const double slice = std::min(
                0.25, options_.peerDeadlineSeconds - elapsed);
            transport::Frame f;
            switch (ch.recv(f, std::max(slice, 0.01))) {
            case transport::RecvStatus::Ok:
                peers_.touch(w);
                window_start = SteadyClock::now();
                if (f.type == transport::FrameType::Heartbeat)
                    continue;
                if (f.type == want)
                    return f;
                if (f.type == transport::FrameType::Abort) {
                    ckpt::Reader r(f.body, "abort");
                    const std::string cause = r.str();
                    const std::string detail = r.str();
                    fail(w, PeerFailureKind::Protocol, phase,
                         "peer aborted itself: " + cause + ": " +
                             detail);
                }
                fail(w, PeerFailureKind::Protocol, phase,
                     std::string("unexpected ") +
                         transport::frameTypeName(f.type) + " frame");
            case transport::RecvStatus::Timeout:
                continue;
            case transport::RecvStatus::Closed:
                fail(w, PeerFailureKind::Disconnect, phase);
            case transport::RecvStatus::Corrupt:
                fail(w, PeerFailureKind::Corrupt, phase);
            }
        }
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
     * Every StateReq goes out before shard 0's own slice is taken and
     * any State is awaited, so all shards serialize in parallel. Each
     * column is already merged, so a StateReq carries nothing.
     */
    GatheredState
    gather()
    {
        transport::Frame req;
        req.type = transport::FrameType::StateReq;
        for (std::size_t w = 1; w < k_; ++w)
            sendFrame(w, req, "state gather");
        const std::uint64_t q = driver_.sync().numQuanta();
        std::vector<PeerState> states(k_);
        if (!readSlice(shard_.stateSlice(q), 0, q, states[0]))
            panic("shard 0 wrote a malformed state slice");
        for (std::size_t w = 1; w < k_; ++w) {
            const transport::Frame f =
                await(w, transport::FrameType::State, "state gather");
            if (!readSlice(f.body, w, q, states[w]))
                fail(w, PeerFailureKind::Protocol, "state gather",
                     "malformed state slice");
        }
        std::uint64_t staged_total = 0;
        for (const PeerState &st : states)
            staged_total += st.staged;
        return assembleState(cluster_, states, staged_total);
    }

    /** Decode shard @p w's State slice at boundary @p q into @p st.
     * @return false if it is malformed or off this run's geometry. */
    bool
    readSlice(const std::vector<std::uint8_t> &body, std::size_t w,
              std::uint64_t q, PeerState &st) const
    {
        const auto [sb, se] =
            WorkerPool::shardRange(w, k_, cluster_.numNodes());
        ckpt::Reader r(body, "state");
        bool ok = r.u32() == w && r.u64() == q;
        ok = ok && takeRaw(r, body, r.u64(), st.nodes);
        ok = ok && takeRaw(r, body, r.u64(), st.mpi);
        ok = ok && takeRaw(r, body, r.u64(), st.workload);
        st.hasFault = r.boolean();
        ok = ok && st.hasFault == (cluster_.faultInjector() != nullptr);
        if (ok && st.hasFault) {
            ok = takeRaw(r, body, r.u64(), st.faultRows);
            for (std::uint64_t &total : st.faultTotals)
                total = r.u64();
        }
        const std::uint32_t owned = r.u32();
        ok = ok && r.ok() && owned == se - sb;
        if (ok) {
            st.finish.reserve(owned);
            for (std::uint32_t i = 0; i < owned; ++i)
                st.finish.push_back(r.u64());
            st.retransmits = r.u64();
            st.merged = r.u64();
            st.staged = r.u64();
        }
        return ok && r.ok() && r.remaining() == 0;
    }

    Cluster &cluster_;
    QuantumDriver &driver_;
    const EngineOptions &options_;
    PeerGroup &peers_;
    const std::size_t k_;
    MeshShard shard_;
    bool allDone_;
    bool anyPending_;
};

} // namespace

DistributedEngine::DistributedEngine(EngineOptions options)
    : options_(options)
{}

RunResult
DistributedEngine::run(const ClusterParams &params,
                       workloads::Workload &workload,
                       core::QuantumPolicy &policy)
{
    if (params.network.switchModel)
        fatal("distributed engine requires the default PerfectSwitch: "
              "stateful per-port switch occupancy cannot be spliced "
              "from per-peer state slices");

    // Process 0's replica: shard 0 runs on it, and it holds the
    // globally absorbed controller counters and assembles checkpoints.
    // Nothing has executed on it before the forks, so each peer
    // inherits it pristine and runs its own shard on that copy.
    Cluster cluster(params, workload);
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
    const auto drills = fault::parsePeerDrills(options_.peerDrillSpec);
    for (const fault::PeerDrill &d : drills)
        if (d.peer == 0 || d.peer >= k)
            fatal("peer drill names peer %zu, which is not one of "
                  "the %zu forked peers 1..K-1 (process 0 runs shard "
                  "0)",
                  d.peer, k - 1);

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

    Coordinator coord(cluster, driver, options_, peers);
    // The driver starts the run's watchdog thread, after every fork.
    return driver.run(coord);
    // `peers` is destroyed on return: any peer stopAll failed to reap
    // is SIGKILLed and reaped before the replica goes away.
}

} // namespace aqsim::engine
