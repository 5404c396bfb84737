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
/* Worker-process side                                                */
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
            // Frozen until the coordinator's teardown SIGKILL: the
            // socket stays open, heartbeats stop — the Hang case.
            ::raise(SIGSTOP);
            break;
        case fault::PeerDrillOp::Exit:
            ::_exit(0); // no protocol goodbye: the half-open case
        }
    }
}

/** Everything one worker process needs (set up before fork). */
struct PeerSetup
{
    std::size_t index = 0;
    std::size_t numPeers = 1;
    /** The coordinator's replica, inherited through fork. */
    Cluster *cluster = nullptr;
    const EngineOptions *options = nullptr;
    transport::SocketChannel *channel = nullptr;
};

/**
 * Worker protocol loop. Runs on its own copy of the coordinator's
 * pristine replica (built before the fork and untouched until then).
 * Each Quantum frame carries the previous quantum's inbound runs at
 * its head: the worker adopts and merges them, runs its shard of
 * nodes to the new boundary, and answers with one Exchange frame of
 * outbound delivery runs and local progress. A StateReq frame carries
 * the pending inbound runs the same way: the worker merges them, then
 * answers with its serialized state slice.
 *
 * @return process exit code (0 = clean Stop).
 */
int
peerMain(const PeerSetup &p)
{
    Cluster &cluster = *p.cluster;
    const std::size_t n = cluster.numNodes();
    const auto [begin, end] =
        WorkerPool::shardRange(p.index, p.numPeers, n);
    // Every quantum is conservative (DistScheduler stages every
    // delivery), so the shard loop needs no mailboxes.
    DeliveryBatch batch(n, p.numPeers, false);
    DistScheduler scheduler(batch);
    cluster.controller().setScheduler(&scheduler);
    cluster.controller().setFoldLanes(p.numPeers);
    ShardLoop loop(cluster, nullptr);

    const auto drills = fault::parsePeerDrills(p.options->peerDrillSpec);
    // Healthy peers must outlive coordinator-side failure detection:
    // a peer that gave up first would turn one failed peer into K.
    const double deadline = p.options->peerDeadlineSeconds * 2.0 + 1.0;
    transport::SocketChannel &ch = *p.channel;
    transport::HeartbeatSender heartbeat(ch, p.options->heartbeatSeconds);

    fireDrills(drills, p.index, fault::PeerDrillPhase::Hello, 0);
    {
        transport::Frame hello;
        hello.type = transport::FrameType::Hello;
        ckpt::Writer w;
        w.u32(static_cast<std::uint32_t>(p.index));
        w.u32(static_cast<std::uint32_t>(p.numPeers));
        w.u32(static_cast<std::uint32_t>(n));
        hello.body = w.buffer();
        if (!ch.send(hello))
            return 1;
    }

    net::NetworkController::Counters prev;
    std::uint64_t last_quantum = 0;
    // End of the last quantum run (the next one's start).
    Tick boundary = 0;
    // Quantum last_quantum ran and was exchanged, but its inbound
    // runs (and this peer's own self-run) are not merged yet.
    bool unmerged = false;

    // Adopt the inbound-run sections heading @p r — K-1 of them while
    // a quantum is unmerged, none otherwise — then merge this peer's
    // column: the barrier half of quantum last_quantum.
    const auto adopt = [&](ckpt::Reader &r) {
        const std::uint32_t num_sections = r.u32();
        if (!r.ok() || num_sections != (unmerged ? p.numPeers - 1 : 0))
            return false;
        for (std::uint32_t i = 0; i < num_sections; ++i) {
            const std::uint32_t u = r.u32();
            const std::uint32_t count = r.u32();
            if (!r.ok() || u >= p.numPeers || u == p.index)
                return false;
            for (std::uint32_t j = 0; j < count; ++j) {
                net::Packet pkt;
                if (!mpi::getPacket(r, pkt))
                    return false;
                batch.injectRemote(u, p.index, pkt);
            }
        }
        if (!r.ok() || r.remaining() != 0)
            return false;
        if (!unmerged)
            return true;
        batch.mergeShard(p.index, cluster, loop.wake());
        unmerged = false;
        fireDrills(drills, p.index, fault::PeerDrillPhase::Ack,
                   last_quantum);
        return true;
    };

    for (;;) {
        transport::Frame f;
        if (ch.recv(f, deadline) != transport::RecvStatus::Ok)
            return 1; // coordinator gone or wedged: nothing to save
        switch (f.type) {
        case transport::FrameType::Quantum: {
            ckpt::Reader r(f.body, "quantum");
            const Tick qe = r.u64();
            const std::uint64_t qi = r.u64();
            if (!r.ok() || qi != last_quantum + 1 || !adopt(r))
                return 1;
            cluster.controller().beginQuantum();
            prev = cluster.controller().snapshotCounters();
            for (std::size_t s = 0; s < p.numPeers; ++s)
                batch.beginQuantum(s);
            scheduler.setQuantumEnd(qe);
            loop.runQuantum(begin, end, boundary, qe, p.index);
            boundary = qe;
            last_quantum = qi;
            unmerged = true;
            fireDrills(drills, p.index,
                       fault::PeerDrillPhase::Exchange, qi);

            // Progress as it will stand once this quantum is merged:
            // merging only schedules NIC deliveries, so it finishes
            // no app, and it leaves a queue non-empty exactly when
            // the queue already was or a run lands in it — the
            // self-run counted here, the cross-shard runs by the
            // coordinator.
            bool all_done = true;
            bool any_pending = batch.stagedBetween(p.index, p.index) > 0;
            for (NodeId id = begin; id < end; ++id) {
                node::NodeSimulator &node = cluster.node(id);
                all_done = all_done && node.appDone();
                any_pending = any_pending || !node.queue().empty();
            }

            transport::Frame ex;
            ex.type = transport::FrameType::Exchange;
            ckpt::Writer w;
            w.u32(static_cast<std::uint32_t>(p.index));
            w.u64(qi);
            const auto cur = cluster.controller().snapshotCounters();
            w.u64(cur.idsAssigned - prev.idsAssigned);
            w.u64(cur.packetsThisQuantum - prev.packetsThisQuantum);
            w.u64(cur.totalPackets - prev.totalPackets);
            w.u64(cur.totalStragglers - prev.totalStragglers);
            w.u64(cur.totalNextQuantum - prev.totalNextQuantum);
            w.u64(cur.totalLatenessTicks - prev.totalLatenessTicks);
            w.u64(cur.totalDropped - prev.totalDropped);
            w.u64(cur.bytes - prev.bytes);
            w.boolean(all_done);
            w.boolean(any_pending);
            w.u64(batch.totalStaged());
            w.u32(static_cast<std::uint32_t>(p.numPeers - 1));
            for (std::size_t d = 0; d < p.numPeers; ++d) {
                if (d == p.index)
                    continue;
                ckpt::Writer pw;
                const std::size_t count = batch.takeRun(
                    p.index, d, [&pw](const net::Packet &pkt) {
                        mpi::putPacket(pw, pkt);
                    });
                w.u32(static_cast<std::uint32_t>(d));
                w.u32(static_cast<std::uint32_t>(count));
                w.u64(pw.size());
                w.bytes(pw.buffer().data(), pw.size());
            }
            ex.body = w.buffer();
            if (!ch.send(ex))
                return 1;
            break;
        }
        case transport::FrameType::StateReq: {
            ckpt::Reader r(f.body, "state-req");
            if (!adopt(r))
                return 1;
            loop.catchUp(begin, end, boundary);
            transport::Frame st;
            st.type = transport::FrameType::State;
            ckpt::Writer w;
            w.u32(static_cast<std::uint32_t>(p.index));
            w.u64(last_quantum);
            const auto slice = [&](auto &&serialize) {
                ckpt::Writer b;
                serialize(b);
                w.u64(b.size());
                w.bytes(b.buffer().data(), b.size());
            };
            slice([&](ckpt::Writer &b) {
                cluster.serializeNodeRange(b, begin, end);
            });
            slice([&](ckpt::Writer &b) {
                cluster.serializeMpiRange(b, begin, end);
            });
            slice([&](ckpt::Writer &b) {
                cluster.serializeWorkloadRange(b, begin, end);
            });
            const fault::FaultInjector *inj = cluster.faultInjector();
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
                w.u64(cluster.node(id).appFinishTick());
            w.u64(cluster.totalRetransmits());
            w.u64(batch.totalMerged());
            st.body = w.buffer();
            if (!ch.send(st))
                return 1;
            break;
        }
        case transport::FrameType::Stop:
            return 0;
        case transport::FrameType::Abort:
            return 1;
        case transport::FrameType::Heartbeat:
            break; // tolerated, though the coordinator sends none
        default:
            return 1;
        }
    }
}

/**
 * Worker-process entry: run the protocol loop under a FailureTrap so
 * an in-simulation fatal()/panic() becomes an Abort frame the
 * coordinator can attribute, instead of a silent disconnect.
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
        p.channel->send(f); // best effort; the pipe may be gone
        return 1;
    }
}

/* ------------------------------------------------------------------ */
/* Coordinator side                                                   */
/* ------------------------------------------------------------------ */

/**
 * The coordinator's view of its worker processes: channels and pids
 * (protocol-thread-owned), plus a mutex-guarded liveness table the
 * watchdog's dump thread reads, and RAII teardown — on any exit path
 * every child is SIGKILLed (which also reaps SIGSTOPped workers) and
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

    /** One line per worker for the watchdog's PanicInfo::peers. */
    std::string
    report() const AQSIM_EXCLUDES(mutex_)
    {
        const auto now = SteadyClock::now();
        base::MutexLock lock(mutex_);
        std::string out;
        for (std::size_t w = 0; w < live_.size(); ++w) {
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
     * Clean shutdown: Stop frame to every healthy worker, then a
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
     * so a healthy worker can exit on its own terms, then SIGKILL —
     * which also terminates SIGSTOPped workers — and a blocking reap.
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
                wr.str("coordinator");
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

/** One raw, already-encoded packet run headed for one destination. */
struct Segment
{
    std::uint32_t count = 0;
    std::vector<std::uint8_t> bytes;
};

/** One worker's serialized state slice (State frame, decoded). */
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
    /** The peer's DeliveryBatch::totalMerged() (boundary merged). */
    std::uint64_t merged = 0;
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
 * Splice the workers' contiguous, node-ordered slices back into the
 * exact whole-cluster section encodings Cluster::serialize* would
 * produce — the coordinator's replica contributes the net section
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
 * The coordinator side of a run, as a QuantumExecutor: one
 * star-protocol round trip (Quantum out, Exchange back) per quantum
 * over the already-forked worker processes. A quantum's delivery runs
 * ride the next Quantum frame, or the StateReq frames of a gather.
 * Every barrier wait is deadline-bounded, absorbs heartbeats, polls
 * supervised cancellation, and converts every failure mode into a
 * PeerFailure-carrying RunAbort stamped with the completed-quanta
 * count.
 */
class Coordinator : public QuantumExecutor
{
  public:
    Coordinator(Cluster &cluster, QuantumDriver &driver,
                const EngineOptions &options, PeerGroup &peers)
        : cluster_(cluster), driver_(driver), options_(options),
          peers_(peers), numPeers_(peers.size()),
          hasFault_(cluster.faultInjector() != nullptr),
          // At quantum 0 the pristine replica *is* the peers' state;
          // afterwards the flags aggregate from the workers' Exchanges.
          allDone_(cluster.allDone()),
          anyPending_(cluster.anyEventPending()),
          inbound_(numPeers_, std::vector<Segment>(numPeers_))
    {
        // The replica's nodes never run: one empty lane, no slot scan.
        cluster.controller().setFoldLanes(1);
    }

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
     * Handshake: every worker announces itself with a geometry echo,
     * which catches build/parameter skew before any quantum runs.
     */
    void
    begin() override
    {
        const std::size_t n = cluster_.numNodes();
        for (std::size_t w = 0; w < numPeers_; ++w) {
            const transport::Frame hello =
                await(w, transport::FrameType::Hello, "hello");
            ckpt::Reader r(hello.body, "hello");
            const std::uint32_t index = r.u32();
            const std::uint32_t k = r.u32();
            const std::uint32_t nodes = r.u32();
            if (!r.ok() || index != w || k != numPeers_ || nodes != n)
                fail(w, PeerFailureKind::Protocol, "hello",
                     "geometry mismatch in hello");
        }
    }

    std::optional<HostNs>
    runQuantum() override
    {
        const core::Synchronizer &sync = driver_.sync();
        const std::uint64_t qi = sync.numQuanta() + 1;

        // Dispatch: each peer's Quantum frame carries, at its head,
        // the previous exchange's runs destined to that peer (unless
        // a gather already delivered them).
        for (std::size_t d = 0; d < numPeers_; ++d) {
            transport::Frame quantum;
            quantum.type = transport::FrameType::Quantum;
            ckpt::Writer w;
            w.u64(sync.quantumEnd());
            w.u64(qi);
            writeInbound(w, d);
            quantum.body = w.buffer();
            sendFrame(d, quantum, "quantum dispatch");
        }
        inboundPending_ = false;

        // Exchange barrier: collect per-peer counter deltas, local
        // progress and the raw per-destination packet runs. The
        // deltas are absorbed into the replica controller *before*
        // completeQuantum() so the policy and stats see the global
        // per-quantum packet count. A peer's flags already count its
        // own self-run; a cross-shard run lands in a queue, so it
        // counts as pending here.
        allDone_ = true;
        anyPending_ = false;
        stagedTotal_ = 0;
        for (std::size_t w = 0; w < numPeers_; ++w) {
            const transport::Frame ex = await(
                w, transport::FrameType::Exchange, "exchange barrier");
            ckpt::Reader r(ex.body, "exchange");
            const std::uint32_t index = r.u32();
            const std::uint64_t q = r.u64();
            net::NetworkController::Counters d;
            d.idsAssigned = r.u64();
            d.packetsThisQuantum = r.u64();
            d.totalPackets = r.u64();
            d.totalStragglers = r.u64();
            d.totalNextQuantum = r.u64();
            d.totalLatenessTicks = r.u64();
            d.totalDropped = r.u64();
            d.bytes = r.u64();
            const bool done_local = r.boolean();
            const bool pending_local = r.boolean();
            const std::uint64_t staged = r.u64();
            const std::uint32_t num_sections = r.u32();
            bool ok = r.ok() && index == w && q == qi &&
                      num_sections == numPeers_ - 1;
            for (std::size_t dst = 0; ok && dst < numPeers_; ++dst) {
                if (dst == w)
                    continue;
                Segment &seg = inbound_[w][dst];
                ok = r.u32() == dst;
                seg.count = r.u32();
                const std::uint64_t len = r.u64();
                ok = ok && takeRaw(r, ex.body, len, seg.bytes);
                anyPending_ = anyPending_ || seg.count > 0;
            }
            if (!ok || !r.ok() || r.remaining() != 0)
                fail(w, PeerFailureKind::Protocol, "exchange barrier",
                     "malformed exchange body");
            cluster_.controller().absorbRemoteDeltas(d);
            allDone_ = allDone_ && done_local;
            anyPending_ = anyPending_ || pending_local;
            stagedTotal_ += staged;
        }
        inboundPending_ = true;
        return std::nullopt; // measured by the driver
    }

    /** Cross-process state gather, paid only when an image is due. */
    ckpt::CheckpointImage
    boundaryImage(std::uint64_t config_hash) override
    {
        return spliceImage(gather(), driver_.sync(), config_hash, name());
    }

    /**
     * Node state lives in the worker processes; the useful dump here
     * is per-peer liveness.
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
     * Append peer @p d's inbound runs of the last exchange — ascending
     * source order, raw byte segments, no packet re-encoding on the
     * coordinator — or an empty section list once they are delivered.
     */
    void
    writeInbound(ckpt::Writer &w, std::size_t d) const
    {
        if (!inboundPending_) {
            w.u32(0);
            return;
        }
        w.u32(static_cast<std::uint32_t>(numPeers_ - 1));
        for (std::size_t u = 0; u < numPeers_; ++u) {
            if (u == d)
                continue;
            const Segment &seg = inbound_[u][d];
            w.u32(static_cast<std::uint32_t>(u));
            w.u32(seg.count);
            w.bytes(seg.bytes.data(), seg.bytes.size());
        }
    }

    /**
     * Wait for one @p want frame from worker @p w. Any frame resets
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

    /** Quarantine worker @p w and abort the run with its failure. */
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

    /** Await + decode worker @p w's state slice at this boundary. */
    PeerState
    fetchState(std::size_t w, std::size_t expect_owned)
    {
        const transport::Frame f =
            await(w, transport::FrameType::State, "state gather");

        ckpt::Reader r(f.body, "state");
        PeerState st;
        const std::uint32_t index = r.u32();
        const std::uint64_t q = r.u64();
        bool ok = index == w && q == driver_.sync().numQuanta();
        ok = ok && takeRaw(r, f.body, r.u64(), st.nodes);
        ok = ok && takeRaw(r, f.body, r.u64(), st.mpi);
        ok = ok && takeRaw(r, f.body, r.u64(), st.workload);
        st.hasFault = r.boolean();
        ok = ok && st.hasFault == hasFault_;
        if (ok && st.hasFault) {
            ok = takeRaw(r, f.body, r.u64(), st.faultRows);
            for (std::uint64_t &total : st.faultTotals)
                total = r.u64();
        }
        const std::uint32_t owned = r.u32();
        ok = ok && r.ok() && owned == expect_owned;
        if (ok) {
            st.finish.reserve(owned);
            for (std::uint32_t i = 0; i < owned; ++i)
                st.finish.push_back(r.u64());
            st.retransmits = r.u64();
            st.merged = r.u64();
        }
        if (!ok || !r.ok() || r.remaining() != 0)
            fail(w, PeerFailureKind::Protocol, "state gather",
                 "malformed state slice");
        return st;
    }

    /**
     * Every StateReq goes out before any State is awaited, so the
     * peers merge their pending inbound runs and serialize in
     * parallel.
     */
    GatheredState
    gather()
    {
        for (std::size_t d = 0; d < numPeers_; ++d) {
            transport::Frame req;
            req.type = transport::FrameType::StateReq;
            ckpt::Writer w;
            writeInbound(w, d);
            req.body = w.buffer();
            sendFrame(d, req, "state request");
        }
        inboundPending_ = false;
        const std::size_t n = cluster_.numNodes();
        std::vector<PeerState> states;
        states.reserve(numPeers_);
        for (std::size_t w = 0; w < numPeers_; ++w) {
            const auto [sb, se] = WorkerPool::shardRange(w, numPeers_, n);
            states.push_back(fetchState(w, se - sb));
        }
        return assembleState(cluster_, states, stagedTotal_);
    }

    Cluster &cluster_;
    QuantumDriver &driver_;
    const EngineOptions &options_;
    PeerGroup &peers_;
    const std::size_t numPeers_;
    const bool hasFault_;
    bool allDone_;
    bool anyPending_;
    std::uint64_t stagedTotal_ = 0;
    /** The last exchange's raw runs, [source peer][destination peer];
     * inboundPending_ while they still await delivery. */
    std::vector<std::vector<Segment>> inbound_;
    bool inboundPending_ = false;
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

    // Coordinator replica: configuration, the globally absorbed
    // controller counters, and checkpoint assembly. Its nodes never
    // execute an event, so each forked worker inherits it pristine
    // and executes its own shard on that copy.
    Cluster cluster(params, workload);
    const std::size_t n = cluster.numNodes();
    QuantumDriver driver(options_, cluster, policy);
    if (!driver.sync().conservative())
        fatal("distributed engine requires a conservative fixed "
              "quantum <= the minimum network latency (%llu ticks): "
              "only then is partitioned execution exact",
              static_cast<unsigned long long>(
                  cluster.controller().minNetworkLatency()));

    const std::size_t num_peers =
        WorkerPool::resolveWorkerCount(options_.numWorkers, n);

    // Fork every worker before any coordinator thread exists
    // (watchdog, heartbeat receivers): a post-thread fork could
    // inherit a lock held mid-operation by a non-forked thread.
    PeerGroup peers(num_peers);
    std::vector<std::unique_ptr<transport::SocketChannel>> child_ends(
        num_peers);
    for (std::size_t w = 0; w < num_peers; ++w) {
        auto [coord_end, peer_end] = transport::socketChannelPair();
        peers.channels[w] = std::move(coord_end);
        child_ends[w] = std::move(peer_end);
    }
    for (std::size_t w = 0; w < num_peers; ++w) {
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal("fork: %s", std::strerror(errno));
        if (pid == 0) {
            // Worker: drop every inherited channel end except our
            // own, so a dead sibling's socket actually reads EOF.
            for (std::size_t u = 0; u < num_peers; ++u) {
                peers.channels[u].reset();
                if (u != w)
                    child_ends[u].reset();
            }
            PeerSetup setup;
            setup.index = w;
            setup.numPeers = num_peers;
            setup.cluster = &cluster;
            setup.options = &options_;
            setup.channel = child_ends[w].get();
            ::_exit(peerProcess(setup));
        }
        peers.pids[w] = pid;
    }
    for (std::size_t w = 0; w < num_peers; ++w)
        child_ends[w].reset();

    Coordinator coord(cluster, driver, options_, peers);
    // The driver starts the run's watchdog thread, after every fork.
    return driver.run(coord);
    // `peers` is destroyed on return: any worker stopAll failed to
    // reap is SIGKILLed and reaped before the replica goes away.
}

} // namespace aqsim::engine
