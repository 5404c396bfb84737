#include "net/network_controller.hh"

#include <algorithm>
#include <cmath>

#include "base/debug.hh"
#include "base/logging.hh"
#include "check/invariants.hh"
#include "ckpt/ckpt_io.hh"
#include "fault/fault_injector.hh"

namespace aqsim::net
{

namespace
{

/** Map the controller's DeliveryKind onto the checker's mirror enum. */
check::DeliveryClass
deliveryClass(DeliveryKind kind)
{
    switch (kind) {
      case DeliveryKind::Straggler:
        return check::DeliveryClass::Straggler;
      case DeliveryKind::NextQuantum:
        return check::DeliveryClass::NextQuantum;
      case DeliveryKind::OnTime:
        break;
    }
    return check::DeliveryClass::OnTime;
}

/**
 * Register the network group's scalar stats as views of @p ctl's
 * counters: they are exact whenever the tree is read and cost the
 * per-packet path nothing.
 */
stats::Group &
addCounterStats(stats::Group &group, const NetworkController &ctl)
{
    using Counters = NetworkController::Counters;
    const auto add = [&group, &ctl](const char *name, const char *desc,
                                    std::uint64_t Counters::*field) {
        group.add<stats::Value>(name, desc, [&ctl, field] {
            return static_cast<double>(ctl.snapshotCounters().*field);
        });
    };
    add("packets", "frames routed through the controller",
        &Counters::totalPackets);
    add("bytes", "bytes routed through the controller",
        &Counters::bytes);
    add("stragglers", "frames delivered after their ideal arrival",
        &Counters::totalStragglers);
    add("nextQuantumDeliveries",
        "frames queued to the next quantum boundary (Fig. 3d)",
        &Counters::totalNextQuantum);
    return group;
}

} // namespace

Tick
NicParams::serialization(std::uint32_t bytes) const
{
    AQSIM_ASSERT(bytesPerNs > 0.0);
    return static_cast<Tick>(
        std::ceil(static_cast<double>(bytes) / bytesPerNs));
}

NetworkController::Counters &
NetworkController::Counters::operator+=(const Counters &o)
{
    idsAssigned += o.idsAssigned;
    packetsThisQuantum += o.packetsThisQuantum;
    totalPackets += o.totalPackets;
    totalStragglers += o.totalStragglers;
    totalNextQuantum += o.totalNextQuantum;
    totalLatenessTicks += o.totalLatenessTicks;
    totalDropped += o.totalDropped;
    bytes += o.bytes;
    return *this;
}

NetworkController::NetworkController(std::size_t num_nodes,
                                     NetworkParams params,
                                     stats::Group &stats_parent)
    : numNodes_(num_nodes), params_(std::move(params)),
      slots_(num_nodes),
      packetIds_(num_nodes),
      statsGroup_(
          addCounterStats(stats_parent.addGroup("network"), *this)),
      statLateness_(statsGroup_.add<stats::Log2Distribution>(
          "latenessTicks", "straggler lateness (actual - ideal), ticks")),
      statQuantumPackets_(statsGroup_.add<stats::Average>(
          "quantumPackets", "frames observed per quantum"))
{
    AQSIM_ASSERT(num_nodes >= 1);
    switch_ = params_.switchModel
                  ? params_.switchModel
                  : std::make_shared<PerfectSwitch>();
}

Tick
NetworkController::minNetworkLatency() const
{
    // Smallest possible frame: assume 64-byte minimum Ethernet frame.
    constexpr std::uint32_t min_frame = 64;
    return params_.nic.txLatency + switch_->minTraversal() +
           params_.nic.rxLatency + params_.nic.serialization(min_frame);
}

void
NetworkController::setFoldLanes(std::size_t lanes)
{
    // Nothing may sit in a lane that is about to go away.
    for (const Counters &lane : lanes_)
        folded_ += lane;
    lanes_.assign(lanes, Counters{});
}

NetworkController::Counters
NetworkController::beginQuantum()
{
    if (lanes_.empty()) {
        for (Counters &slot : slots_) {
            folded_ += slot;
            slot = Counters{};
        }
    }
    for (Counters &lane : lanes_) {
        folded_ += lane;
        lane = Counters{};
    }
    const Counters closing = folded_;
    statQuantumPackets_.sample(
        static_cast<double>(closing.packetsThisQuantum));
    folded_.packetsThisQuantum = 0;
    return closing;
}

void
NetworkController::inject(Packet &pkt)
{
    AQSIM_ASSERT(scheduler_ != nullptr);
    AQSIM_ASSERT(pkt.src < numNodes_);
    AQSIM_ASSERT(pkt.departTick >= pkt.sendTick);

    if (pkt.dst == broadcastNode) {
        for (NodeId n = 0; n < numNodes_; ++n) {
            if (n == pkt.src)
                continue;
            Packet copy = pkt;
            copy.dst = n;
            routeOne(copy);
        }
        return;
    }
    AQSIM_ASSERT(pkt.dst < numNodes_);
    AQSIM_ASSERT(pkt.dst != pkt.src);
    routeOne(pkt);
}

void
NetworkController::routeOne(Packet &pkt)
{
    if (!faults_) {
        deliverOne(pkt, 0, 0);
        return;
    }
    fault::FaultInjector::Decision d;
    {
        base::MutexLock lock(sharedMutex_);
        d = faults_->decide(pkt.src, pkt.dst, pkt.departTick);
    }
    if (d.drop) {
        // The frame transited the controller before dying on the
        // wire, so it still counts as observed traffic for the
        // adaptive quantum signal — but it is never delivered.
        Counters &slot = slots_[pkt.src];
        ++slot.packetsThisQuantum;
        ++slot.totalDropped;
        AQSIM_DPRINTF(Packet, pkt.departTick, "net", "%s -> DROPPED",
                      pkt.toString().c_str());
        return;
    }
    if (d.corrupt)
        pkt.corrupted = true;
    deliverOne(pkt, d.jitter, d.notBefore);
    if (d.duplicate) {
        // Copied after the corrupt flag is set: a duplicate of a
        // damaged frame is damaged too.
        Packet copy = pkt;
        deliverOne(copy, d.duplicateJitter, d.notBefore);
    }
}

void
NetworkController::deliverOne(Packet &pkt, Tick extra_delay,
                              Tick not_before)
{
    Counters &slot = slots_[pkt.src];
    // Same scheme as MsgHeader::msgId: unique cluster-wide for the
    // run, and independent of how sources interleave across threads.
    pkt.id = ((static_cast<std::uint64_t>(pkt.src) + 1) << 40) |
             ++packetIds_[pkt.src];
    ++slot.idsAssigned;
    pkt.idealArrival =
        switch_->egress(pkt.src, pkt.dst, pkt.bytes, pkt.departTick) +
        params_.nic.rxLatency + extra_delay;
    if (pkt.idealArrival < not_before)
        pkt.idealArrival = not_before;

    DeliveryKind kind = DeliveryKind::OnTime;
    const Tick actual = scheduler_->place(pkt, kind);
    check::InvariantChecker::instance().onDelivery(
        deliveryClass(kind), actual, pkt.idealArrival);
    AQSIM_ASSERT(actual >= pkt.idealArrival ||
                 kind == DeliveryKind::OnTime);

    ++slot.packetsThisQuantum;
    ++slot.totalPackets;
    slot.bytes += pkt.bytes;

    if (kind != DeliveryKind::OnTime) {
        const auto lateness =
            static_cast<std::uint64_t>(actual - pkt.idealArrival);
        slot.totalLatenessTicks += lateness;
        ++slot.totalStragglers;
        if (kind == DeliveryKind::NextQuantum)
            ++slot.totalNextQuantum;
        base::MutexLock lock(sharedMutex_);
        statLateness_.sample(lateness);
    }

    AQSIM_DPRINTF(Packet, actual, "net", "%s -> delivered@%llu%s",
                  pkt.toString().c_str(),
                  static_cast<unsigned long long>(actual),
                  kind == DeliveryKind::OnTime
                      ? ""
                      : (kind == DeliveryKind::Straggler
                             ? " STRAGGLER"
                             : " NEXT-QUANTUM"));

    if (!observers_.empty()) {
        base::MutexLock lock(sharedMutex_);
        for (const auto &observer : observers_)
            observer(pkt, actual);
    }
}

NetworkController::Counters
NetworkController::snapshotCounters() const
{
    Counters sum = folded_;
    for (const Counters &lane : lanes_)
        sum += lane;
    for (const Counters &slot : slots_)
        sum += slot;
    return sum;
}

void
NetworkController::absorbRemoteDeltas(const Counters &d)
{
    folded_ += d;
}

void
NetworkController::reset()
{
    // Drop the previous run's scheduler binding: the engine-side
    // scheduler object dies when run() returns, so carrying the
    // pointer across a reset turns the first inject of a re-run
    // without an engine into a dangling call. Each engine installs a
    // fresh scheduler at run start.
    scheduler_ = nullptr;
    switch_->reset();
    folded_ = Counters{};
    std::fill(slots_.begin(), slots_.end(), Counters{});
    std::fill(packetIds_.begin(), packetIds_.end(), 0);
    std::fill(lanes_.begin(), lanes_.end(), Counters{});
    // The registered stats::* objects that keep their own samples
    // must be cleared with the counters, or repeated runs in one
    // process report stale lateness and per-quantum numbers.
    statsGroup_.resetAll();
    base::MutexLock lock(sharedMutex_);
    if (faults_)
        faults_->reset();
}

void
NetworkController::serialize(ckpt::Writer &w) const
{
    const Counters c = snapshotCounters();
    w.u64(1 + c.idsAssigned);
    w.u64(c.packetsThisQuantum);
    w.u64(c.totalPackets);
    w.u64(c.totalStragglers);
    w.u64(c.totalNextQuantum);
    w.u64(c.totalLatenessTicks);
    w.u64(c.totalDropped);
    switch_->serialize(w);
}

} // namespace aqsim::net
