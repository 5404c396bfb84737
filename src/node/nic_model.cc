#include "node/nic_model.hh"

#include <algorithm>

#include "base/logging.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::node
{

NicModel::NicModel(NodeId id, sim::EventQueue &queue,
                   net::NetworkController &controller)
    : id_(id), queue_(queue), controller_(controller)
{}

stats::Descriptors<NicModel>
NicModel::statDescriptors()
{
    static constexpr stats::Descriptor<NicModel> table[] = {
        {"txFrames", "frames transmitted", &NicModel::txFrames_},
        {"txBytes", "bytes transmitted", &NicModel::txBytes_},
        {"rxFrames", "frames received", &NicModel::rxFrames_},
        {"rxBytes", "bytes received", &NicModel::rxBytes_},
    };
    return table;
}

void
NicModel::send(NodeId dst, std::uint32_t bytes, net::Packet frame)
{
    const net::NicParams &nic = controller_.nicParams();
    AQSIM_ASSERT(bytes > 0 && bytes <= nic.mtu);

    const Tick now = queue_.now();
    frame.src = id_;
    frame.dst = dst;
    frame.bytes = bytes;
    frame.sendTick = now;

    // Frames queue behind the transmitter; serialization is sequential.
    const Tick start =
        std::max(now + nic.txOverhead, txBusyUntil_);
    txBusyUntil_ = start + nic.serialization(bytes);
    frame.departTick = txBusyUntil_ + nic.txLatency;
    // The controller computes the real arrival; until then (e.g. in
    // the trace line of a dropped frame) it reads as the send tick.
    frame.idealArrival = now;

    ++txFrames_;
    txBytes_ += bytes;

    controller_.inject(frame);
}

void
NicModel::setRxHandler(RxHandler handler)
{
    rxHandler_ = std::move(handler);
}

void
NicModel::deliverAt(const net::Packet &pkt, Tick when)
{
    AQSIM_ASSERT(pkt.dst == id_);
    std::uint32_t slot = rxFreeHead_;
    if (slot == noFreeSlot) {
        slot = rxSlots_.size();
        rxSlots_.push_back(pkt);
    } else {
        rxFreeHead_ = static_cast<std::uint32_t>(rxSlots_[slot].id);
        rxSlots_[slot] = pkt;
    }
    queue_.schedule(
        when, [this, slot] { receive(slot); }, sim::Priority::Delivery);
}

void
NicModel::receive(std::uint32_t slot)
{
    // Copy the frame out and free its slot before the handler runs:
    // the handler may send, and a send may deliver into this pool.
    const net::Packet pkt = rxSlots_[slot];
    rxSlots_[slot].id = rxFreeHead_;
    rxFreeHead_ = slot;
    ++rxFrames_;
    rxBytes_ += pkt.bytes;
    if (rxHandler_)
        rxHandler_(pkt);
}

void
NicModel::serialize(ckpt::Writer &w) const
{
    w.u64(txBusyUntil_);
}

} // namespace aqsim::node
