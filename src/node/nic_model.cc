#include "node/nic_model.hh"

#include <algorithm>

#include "base/logging.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::node
{

NicModel::NicModel(NodeId id, sim::EventQueue &queue,
                   net::NetworkController &controller,
                   stats::Group &stats_parent)
    : id_(id), queue_(queue), controller_(controller),
      statsGroup_(stats_parent.addGroup("nic")),
      statTxFrames_(statsGroup_.add<stats::Scalar>(
          "txFrames", "frames transmitted")),
      statTxBytes_(statsGroup_.add<stats::Scalar>(
          "txBytes", "bytes transmitted")),
      statRxFrames_(statsGroup_.add<stats::Scalar>(
          "rxFrames", "frames received")),
      statRxBytes_(statsGroup_.add<stats::Scalar>(
          "rxBytes", "bytes received"))
{}

void
NicModel::send(NodeId dst, std::uint32_t bytes, net::PayloadPtr payload)
{
    const net::NicParams &nic = controller_.nicParams();
    AQSIM_ASSERT(bytes > 0 && bytes <= nic.mtu);

    const Tick now = queue_.now();
    auto pkt = net::makePacket(id_, dst, bytes, now, std::move(payload));

    // Frames queue behind the transmitter; serialization is sequential.
    const Tick start =
        std::max(now + nic.txOverhead, txBusyUntil_);
    txBusyUntil_ = start + nic.serialization(bytes);
    pkt->departTick = txBusyUntil_ + nic.txLatency;

    ++statTxFrames_;
    statTxBytes_ += bytes;

    controller_.inject(pkt);
}

void
NicModel::setRxHandler(RxHandler handler)
{
    rxHandler_ = std::move(handler);
}

void
NicModel::deliverAt(net::PacketPtr pkt, Tick when)
{
    AQSIM_ASSERT(pkt->dst == id_);
    queue_.schedule(
        when,
        [this, pkt = std::move(pkt)] {
            ++statRxFrames_;
            statRxBytes_ += pkt->bytes;
            if (rxHandler_)
                rxHandler_(pkt);
        },
        sim::Priority::Delivery);
}

void
NicModel::serialize(ckpt::Writer &w) const
{
    w.u64(txBusyUntil_);
}

} // namespace aqsim::node
