/**
 * @file
 * Packet trace recording for traffic visualization (paper Fig. 9 left:
 * packet traffic over time, one line per node, a mark per exchanged
 * packet).
 */

#ifndef AQSIM_TRACE_PACKET_TRACE_HH
#define AQSIM_TRACE_PACKET_TRACE_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "base/types.hh"
#include "net/network_controller.hh"

namespace aqsim::trace
{

/** One routed packet, as observed at the controller. */
struct TraceRecord
{
    Tick time = 0; // actual delivery tick
    NodeId src = 0;
    NodeId dst = 0;
    std::uint32_t bytes = 0;
};

/** Collects every packet routed through a network controller. */
class PacketTrace
{
  public:
    PacketTrace() = default;

    /**
     * Register this trace as an observer on @p controller. Must be
     * called before the run starts; the trace must outlive the run.
     */
    void attach(net::NetworkController &controller);

    const std::vector<TraceRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    void clear() { records_.clear(); }

    /** Last delivery tick seen (0 if empty). */
    Tick endTime() const;

    /** Dump as CSV: time,src,dst,bytes, rows sorted by all four
     * fields, so equal record sets write equal files at any worker
     * count. */
    void dumpCsv(std::ostream &out) const;

    /**
     * Packets per time window (for traffic-density series).
     * @param window bin width in ticks
     */
    std::vector<std::uint64_t> density(Tick window) const;

  private:
    std::vector<TraceRecord> records_;
};

} // namespace aqsim::trace

#endif // AQSIM_TRACE_PACKET_TRACE_HH
