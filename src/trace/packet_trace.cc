#include "trace/packet_trace.hh"

#include <algorithm>
#include <tuple>

#include "base/csv.hh"

namespace aqsim::trace
{

void
PacketTrace::attach(net::NetworkController &controller)
{
    controller.addObserver(
        [this](const net::Packet &pkt, Tick actual) {
            records_.push_back(
                TraceRecord{actual, pkt.src, pkt.dst, pkt.bytes});
        });
}

Tick
PacketTrace::endTime() const
{
    Tick end = 0;
    for (const auto &r : records_)
        end = std::max(end, r.time);
    return end;
}

void
PacketTrace::dumpCsv(std::ostream &out) const
{
    // Observers run in the order workers route packets, which varies
    // run to run at K >= 2; the full-row order makes the file a pure
    // function of the run's contents.
    std::vector<TraceRecord> rows = records_;
    std::sort(rows.begin(), rows.end(),
              [](const TraceRecord &a, const TraceRecord &b) {
                  return std::tie(a.time, a.src, a.dst, a.bytes) <
                         std::tie(b.time, b.src, b.dst, b.bytes);
              });
    CsvWriter csv(out);
    csv.header({"time", "src", "dst", "bytes"});
    for (const auto &r : rows) {
        csv.row()
            .field(static_cast<std::uint64_t>(r.time))
            .field(static_cast<std::uint64_t>(r.src))
            .field(static_cast<std::uint64_t>(r.dst))
            .field(static_cast<std::uint64_t>(r.bytes));
    }
}

std::vector<std::uint64_t>
PacketTrace::density(Tick window) const
{
    std::vector<std::uint64_t> bins;
    if (window == 0)
        return bins;
    for (const auto &r : records_) {
        const std::size_t bin = static_cast<std::size_t>(r.time / window);
        if (bin >= bins.size())
            bins.resize(bin + 1, 0);
        ++bins[bin];
    }
    return bins;
}

} // namespace aqsim::trace
