#include "net/packet.hh"

#include <cstdio>

namespace aqsim::net
{

std::string
Packet::toString() const
{
    char buf[176];
    std::snprintf(buf, sizeof(buf),
                  "pkt#%llu %u->%u %uB send=%llu depart=%llu "
                  "arrive=%llu%s",
                  static_cast<unsigned long long>(id), src, dst, bytes,
                  static_cast<unsigned long long>(sendTick),
                  static_cast<unsigned long long>(departTick),
                  static_cast<unsigned long long>(idealArrival),
                  corrupted ? " CORRUPT" : "");
    return buf;
}

} // namespace aqsim::net
