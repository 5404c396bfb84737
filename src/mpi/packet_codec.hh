/**
 * @file
 * Wire codec for net::Packet (distributed-engine exchange frames).
 *
 * Cross-partition deliveries travel between worker processes as
 * ordered packet runs inside Exchange, Quantum and StateReq frames. This codec
 * round-trips every field the simulation reads — timing, identity,
 * corruption flag, and the mpi payload held in the frame's inline
 * area — through the ckpt::Writer/Reader encoding, field by field,
 * so a decoded packet is functionally indistinguishable from the
 * original: reassembly, rendezvous control, checksum verification,
 * and the merge keys (idealArrival, departTick, src) all behave
 * bit-identically. The wire layout is the codec's own and does not
 * follow the in-memory layout of net::Packet.
 */

#ifndef AQSIM_MPI_PACKET_CODEC_HH
#define AQSIM_MPI_PACKET_CODEC_HH

#include "ckpt/ckpt_io.hh"
#include "net/packet.hh"

namespace aqsim::mpi
{

/** Serialize one packet (all fields + payload) into @p w. */
void putPacket(ckpt::Writer &w, const net::Packet &pkt);

/**
 * Decode one packet written with putPacket() into @p pkt. On malformed
 * input the reader latches its error and the result is false.
 */
bool getPacket(ckpt::Reader &r, net::Packet &pkt);

} // namespace aqsim::mpi

#endif // AQSIM_MPI_PACKET_CODEC_HH
