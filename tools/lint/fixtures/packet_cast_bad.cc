// Deliberately broken: shared_ptr downcasts on the packet path. The
// hotpath rule only fires when this body is attributed to a src/mpi/
// or src/net/ path (the self-test feeds it as src/mpi/bad.cc); the
// comment and the string below must not fire.
#include <memory>

#include "mpi/message.hh"

void
handle(const aqsim::net::PacketPtr &pkt)
{
    // Prose naming std::dynamic_pointer_cast is fine.
    const char *label = "dynamic_pointer_cast";
    auto frag = std::dynamic_pointer_cast<const aqsim::mpi::FragmentPayload>(
        pkt->payload);
    auto ctrl =
        std::dynamic_pointer_cast<const aqsim::mpi::ControlPayload>(
            pkt->payload);
    const auto *raw =
        dynamic_cast<const aqsim::mpi::FragmentPayload *>(
            pkt->payload.get());
    (void)label;
    (void)frag;
    (void)ctrl;
    (void)raw;
}
