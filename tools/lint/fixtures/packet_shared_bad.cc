// Deliberately broken: frames and payloads as shared heap objects on
// the frame path. The hotpath rule only fires when this body is
// attributed to a frame-path file (the self-test feeds it as
// src/net/bad.cc); the comment, the string and the non-frame
// shared_ptr below must not fire.
#include <memory>

#include "mpi/message.hh"
#include "net/switch_model.hh"

// Prose naming std::shared_ptr<net::Packet> is fine.
using Frame = std::shared_ptr<aqsim::net::Packet>;
using Payload = std::shared_ptr<const aqsim::net::Payload>;

void
send(const aqsim::mpi::MsgHeader &h)
{
    const char *label = "std::make_shared<Packet>";
    auto pkt = std::make_shared<aqsim::net::Packet>();
    auto frag = std::make_shared<aqsim::mpi::FragmentPayload>(h, 0, 1);
    std::shared_ptr<const ControlPayload> ctrl;
    auto sw = std::make_shared<aqsim::net::PerfectSwitch>();
    (void)label;
    (void)pkt;
    (void)frag;
    (void)ctrl;
    (void)sw;
}
