#include "node/node_simulator.hh"

#include "base/logging.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::node
{

NodeSimulator::NodeSimulator(NodeId id, CpuModel &cpu,
                             net::NetworkController &controller)
    : id_(id), cpu_(cpu), nic_(id, queue_, controller)
{}

void
NodeSimulator::setProgram(sim::Process program)
{
    AQSIM_ASSERT(program.valid());
    program_ = std::move(program);
    program_.onDone([this] {
        appDone_ = true;
        appFinishTick_ = queue_.now();
    });
    queue_.schedule(0, [this] { program_.start(); });
}

void
NodeSimulator::serialize(ckpt::Writer &w) const
{
    w.u32(id_);
    w.boolean(appDone_);
    w.u64(appFinishTick_);
    queue_.serialize(w);
    cpu_.serialize(w);
    nic_.serialize(w);
}

} // namespace aqsim::node
