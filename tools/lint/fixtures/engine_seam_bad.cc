// Deliberately broken: direct engine use from harness code. The
// engine-seam rule only fires when this body is attributed to a
// src/harness/ path (the self-test feeds it as src/harness/bad.cc);
// named directly on the command line it demonstrates the rule's
// comment/string stripping instead.
#include "engine/distributed_engine.hh"
#include "engine/sequential_engine.hh"
#include "engine/threaded_engine.hh"

void
runDirectly()
{
    // Comment mentioning SequentialEngine must not fire.
    const char *label = "ThreadedEngine"; // nor this string
    aqsim::engine::SequentialEngine sequential({});
    aqsim::engine::ThreadedEngine threaded({});
    aqsim::engine::DistributedEngine distributed({});
    (void)label;
    (void)sequential;
    (void)threaded;
    (void)distributed;
}
