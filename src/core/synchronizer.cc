#include "core/synchronizer.hh"

#include "base/debug.hh"
#include "base/logging.hh"
#include "check/invariants.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::core
{

Synchronizer::Synchronizer(QuantumPolicy &policy,
                           net::NetworkController &controller,
                           stats::Group &stats_parent,
                           bool record_timeline)
    : policy_(policy), controller_(controller), stats_(stats_parent),
      recordTimeline_(record_timeline)
{}

void
Synchronizer::begin()
{
    policy_.reset();
    stats_.reset();
    start_ = 0;
    end_ = policy_.initialQuantum();
    AQSIM_ASSERT(end_ > start_);
    check::InvariantChecker::instance().onRunBegin();
    check::InvariantChecker::instance().onQuantumOpen(
        start_, end_, conservative(),
        controller_.minNetworkLatency());
    stragglerBase_ = controller_.beginQuantum().totalStragglers;
}

void
Synchronizer::completeQuantum(HostNs host_ns)
{
    // One fold of the per-source counter slots closes this quantum
    // and opens the next; its result is all this boundary reads.
    const net::NetworkController::Counters closing =
        controller_.beginQuantum();
    const std::uint64_t packets = closing.packetsThisQuantum;
    const std::uint64_t stragglers =
        closing.totalStragglers - stragglerBase_;

    QuantumRecord rec;
    rec.start = start_;
    rec.length = end_ - start_;
    rec.packets = packets;
    rec.stragglers = stragglers;
    rec.hostNs = host_ns;
    stats_.record(rec, recordTimeline_);
    check::InvariantChecker::instance().onQuantumComplete(
        start_, end_, stragglers);

    const Tick next_len = policy_.next(packets);
    AQSIM_ASSERT(next_len > 0);
    AQSIM_DPRINTF(Quantum, end_, "sync",
                  "quantum %llu [%llu,%llu) np=%llu stragglers=%llu "
                  "-> next Q=%llu",
                  static_cast<unsigned long long>(stats_.numQuanta()),
                  static_cast<unsigned long long>(start_),
                  static_cast<unsigned long long>(end_),
                  static_cast<unsigned long long>(packets),
                  static_cast<unsigned long long>(stragglers),
                  static_cast<unsigned long long>(next_len));
    start_ = end_;
    end_ = start_ + next_len;
    check::InvariantChecker::instance().onQuantumOpen(
        start_, end_, conservative(),
        controller_.minNetworkLatency());
    stragglerBase_ = closing.totalStragglers;
}

bool
Synchronizer::conservative() const
{
    // Only a fixed policy with Q <= T provably never produces
    // stragglers; an adaptive policy exceeds T by design whenever
    // traffic pauses.
    const auto *fixed = dynamic_cast<const FixedQuantumPolicy *>(&policy_);
    return fixed &&
           fixed->initialQuantum() <= controller_.minNetworkLatency();
}

void
Synchronizer::serialize(ckpt::Writer &w) const
{
    w.u64(start_);
    w.u64(end_);
    w.u64(stragglerBase_);
    w.u64(stats_.numQuanta());
    w.u64(stats_.totalSimTicks());
    policy_.serialize(w);
}

} // namespace aqsim::core
