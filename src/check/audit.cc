/**
 * @file
 * Audit reporting for the runtime invariant checker: names,
 * descriptions (with the paper conditions each enforces), and the
 * summary report printed by `aqsim_cli --check`.
 */

#include <sstream>

#include "check/invariants.hh"

namespace aqsim::check
{

namespace
{

constexpr std::size_t numNames = numInvariants;

const char *const names[numNames] = {
    "QuantumMonotonic", "QuantumBound",        "PastEvent",
    "TickMonotonic",    "PastDelivery",        "StragglerAccounting",
    "ShardMergeOrder",
};

const char *const descriptions[numNames] = {
    "quantum windows are contiguous, non-empty, and advance",
    "Q <= T whenever the run claims conservative mode (paper "
    "Section 3 safety rule)",
    "no event is scheduled behind its queue's current tick",
    "a node's simulated clock never moves backwards",
    "deliveries never precede the wire arrival; on-time means "
    "exactly on time (Fig. 3 semantics)",
    "SyncStats straggler counts equal the deliveries actually "
    "displaced (Fig. 3d accounting)",
    "each node receives its post-exchange deliveries in strictly "
    "increasing (when, src, departTick, staging index) order, never "
    "behind the receiver unaccounted",
};

} // namespace

const char *
invariantName(Invariant inv)
{
    return names[static_cast<unsigned>(inv)];
}

const char *
invariantDescription(Invariant inv)
{
    return descriptions[static_cast<unsigned>(inv)];
}

std::string
InvariantChecker::report() const
{
    std::ostringstream out;
    out << "invariant audit: " << checksPerformed() << " checks, "
        << totalViolations() << " violations\n";
    for (std::size_t i = 0; i < numInvariants; ++i) {
        const auto inv = static_cast<Invariant>(i);
        out << "  " << (violations(inv) ? "FAIL" : "ok  ") << "  "
            << invariantName(inv) << ": " << violations(inv)
            << "  (" << invariantDescription(inv) << ")\n";
    }
    return out.str();
}

} // namespace aqsim::check
