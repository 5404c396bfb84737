#include "check/invariants.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "base/debug.hh"
#include "base/logging.hh"

namespace aqsim::check
{

constinit InvariantChecker InvariantChecker::instance_;

void
InvariantChecker::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

void
InvariantChecker::setFatal(bool on)
{
    fatal_.store(on, std::memory_order_relaxed);
}

void
InvariantChecker::reset()
{
    for (auto &count : counts_)
        count.store(0, std::memory_order_relaxed);
    checks_.store(0, std::memory_order_relaxed);
    windowStragglers_.store(0, std::memory_order_relaxed);
    haveWindow_ = false;
    windowStart_ = 0;
    windowEnd_ = 0;
}

void
InvariantChecker::applyEnvironment()
{
    const char *env = std::getenv("AQSIM_CHECK");
    if (!env || !*env)
        return;
    const std::string value(env);
    if (value == "0" || value == "off")
        return;
    setEnabled(true);
    if (value == "fatal")
        setFatal(true);
}

void
InvariantChecker::violation(Invariant inv, Tick tick, const char *fmt,
                            ...)
{
    counts_[static_cast<unsigned>(inv)].fetch_add(
        1, std::memory_order_relaxed);

    char body[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(body, sizeof(body), fmt, args);
    va_end(args);

    AQSIM_DPRINTF(Check, tick, "check", "%s violated: %s",
                  invariantName(inv), body);
    if (fatal())
        panic("invariant %s violated: %s", invariantName(inv), body);
}

void
InvariantChecker::runBeginSlow()
{
    haveWindow_ = false;
    windowStart_ = 0;
    windowEnd_ = 0;
    windowStragglers_.store(0, std::memory_order_relaxed);
}

void
InvariantChecker::quantumOpenSlow(Tick start, Tick end,
                                  bool conservative, Tick min_latency)
{
    checks_.fetch_add(1, std::memory_order_relaxed);
    if (end <= start) {
        violation(Invariant::QuantumMonotonic, start,
                  "empty quantum window [%llu,%llu)",
                  static_cast<unsigned long long>(start),
                  static_cast<unsigned long long>(end));
    }
    if (haveWindow_ && start != windowEnd_) {
        violation(Invariant::QuantumMonotonic, start,
                  "window [%llu,%llu) not contiguous with previous "
                  "end %llu",
                  static_cast<unsigned long long>(start),
                  static_cast<unsigned long long>(end),
                  static_cast<unsigned long long>(windowEnd_));
    }
    if (conservative && end - start > min_latency) {
        violation(Invariant::QuantumBound, start,
                  "conservative run opened Q=%llu > T=%llu",
                  static_cast<unsigned long long>(end - start),
                  static_cast<unsigned long long>(min_latency));
    }
    haveWindow_ = true;
    windowStart_ = start;
    windowEnd_ = end;
    windowStragglers_.store(0, std::memory_order_relaxed);
}

void
InvariantChecker::quantumCompleteSlow(Tick start, Tick end,
                                      std::uint64_t claimed_stragglers)
{
    checks_.fetch_add(1, std::memory_order_relaxed);
    if (haveWindow_ && (start != windowStart_ || end != windowEnd_)) {
        violation(Invariant::QuantumMonotonic, start,
                  "completed window [%llu,%llu) is not the open "
                  "window [%llu,%llu)",
                  static_cast<unsigned long long>(start),
                  static_cast<unsigned long long>(end),
                  static_cast<unsigned long long>(windowStart_),
                  static_cast<unsigned long long>(windowEnd_));
    }
    const std::uint64_t observed =
        windowStragglers_.load(std::memory_order_relaxed);
    if (claimed_stragglers != observed) {
        violation(Invariant::StragglerAccounting, end,
                  "SyncStats claims %llu stragglers this quantum, "
                  "controller delivered %llu displaced frames",
                  static_cast<unsigned long long>(claimed_stragglers),
                  static_cast<unsigned long long>(observed));
    }
}

void
InvariantChecker::eventScheduledSlow(Tick when, Tick now)
{
    checks_.fetch_add(1, std::memory_order_relaxed);
    if (when < now) {
        violation(Invariant::PastEvent, now,
                  "event scheduled at %llu behind queue now %llu",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now));
    }
}

void
InvariantChecker::tickAdvanceSlow(Tick from, Tick to)
{
    checks_.fetch_add(1, std::memory_order_relaxed);
    if (to < from) {
        violation(Invariant::TickMonotonic, from,
                  "node clock moved backwards %llu -> %llu",
                  static_cast<unsigned long long>(from),
                  static_cast<unsigned long long>(to));
    }
}

void
InvariantChecker::deliverySlow(DeliveryClass cls, Tick actual,
                               Tick ideal)
{
    checks_.fetch_add(1, std::memory_order_relaxed);
    if (cls != DeliveryClass::OnTime)
        windowStragglers_.fetch_add(1, std::memory_order_relaxed);
    if (actual < ideal) {
        violation(Invariant::PastDelivery, actual,
                  "frame delivered at %llu before wire arrival %llu",
                  static_cast<unsigned long long>(actual),
                  static_cast<unsigned long long>(ideal));
    } else if (cls == DeliveryClass::OnTime && actual != ideal) {
        violation(Invariant::PastDelivery, actual,
                  "on-time delivery displaced: actual %llu != ideal "
                  "%llu (unaccounted lateness)",
                  static_cast<unsigned long long>(actual),
                  static_cast<unsigned long long>(ideal));
    }
}

void
InvariantChecker::shardMergeSlow(bool strictly_after,
                                 DeliveryClass cls, Tick when,
                                 Tick receiver_now)
{
    checks_.fetch_add(1, std::memory_order_relaxed);
    if (!strictly_after) {
        violation(Invariant::ShardMergeOrder, when,
                  "node's merged deliveries not strictly canonically "
                  "ordered at tick %llu",
                  static_cast<unsigned long long>(when));
    }
    if (when < receiver_now && cls != DeliveryClass::Straggler) {
        violation(Invariant::ShardMergeOrder, when,
                  "%s shard-merged delivery at %llu lands behind "
                  "receiver at %llu",
                  cls == DeliveryClass::OnTime ? "on-time"
                                               : "next-quantum",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(receiver_now));
    }
}

std::uint64_t
InvariantChecker::violations(Invariant inv) const
{
    return counts_[static_cast<unsigned>(inv)].load(
        std::memory_order_relaxed);
}

std::uint64_t
InvariantChecker::totalViolations() const
{
    std::uint64_t total = 0;
    for (const auto &count : counts_)
        total += count.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
InvariantChecker::checksPerformed() const
{
    return checks_.load(std::memory_order_relaxed);
}

} // namespace aqsim::check
