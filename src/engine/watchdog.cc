#include "engine/watchdog.hh"

#include <chrono>
#include <cstdio>

#include "base/logging.hh"

namespace aqsim::engine
{

std::string
PanicInfo::format() const
{
    char head[96];
    std::snprintf(head, sizeof(head), "  quantum [%llu,%llu)\n",
                  static_cast<unsigned long long>(quantumStart),
                  static_cast<unsigned long long>(quantumEnd));
    std::string out(head);
    out += progress;
    out += peers;
    out += note;
    return out;
}

Watchdog::Watchdog(double deadline_seconds, DumpFn dump,
                   PanicFn on_panic)
    : deadlineSeconds_(deadline_seconds), dump_(std::move(dump)),
      onPanic_(std::move(on_panic))
{
    AQSIM_ASSERT(deadline_seconds > 0.0);
    thread_ = std::thread([this] { monitor(); });
}

Watchdog::~Watchdog()
{
    {
        base::MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

void
Watchdog::kick()
{
    {
        base::MutexLock lock(mutex_);
        ++kickCount_;
    }
    cv_.notify_all();
}

std::uint64_t
Watchdog::kicks() const
{
    base::MutexLock lock(mutex_);
    return kickCount_;
}

void
Watchdog::monitor()
{
    const auto deadline = std::chrono::duration<double>(deadlineSeconds_);
    base::MutexLock lock(mutex_);
    while (!stop_) {
        // Wake on every kick (or stop); declare a hang only when a
        // full deadline passes with the kick counter frozen.
        const std::uint64_t last_seen = kickCount_;
        if (cv_.waitFor(mutex_, deadline, [&]() AQSIM_REQUIRES(mutex_) {
                return stop_ || kickCount_ != last_seen;
            }))
            continue;
        // Timed out with no progress. The dump callback reads engine
        // state that is by definition not advancing, so tearing is
        // unlikely; a garbled dump from a truly racing engine is
        // still better than a silent hang.
        PanicInfo info = dump_ ? dump_() : PanicInfo{};
        info.deadlineSeconds = deadlineSeconds_;
        info.quantaCompleted = kickCount_;
        if (onPanic_ && !handlerFired_) {
            // Supervised run: hand the structured info to the handler
            // (which is expected to unwedge the engine) and keep
            // watching. If another full deadline passes with no
            // progress the handler failed, and we fall through to the
            // hard panic below — a watchdog with a broken supervisor
            // must never hang silently.
            handlerFired_ = true;
            onPanic_(info);
            continue;
        }
        // Hard failure path. This runs on the watchdog thread, which
        // never arms a base::FailureTrap, so panic() aborts the
        // process here even mid-supervised-run.
        panic("watchdog: no quantum completed in %.1f s "
              "(%llu quanta finished); run is hung\n%s",
              deadlineSeconds_,
              static_cast<unsigned long long>(kickCount_),
              info.format().c_str());
    }
}

} // namespace aqsim::engine
