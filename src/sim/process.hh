/**
 * @file
 * Coroutine-based simulated processes.
 *
 * Application programs (the workload skeletons) are written as C++20
 * coroutines returning sim::Process. They interact with simulated time
 * through awaitables:
 *
 *   co_await ctx.delay(ticks);        // advance local time
 *   co_await trigger.wait();          // block on a one-shot condition
 *
 * Every resumption happens *inside* an event of the owning node's
 * EventQueue. This property is what lets the execution engines account
 * host cost per event and interleave nodes deterministically.
 *
 * A coroutine's frame comes from its node (sim/frame_pool.hh): the
 * promise's operator new sees the coroutine's arguments, and the first
 * one that names a node (an mpi::Endpoint &, a workloads::AppContext
 * &) picks that node's FramePool. A program's frame is carved from the
 * cluster's block at build; send, sendrecv and collective frames are
 * recycled through the node's free lists. A coroutine whose arguments
 * name no node gets a heap frame.
 */

#ifndef AQSIM_SIM_PROCESS_HH
#define AQSIM_SIM_PROCESS_HH

#include <coroutine>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "sim/event_queue.hh"
#include "sim/frame_pool.hh"
#include "sim/small_callback.hh"

namespace aqsim::sim
{

/**
 * Handle to a simulated process (a coroutine). Owns the coroutine frame;
 * move-only. The coroutine starts suspended and is kicked off with
 * start().
 */
class Process
{
  public:
    struct promise_type
    {
        Process get_return_object();

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                auto &promise = h.promise();
                promise.done = true;
                // Move the callback out first: it may resume a parent
                // coroutine that destroys this frame (and with it the
                // promise and the callable being executed).
                auto cb = std::move(promise.onDone);
                if (cb)
                    cb();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception();

        /** The frame comes from the pool of the node the coroutine's
         * arguments name (sim/frame_pool.hh), or from the heap. */
        template <typename... Args>
        static void *
        operator new(std::size_t size, Args &...args)
        {
            return FramePool::allocate(framePoolOf(args...), size);
        }

        static void
        operator delete(void *frame) noexcept
        {
            FramePool::release(frame);
        }

        bool done = false;
        bool started = false;
        /** Invoked exactly once when the coroutine runs to completion. */
        SmallCallback onDone;
    };

    Process() = default;
    explicit Process(std::coroutine_handle<promise_type> handle)
        : handle_(handle)
    {}

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    Process(Process &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}

    Process &
    operator=(Process &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    ~Process() { destroy(); }

    /** Resume the coroutine from its initial suspension point. */
    void
    start()
    {
        AQSIM_ASSERT(handle_ && !handle_.done());
        AQSIM_ASSERT(!handle_.promise().started);
        handle_.promise().started = true;
        handle_.resume();
    }

    /** @return true if start() was called. */
    bool
    started() const
    {
        return handle_ && handle_.promise().started;
    }

    /** @return true if the coroutine ran to completion. */
    bool
    done() const
    {
        return handle_ && handle_.promise().done;
    }

    /** @return true if this handle refers to a live coroutine. */
    bool valid() const { return static_cast<bool>(handle_); }

    /** Register a completion callback (must be set before completion). */
    template <typename F>
    void
    onDone(F &&cb)
    {
        AQSIM_ASSERT(handle_);
        handle_.promise().onDone.emplace(std::forward<F>(cb));
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    friend class ProcessAwaiter;

    std::coroutine_handle<promise_type> handle_;
};

/**
 * Makes Process awaitable: `co_await subTask(...)` runs a child
 * coroutine to completion and then resumes the parent. The child is
 * started lazily if the caller has not started it yet, which supports
 * both the sequential form
 *
 *     co_await mpi::send(...);
 *
 * and the fork/join form
 *
 *     auto req = mpi::send(...);  req.start();   // runs concurrently
 *     ...other work...
 *     co_await std::move(req);                   // join
 */
class ProcessAwaiter
{
  public:
    explicit ProcessAwaiter(Process &&proc) : proc_(std::move(proc)) {}

    bool await_ready() const noexcept { return proc_.done(); }

    bool
    await_suspend(std::coroutine_handle<> parent)
    {
        if (!proc_.started()) {
            proc_.start();
            if (proc_.done())
                return false; // completed synchronously
        }
        proc_.handle_.promise().onDone = [parent] { parent.resume(); };
        return true;
    }

    void await_resume() const noexcept {}

  private:
    Process proc_;
};

inline ProcessAwaiter
operator co_await(Process &&proc)
{
    return ProcessAwaiter(std::move(proc));
}

/**
 * Awaitable that resumes the coroutine after a simulated delay on the
 * given event queue. A zero delay still yields through the queue so the
 * resumption is a distinct event (deterministic ordering, host-cost
 * accounting).
 */
class DelayAwaitable
{
  public:
    DelayAwaitable(EventQueue &queue, Tick delta)
        : queue_(queue), delta_(delta)
    {}

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        queue_.scheduleIn(delta_, [h] { h.resume(); });
    }

    void await_resume() const noexcept {}

  private:
    EventQueue &queue_;
    Tick delta_;
};

/**
 * One-shot condition that coroutines can await and components fire.
 *
 * Waiters are resumed through events scheduled at the firing tick, in
 * the order they began waiting. Awaiting an already-fired trigger does
 * not suspend.
 */
class Trigger
{
  public:
    explicit Trigger(EventQueue &queue) : queue_(&queue) {}

    /** @return true once fire() has been called. */
    bool fired() const { return fired_; }

    /** Fire the trigger, resuming all current waiters. */
    void
    fire()
    {
        AQSIM_ASSERT(!fired_);
        fired_ = true;
        for (auto h : waiters_)
            queue_->scheduleIn(0, [h] { h.resume(); },
                               Priority::Delivery);
        waiters_.clear();
    }

    class Awaitable
    {
      public:
        explicit Awaitable(Trigger &trigger) : trigger_(trigger) {}

        bool await_ready() const noexcept { return trigger_.fired_; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            trigger_.waiters_.push_back(h);
        }

        void await_resume() const noexcept {}

      private:
        Trigger &trigger_;
    };

    /** @return awaitable suspending until the trigger fires. */
    Awaitable wait() { return Awaitable(*this); }

  private:
    friend class Awaitable;

    EventQueue *queue_;
    bool fired_ = false;
    std::vector<std::coroutine_handle<>> waiters_;
};

/**
 * Counting latch: await completes when the count reaches zero. Used by
 * workloads to join groups of asynchronous operations (MPI waitall).
 */
class Latch
{
  public:
    Latch(EventQueue &queue, std::size_t count)
        : queue_(&queue), count_(count)
    {}

    /** Decrement the count; resumes waiters when it reaches zero. */
    void
    countDown()
    {
        AQSIM_ASSERT(count_ > 0);
        if (--count_ == 0) {
            for (auto h : waiters_)
                queue_->scheduleIn(0, [h] { h.resume(); },
                                   Priority::Delivery);
            waiters_.clear();
        }
    }

    /** @return the remaining count. */
    std::size_t count() const { return count_; }

    class Awaitable
    {
      public:
        explicit Awaitable(Latch &latch) : latch_(latch) {}

        bool await_ready() const noexcept { return latch_.count_ == 0; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            latch_.waiters_.push_back(h);
        }

        void await_resume() const noexcept {}

      private:
        Latch &latch_;
    };

    /** @return awaitable suspending until the count reaches zero. */
    Awaitable wait() { return Awaitable(*this); }

  private:
    friend class Awaitable;

    EventQueue *queue_;
    std::size_t count_;
    std::vector<std::coroutine_handle<>> waiters_;
};

} // namespace aqsim::sim

#endif // AQSIM_SIM_PROCESS_HH
