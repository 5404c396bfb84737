/**
 * @file
 * Message-passing endpoint: the guest-side communication library.
 *
 * Endpoint models what LAM/MPI over TCP/IP provides to the benchmark
 * processes in the paper: rank-addressed, tag-matched messages with
 * blocking semantics, an eager protocol for short messages and a
 * rendezvous (RTS/CTS) protocol for long ones. Rendezvous handshakes
 * are real control packets through the simulated network, which is what
 * makes fine-grained benchmarks (NAS IS) latency-sensitive — the effect
 * the paper's Section 6 worst case hinges on.
 *
 * Usage inside a workload coroutine:
 *
 *     co_await ep.send(dst, tag, bytes);            // blocking send
 *     Message m = co_await ep.recv(src, tag);       // blocking recv
 *     auto s = ep.send(dst, tag, bytes); s.start(); // async send
 *     ...                                           // overlap
 *     co_await std::move(s);                        // join
 */

#ifndef AQSIM_MPI_COMMUNICATOR_HH
#define AQSIM_MPI_COMMUNICATOR_HH

#include <coroutine>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "base/types.hh"
#include "mpi/message.hh"
#include "node/node_simulator.hh"
#include "sim/process.hh"
#include "stats/stats.hh"

namespace aqsim::ckpt
{
class Writer;
} // namespace aqsim::ckpt

namespace aqsim::mpi
{

class Endpoint;

/**
 * Awaitable returned by Endpoint::recv(). Suspends the caller until a
 * matching message has fully arrived, then resumes it after the
 * receive-side software overhead and yields the Message.
 */
class RecvAwaitable
{
  public:
    RecvAwaitable(Endpoint &ep, int src, int tag)
        : ep_(ep), src_(src), tag_(tag)
    {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    Message await_resume() const noexcept { return result_; }

  private:
    friend class Endpoint;

    Endpoint &ep_;
    int src_;
    int tag_;
    Message result_;
};

/**
 * A non-blocking receive (MPI_Irecv): posting registers the match
 * immediately; awaiting joins it. The request object owns the posted
 * state and must outlive the await.
 *
 *     auto req = ep.irecv(src, tag);   // posted now
 *     ...unrelated work...
 *     mpi::Message m = co_await req;   // join
 */
class RecvRequest
{
  public:
    RecvRequest(Endpoint &ep, int src, int tag);

    RecvRequest(const RecvRequest &) = delete;
    RecvRequest &operator=(const RecvRequest &) = delete;
    RecvRequest(RecvRequest &&) = delete;
    RecvRequest &operator=(RecvRequest &&) = delete;
    ~RecvRequest();

    /** @return true once the message has arrived and matched. */
    bool ready() const { return state_->completed; }

    bool await_ready() const noexcept { return state_->completed; }
    void await_suspend(std::coroutine_handle<> h);
    Message await_resume() const noexcept { return state_->message; }

  private:
    friend class Endpoint;

    /** Heap state shared with the endpoint's posted list. */
    struct State
    {
        bool completed = false;
        Message message;
        std::coroutine_handle<> waiter;
    };

    Endpoint &ep_;
    std::shared_ptr<State> state_;
};

/** Protocol and software-overhead parameters (LAM/TCP-flavoured). */
struct EndpointParams
{
    /** Messages above this use the rendezvous protocol. */
    std::uint64_t eagerThreshold = 64 * 1024;
    /**
     * TCP-style flow-control window for rendezvous data: the sender
     * transmits this many bytes, then stalls until the receiver's
     * ACK control frame arrives. Long transfers therefore take one
     * network round trip per window — the dependence chains that
     * amplify quantum-induced latency error (NAS IS worst case).
     */
    std::uint64_t ackWindowBytes = 64 * 1024;
    /** Send-side software overhead per message. */
    Tick sendOverhead = 400;
    /** Receive-side software overhead per message. */
    Tick recvOverhead = 400;
    /** Memory staging bandwidth for send-side copies (bytes/ns). */
    double copyBytesPerNs = 6.0;
    /** Per-frame protocol header bytes (Ethernet + IP + TCP). */
    std::uint32_t frameOverhead = 78;
    /** Size of RTS/CTS control frames. */
    std::uint32_t ctrlFrameBytes = 80;
    /**
     * Reliable delivery: retransmit unacknowledged messages until the
     * receiver's Rack arrives, suppress duplicates at the receiver.
     * Required for workloads to complete on a lossy (fault-injected)
     * network; a perfect network never retransmits, so leaving this on
     * costs only the timer bookkeeping.
     */
    bool reliable = false;
    /** Initial retransmit timeout (ticks) in reliable mode. */
    Tick retryTimeout = microseconds(50);
    /** Multiplicative backoff applied to the timeout per retry. */
    double retryBackoff = 2.0;
    /** Retries per message before the run is declared failed. */
    unsigned maxRetries = 20;
};

/**
 * One rank's communication endpoint, bound to its node's NIC and event
 * queue.
 */
class Endpoint
{
  public:
    /** @param params shared by every endpoint of a cluster (the
     *        cluster's copy); must outlive the endpoint. */
    Endpoint(Rank rank, std::size_t num_ranks,
             node::NodeSimulator &node, const EndpointParams &params);

    Rank rank() const { return rank_; }
    std::size_t numRanks() const { return numRanks_; }
    sim::EventQueue &queue() { return queue_; }
    const EndpointParams &params() const { return params_; }
    /** A coroutine taking an Endpoint & (send, the collectives) gets
     * its frame from this rank's node (sim/frame_pool.hh). */
    sim::FramePool &framePool() { return node_.framePool(); }

    /**
     * Blocking send of @p bytes to rank @p dst with tag @p tag.
     * Completes (resumes the caller) when the message has been handed
     * off locally (eager) or fully transmitted after the rendezvous
     * handshake (long messages) — MPI_Send semantics.
     */
    sim::Process send(Rank dst, int tag, std::uint64_t bytes);

    /** Blocking receive matching (src|anySource, tag|anyTag). */
    RecvAwaitable
    recv(int src, int tag)
    {
        return RecvAwaitable(*this, src, tag);
    }

    /**
     * Non-blocking receive: posts the match immediately, join with
     * co_await on the returned request. Destroying an unmatched
     * request cancels the posted receive.
     */
    RecvRequest
    irecv(int src, int tag)
    {
        return RecvRequest(*this, src, tag);
    }

    /**
     * Non-consuming probe (MPI_Iprobe): @return true if a completed,
     * still-unmatched message matching (src|anySource, tag|anyTag) is
     * waiting in the unexpected queue.
     */
    bool probe(int src, int tag) const;

    /**
     * Allocate the tag for the next collective operation. All ranks
     * execute the same collective sequence (SPMD), so counters agree
     * cluster-wide.
     */
    int nextCollectiveTag();

    /** Diagnostics for deadlock reports. */
    std::size_t postedRecvCount() const { return posted_.size(); }
    std::size_t unexpectedCount() const { return unexpected_.size(); }

    /** Every endpoint's stats (a node's mpi.*), over its counters. */
    static stats::Descriptors<Endpoint> statDescriptors();

    /** Lifetime message counters. */
    std::uint64_t messagesSent() const { return messagesSent_; }
    std::uint64_t messagesReceived() const { return messagesReceived_; }
    std::uint64_t rendezvousCount() const { return rendezvousCount_; }

    /**
     * Checkpoint support: persist the full protocol state — the
     * msgId counter, reassembly buffers, unexpected/pending queues,
     * posted match patterns, rendezvous and flow-control waiter sets,
     * and the reliable-delivery retry table. Coroutine handles and
     * event ids are code, not data; they are reconstructed by
     * deterministic replay and this serialization drives the
     * divergence self-check.
     */
    void serialize(ckpt::Writer &w) const;

    /** Retransmission events fired in reliable mode. */
    std::uint64_t retransmits() const { return retransmits_; }
    /** Frames discarded for a set corrupted flag (link CRC failure). */
    std::uint64_t corruptDropped() const { return corruptDropped_; }
    /** Messages still awaiting a delivery acknowledgment. */
    std::size_t retryBacklog() const { return txRetry_.size(); }

  private:
    friend class RecvAwaitable;
    friend class RecvRequest;

    struct PostedRecv
    {
        int src;
        int tag;
        /** Non-zero once bound to a specific rendezvous message. */
        std::uint64_t boundMsgId = 0;
        /** Blocking-recv completion target. */
        RecvAwaitable *awaitable = nullptr;
        std::coroutine_handle<> waiter;
        /** Non-blocking-recv completion target. */
        std::shared_ptr<RecvRequest::State> request;
    };

    /**
     * Reliable-mode sender bookkeeping for one in-flight message: what
     * to retransmit when the retry timer expires, and how often it has
     * already fired. Lives from first transmission until the receiver's
     * Rack arrives.
     */
    struct TxRetryState
    {
        MsgHeader header;
        std::uint32_t numFrags = 0;
        /** Fragment window [winFirst, winLast) to retransmit. */
        std::uint32_t winFirst = 0;
        std::uint32_t winLast = 0;
        /** Still in the RTS/CTS handshake: retransmit the RTS. */
        bool awaitingCts = false;
        unsigned retries = 0;
        /** Current timeout (grows by retryBackoff per retry). */
        Tick timeout = 0;
        sim::EventQueue::EventId timer = sim::EventQueue::invalidEvent;
    };

    /** NIC receive handler: dispatch on the frame's payload kind. */
    void handleRx(const net::Packet &pkt);
    void handleFragment(const FragmentPayload &frag);
    /** Every fragment of a message is in: acknowledge and complete. */
    void deliverInbound(const MsgHeader &header);
    void handleRts(const MsgHeader &header);
    void handleCts(const MsgHeader &header);
    void handleAck(const ControlPayload &ctrl);
    void handleRack(const MsgHeader &header);

    /** Register retry state for a just-transmitted message. */
    TxRetryState &trackRetry(const MsgHeader &header,
                             std::uint32_t num_frags, bool awaiting_cts);
    /** (Re)arm the retry timer for @p st at now() + st.timeout. */
    void armRetry(TxRetryState &st);
    /** Cancel a pending retry timer, if any. */
    void cancelRetry(TxRetryState &st);
    /** Retry timer expired: retransmit the outstanding RTS/window. */
    void onRetryTimeout(std::uint64_t msg_id);

    /** A message fully arrived: match it or store it as unexpected. */
    void messageComplete(const MsgHeader &header);

    /** Register a posted receive (called by RecvAwaitable). */
    void postRecv(RecvAwaitable *aw, std::coroutine_handle<> h);

    /** Register a non-blocking receive (called by RecvRequest). */
    void postRequest(std::shared_ptr<RecvRequest::State> state, int src,
                     int tag);

    /** Drop an unmatched non-blocking receive (request destroyed). */
    void cancelRequest(const std::shared_ptr<RecvRequest::State> &state);

    /**
     * Common posting path: try the unexpected queue, then pending
     * RTS announcements, else append to the posted list.
     */
    void postCommon(PostedRecv rec);

    /** Complete a posted recv with a message at now()+recvOverhead. */
    void finishRecv(PostedRecv &recv, const Message &msg);

    /** Send an RTS/CTS control frame. */
    void sendControl(ControlPayload::Kind kind, const MsgHeader &header,
                     Rank to, std::uint32_t progress = 0);

    /** Enqueue fragments [first, last) of a message on the NIC. */
    void transmitFragments(const MsgHeader &header, std::uint32_t first,
                           std::uint32_t last, std::uint32_t num_frags);

    /** Fragments per flow-control window. */
    std::uint32_t windowFragments() const;

    /** Fragmented payload capacity per frame. */
    std::uint32_t framePayload() const;

    Rank rank_;
    std::size_t numRanks_;
    node::NodeSimulator &node_;
    sim::EventQueue &queue_;
    const EndpointParams &params_;

    /** Low bits of the next msgId; rises in this rank's send order. */
    std::uint64_t nextMsgId_ = 1;
    int collectiveTagCounter_ = 0;

    /** In-flight inbound reassembly, by msgId. */
    std::map<std::uint64_t, RxBuffer> rxBuffers_;
    /** A completed message no posted receive has matched yet. */
    struct Unexpected : Message
    {
        /** The message's msgId, for the named-receive match order. */
        std::uint64_t msgId = 0;
    };

    /*
     * The three match lists hold a few entries at most and are empty
     * on most ranks most of the time; an empty vector allocates
     * nothing. A match erases by position, so the rest keep order.
     */
    /** Completed unmatched messages, in completion order. */
    std::vector<Unexpected> unexpected_;
    /** RTS received with no matching recv posted yet, in arrival order. */
    std::vector<MsgHeader> pendingRts_;
    /** Posted receives in post order. */
    std::vector<PostedRecv> posted_;
    /*
     * The waiter maps hold their triggers by value: a map node never
     * moves, so the send coroutine awaits the trigger where it lies.
     */
    /** Senders blocked waiting for CTS, by msgId. */
    std::map<std::uint64_t, sim::Trigger> ctsWaiters_;
    /** A sender stalled on one flow-control window boundary. */
    struct AckWaiter
    {
        explicit AckWaiter(sim::EventQueue &queue, std::uint32_t last)
            : trigger(queue), expected(last)
        {}

        sim::Trigger trigger;
        /**
         * Cumulative fragment count the Ack must confirm. Under loss
         * a retransmitted window can generate repeated Acks for an
         * already-crossed boundary; firing on one of those would
         * release the next window while this one still has holes the
         * retry timer no longer covers.
         */
        std::uint32_t expected = 0;
    };

    /** Senders blocked waiting for a window ACK, by msgId. */
    std::map<std::uint64_t, AckWaiter> ackWaiters_;
    /** Inbound fragment counts pending the next window ACK. */
    std::map<std::uint64_t, std::uint32_t> ackProgress_;
    /** Reliable mode: unacknowledged outbound messages, by msgId. */
    std::map<std::uint64_t, TxRetryState> txRetry_;
    /** Reliable mode: fully delivered inbound msgIds (dup filter). */
    std::set<std::uint64_t> deliveredMsgIds_;

    /** Message counters, read by the mpi.* stat descriptors. */
    std::uint64_t messagesSent_ = 0;
    std::uint64_t bytesSent_ = 0;
    std::uint64_t messagesReceived_ = 0;
    std::uint64_t rendezvousCount_ = 0;
    std::uint64_t unexpectedHits_ = 0;
    std::uint64_t retransmits_ = 0;
    std::uint64_t corruptDropped_ = 0;
    /** Send-to-arrival ticks of every fully arrived message. */
    stats::Log2Counts latency_;
};

} // namespace aqsim::mpi

#endif // AQSIM_MPI_COMMUNICATOR_HH
