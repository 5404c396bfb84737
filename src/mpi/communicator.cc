#include "mpi/communicator.hh"

#include <algorithm>

#include "base/debug.hh"
#include "base/logging.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::mpi
{

namespace
{

/** Does a message from (src, tag) match the pattern (want_src, want_tag)? */
bool
matches(int want_src, int want_tag, Rank src, int tag)
{
    return (want_src == anySource || want_src == static_cast<int>(src)) &&
           (want_tag == anyTag || want_tag == tag);
}

/**
 * The match rule of both arrival-ordered queues, whose entries carry
 * src, tag and msgId. An anySource receive takes the earliest entry
 * whose tag matches. A named receive takes the lowest msgId from that
 * source whose tag matches: a sender's msgIds rise in its send order,
 * and a forked short send can complete before an earlier long one, so
 * arrival order is not send order within one source.
 * @return the entry, or queue.end().
 */
template <typename Queue>
auto
findMatch(Queue &queue, int src, int tag)
{
    auto best = queue.end();
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (!matches(src, tag, it->src, it->tag))
            continue;
        if (src == anySource)
            return it;
        if (best == queue.end() || it->msgId < best->msgId)
            best = it;
    }
    return best;
}

} // namespace

void
RecvAwaitable::await_suspend(std::coroutine_handle<> h)
{
    ep_.postRecv(this, h);
}

RecvRequest::RecvRequest(Endpoint &ep, int src, int tag)
    : ep_(ep), state_(std::make_shared<State>())
{
    ep_.postRequest(state_, src, tag);
}

RecvRequest::~RecvRequest()
{
    if (!state_->completed)
        ep_.cancelRequest(state_);
}

void
RecvRequest::await_suspend(std::coroutine_handle<> h)
{
    AQSIM_ASSERT(!state_->waiter); // single joiner
    state_->waiter = h;
}

Endpoint::Endpoint(Rank rank, std::size_t num_ranks,
                   node::NodeSimulator &node, const EndpointParams &params)
    : rank_(rank), numRanks_(num_ranks), node_(node),
      queue_(node.queue()), params_(params)
{
    AQSIM_ASSERT(rank < num_ranks);
    if (params_.reliable) {
        if (params_.retryTimeout == 0)
            fatal("mpi: reliable mode needs retryTimeout > 0");
        if (params_.retryBackoff < 1.0)
            fatal("mpi: retryBackoff must be >= 1.0 (got %f)",
                  params_.retryBackoff);
        if (params_.maxRetries == 0)
            fatal("mpi: reliable mode needs maxRetries >= 1");
    }
    node_.nic().setRxHandler(
        [this](const net::Packet &pkt) { handleRx(pkt); });
}


stats::Descriptors<Endpoint>
Endpoint::statDescriptors()
{
    static constexpr stats::Descriptor<Endpoint> table[] = {
        {"msgsSent", "messages sent", &Endpoint::messagesSent_},
        {"bytesSent", "message payload bytes sent", &Endpoint::bytesSent_},
        {"msgsRecvd", "messages received and matched",
         &Endpoint::messagesReceived_},
        {"rendezvous", "messages using the RTS/CTS protocol",
         &Endpoint::rendezvousCount_},
        {"unexpectedHits", "receives satisfied from the unexpected queue",
         &Endpoint::unexpectedHits_},
        {"retransmits", "reliable-mode retransmission timeouts",
         &Endpoint::retransmits_},
        {"messageLatency", "ticks from application send to full arrival",
         nullptr, &Endpoint::latency_},
    };
    return table;
}

std::uint32_t
Endpoint::framePayload() const
{
    const auto &nic = node_.nic().params();
    AQSIM_ASSERT(nic.mtu > params_.frameOverhead);
    return nic.mtu - params_.frameOverhead;
}

int
Endpoint::nextCollectiveTag()
{
    // High tag space reserved for collectives; user tags stay below.
    constexpr int collective_base = 1 << 20;
    return collective_base + collectiveTagCounter_++;
}

sim::Process
Endpoint::send(Rank dst, int tag, std::uint64_t bytes)
{
    AQSIM_ASSERT(dst < numRanks_ && dst != rank_);
    AQSIM_ASSERT(tag >= 0);

    // Identity is assigned when the coroutine body first runs (at
    // start()), so msgIds follow program order even when sends are
    // forked.
    MsgHeader hdr;
    hdr.msgId = (static_cast<std::uint64_t>(rank_ + 1) << 40) |
                nextMsgId_++;
    hdr.src = rank_;
    hdr.dst = dst;
    hdr.tag = tag;
    hdr.bytes = bytes;
    hdr.sendTick = queue_.now();
    hdr.seal();

    ++messagesSent_;
    bytesSent_ += bytes;

    // Software overhead plus staging copy into the transport.
    const auto copy = static_cast<Tick>(
        static_cast<double>(bytes) / params_.copyBytesPerNs);
    co_await sim::DelayAwaitable(queue_, params_.sendOverhead + copy);

    const std::uint32_t num_frags =
        fragmentCount(hdr.bytes, framePayload());

    if (bytes <= params_.eagerThreshold) {
        // Eager: fire and forget; local completion semantics. In
        // reliable mode the retransmit timer keeps running in the
        // background until the receiver's Rack arrives.
        transmitFragments(hdr, 0, num_frags, num_frags);
        if (params_.reliable)
            armRetry(trackRetry(hdr, num_frags, false));
        co_return;
    }

    // Rendezvous: announce, wait for the receiver's clear-to-send,
    // then stream the data window by window (stalling on the
    // receiver's flow-control ACK between windows) and block until it
    // has drained onto the wire (MPI_Send completion semantics).
    ++rendezvousCount_;
    sim::Trigger &cts =
        ctsWaiters_.try_emplace(hdr.msgId, queue_).first->second;
    if (params_.reliable)
        armRetry(trackRetry(hdr, num_frags, true));
    sendControl(ControlPayload::Kind::Rts, hdr, dst);

    co_await cts.wait();

    const std::uint32_t window = windowFragments();
    for (std::uint32_t first = 0; first < num_frags;
         first += window) {
        const std::uint32_t last =
            std::min(num_frags, first + window);
        if (params_.reliable) {
            // Point the retry timer at this window before it goes on
            // the wire.
            auto &st = txRetry_.at(hdr.msgId);
            st.awaitingCts = false;
            st.winFirst = first;
            st.winLast = last;
            st.retries = 0;
            st.timeout = params_.retryTimeout;
            armRetry(st);
        }
        transmitFragments(hdr, first, last, num_frags);
        if (last < num_frags) {
            // Stall until the receiver acknowledges this window: only
            // an Ack confirming exactly `last` cumulative fragments
            // releases us (stale re-Acks of earlier boundaries are
            // ignored by handleAck).
            const auto [ack, added] =
                ackWaiters_.try_emplace(hdr.msgId, queue_, last);
            AQSIM_ASSERT(added);
            co_await ack->second.trigger.wait();
        }
    }
    const Tick busy_until = node_.nic().txBusyUntil();
    if (busy_until > queue_.now())
        co_await sim::DelayAwaitable(queue_, busy_until - queue_.now());
}

void
Endpoint::sendControl(ControlPayload::Kind kind, const MsgHeader &header,
                      Rank to, std::uint32_t progress)
{
    node_.nic().send(to, params_.ctrlFrameBytes,
                     controlFrame(ControlPayload(kind, header, progress)));
}

std::uint32_t
Endpoint::windowFragments() const
{
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(params_.ackWindowBytes /
                                      framePayload()));
}

void
Endpoint::transmitFragments(const MsgHeader &header, std::uint32_t first,
                            std::uint32_t last, std::uint32_t num_frags)
{
    const std::uint32_t payload_cap = framePayload();
    for (std::uint32_t i = first; i < last; ++i) {
        // The final fragment carries the remainder.
        const std::uint64_t offset =
            static_cast<std::uint64_t>(i) * payload_cap;
        const auto in_frame = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(header.bytes - offset,
                                    payload_cap));
        node_.nic().send(header.dst, in_frame + params_.frameOverhead,
                         fragmentFrame(FragmentPayload(header, i,
                                                       num_frags)));
    }
}

Endpoint::TxRetryState &
Endpoint::trackRetry(const MsgHeader &header, std::uint32_t num_frags,
                     bool awaiting_cts)
{
    TxRetryState st;
    st.header = header;
    st.numFrags = num_frags;
    st.winFirst = 0;
    st.winLast = num_frags;
    st.awaitingCts = awaiting_cts;
    st.timeout = params_.retryTimeout;
    auto [it, inserted] = txRetry_.emplace(header.msgId, st);
    AQSIM_ASSERT(inserted);
    return it->second;
}

void
Endpoint::armRetry(TxRetryState &st)
{
    cancelRetry(st);
    const std::uint64_t msg_id = st.header.msgId;
    st.timer = queue_.scheduleIn(
        st.timeout, [this, msg_id] { onRetryTimeout(msg_id); },
        sim::Priority::Late);
}

void
Endpoint::cancelRetry(TxRetryState &st)
{
    if (st.timer != sim::EventQueue::invalidEvent) {
        queue_.deschedule(st.timer);
        st.timer = sim::EventQueue::invalidEvent;
    }
}

void
Endpoint::onRetryTimeout(std::uint64_t msg_id)
{
    auto it = txRetry_.find(msg_id);
    if (it == txRetry_.end())
        return; // acknowledged in the meantime
    auto &st = it->second;
    st.timer = sim::EventQueue::invalidEvent;
    if (++st.retries > params_.maxRetries)
        fatal("mpi: rank %u gave up on msg %llu to rank %u after %u "
              "retries; the network is lossier than "
              "retryTimeout/maxRetries can absorb",
              rank_, static_cast<unsigned long long>(msg_id),
              st.header.dst, params_.maxRetries);
    ++retransmits_;
    AQSIM_DPRINTF(Mpi, queue_.now(), "mpi",
                  "rank %u retry %u for msg %llu (%s)", rank_,
                  st.retries, static_cast<unsigned long long>(msg_id),
                  st.awaitingCts ? "RTS" : "window");
    if (st.awaitingCts)
        sendControl(ControlPayload::Kind::Rts, st.header,
                    st.header.dst);
    else
        transmitFragments(st.header, st.winFirst, st.winLast,
                          st.numFrags);
    st.timeout = static_cast<Tick>(static_cast<double>(st.timeout) *
                                   params_.retryBackoff);
    armRetry(st);
}

void
Endpoint::handleRx(const net::Packet &pkt)
{
    AQSIM_ASSERT(frameKind(pkt) != FrameKind::None);
    if (pkt.corrupted) {
        // Link-layer CRC failure: the frame is discarded before any
        // protocol processing. Reliable mode recovers through the
        // sender's retransmit timer; without it the loss is permanent,
        // exactly like a dropped frame.
        ++corruptDropped_;
        return;
    }
    switch (frameKind(pkt)) {
      case FrameKind::Fragment:
        handleFragment(pkt.payloadAs<FragmentPayload>());
        return;
      case FrameKind::Control: {
        const auto ctrl = pkt.payloadAs<ControlPayload>();
        switch (ctrl.kind) {
          case ControlPayload::Kind::Rts:
            handleRts(ctrl.header);
            break;
          case ControlPayload::Kind::Cts:
            handleCts(ctrl.header);
            break;
          case ControlPayload::Kind::Ack:
            handleAck(ctrl);
            break;
          case ControlPayload::Kind::Rack:
            handleRack(ctrl.header);
            break;
        }
        return;
      }
      default:
        break;
    }
    panic("endpoint %u received a frame with unknown payload type",
          rank_);
}

void
Endpoint::handleFragment(const FragmentPayload &frag)
{
    if (params_.reliable &&
        deliveredMsgIds_.count(frag.header.msgId)) {
        // A retransmit of a message we already delivered: the Rack was
        // lost. Re-acknowledge without resurrecting reassembly state
        // (the message must not complete twice).
        sendControl(ControlPayload::Kind::Rack, frag.header,
                    frag.header.src);
        return;
    }

    if (frag.numFrags == 1) {
        // Complete on arrival: a reassembly entry would not outlive
        // this call, so no checkpoint could ever see one.
        frag.checkIntegrity();
        deliverInbound(frag.header);
        return;
    }

    auto [it, inserted] =
        rxBuffers_.try_emplace(frag.header.msgId, frag.header);
    const auto result = it->second.addFragment(frag);
    const std::uint32_t received = it->second.received();
    const std::uint32_t window = windowFragments();

    if (result == RxBuffer::AddResult::Duplicate) {
        // A retransmitted window whose original flow-control Ack was
        // lost: the duplicate of the window's final fragment triggers
        // exactly one repeat Ack so the sender can move on.
        if (frag.header.bytes > params_.eagerThreshold &&
            frag.numFrags > window && received % window == 0 &&
            frag.fragIndex + 1 == received)
            sendControl(ControlPayload::Kind::Ack, frag.header,
                        frag.header.src, received);
        return;
    }

    if (result == RxBuffer::AddResult::Complete) {
        const MsgHeader header = it->second.header();
        rxBuffers_.erase(it);
        ackProgress_.erase(header.msgId);
        deliverInbound(header);
        return;
    }
    // Flow control: acknowledge every completed transport window of a
    // multi-window rendezvous message so the sender can release the
    // next one (eager messages are below the window size and are
    // never acknowledged).
    if (frag.header.bytes > params_.eagerThreshold &&
        frag.numFrags > window && received % window == 0) {
        auto &acked = ackProgress_[frag.header.msgId];
        if (received > acked) {
            acked = received;
            sendControl(ControlPayload::Kind::Ack, frag.header,
                        frag.header.src, received);
        }
    }
}

void
Endpoint::deliverInbound(const MsgHeader &header)
{
    if (params_.reliable) {
        deliveredMsgIds_.insert(header.msgId);
        sendControl(ControlPayload::Kind::Rack, header, header.src);
    }
    messageComplete(header);
}

void
Endpoint::handleAck(const ControlPayload &ctrl)
{
    const MsgHeader &header = ctrl.header;
    AQSIM_DPRINTF(Mpi, queue_.now(), "mpi",
                  "rank %u got window ACK msg=%llu progress=%u",
                  rank_, static_cast<unsigned long long>(header.msgId),
                  ctrl.progress);
    auto it = ackWaiters_.find(header.msgId);
    if (it == ackWaiters_.end()) {
        if (params_.reliable)
            return; // duplicate of an Ack we already consumed
        panic("endpoint %u got ACK for unknown msg %llu", rank_,
              static_cast<unsigned long long>(header.msgId));
    }
    if (ctrl.progress != it->second.expected) {
        // A repeat Ack for a boundary this sender already crossed
        // (the retransmit hole-fill and the trailing duplicate of a
        // window's last fragment each generate one). Releasing the
        // current window on it would let the stream run ahead of the
        // retry state and strand holes the timer never re-covers.
        if (params_.reliable)
            return;
        panic("endpoint %u got ACK for msg %llu at progress %u while "
              "waiting for %u",
              rank_, static_cast<unsigned long long>(header.msgId),
              ctrl.progress, it->second.expected);
    }
    it->second.trigger.fire();
    ackWaiters_.erase(it);
}

void
Endpoint::handleRack(const MsgHeader &header)
{
    AQSIM_DPRINTF(Mpi, queue_.now(), "mpi",
                  "rank %u got delivery ACK msg=%llu",
                  rank_, static_cast<unsigned long long>(header.msgId));
    auto it = txRetry_.find(header.msgId);
    if (it == txRetry_.end())
        return; // duplicate Rack; retry state already retired
    cancelRetry(it->second);
    txRetry_.erase(it);
}

void
Endpoint::messageComplete(const MsgHeader &header)
{
    AQSIM_ASSERT(header.dst == rank_);
    Message msg;
    msg.src = header.src;
    msg.tag = header.tag;
    msg.bytes = header.bytes;
    msg.completedAt = queue_.now();
    msg.sentAt = header.sendTick;
    AQSIM_ASSERT(msg.completedAt >= header.sendTick);
    latency_.sample(msg.completedAt - header.sendTick);

    // Pass 1: a recv bound to exactly this rendezvous message.
    for (std::size_t i = 0; i < posted_.size(); ++i) {
        if (posted_[i].boundMsgId == header.msgId) {
            PostedRecv rec = posted_[i];
            posted_.erase(posted_.begin() +
                          static_cast<std::ptrdiff_t>(i));
            finishRecv(rec, msg);
            return;
        }
    }
    // Pass 2: the earliest-posted unbound recv that matches.
    for (std::size_t i = 0; i < posted_.size(); ++i) {
        if (posted_[i].boundMsgId == 0 &&
            matches(posted_[i].src, posted_[i].tag, header.src,
                    header.tag)) {
            PostedRecv rec = posted_[i];
            posted_.erase(posted_.begin() +
                          static_cast<std::ptrdiff_t>(i));
            finishRecv(rec, msg);
            return;
        }
    }
    // No match: store as unexpected.
    unexpected_.push_back(Unexpected{msg, header.msgId});
}

void
Endpoint::handleRts(const MsgHeader &header)
{
    AQSIM_DPRINTF(Mpi, queue_.now(), "mpi",
                  "rank %u got RTS msg=%llu from %u (%llu bytes)",
                  rank_, static_cast<unsigned long long>(header.msgId),
                  header.src,
                  static_cast<unsigned long long>(header.bytes));
    // Duplicate-announcement guards: the fault layer can replicate an
    // RTS frame, and reliable mode retransmits one whose CTS was lost.
    // A duplicate must never bind a second receive.
    if (deliveredMsgIds_.count(header.msgId)) {
        // Ancient duplicate: the message has long since completed.
        sendControl(ControlPayload::Kind::Rack, header, header.src);
        return;
    }
    for (const auto &rec : posted_) {
        if (rec.boundMsgId == header.msgId) {
            // Our CTS was lost; the sender is asking again.
            sendControl(ControlPayload::Kind::Cts, header, header.src);
            return;
        }
    }
    if (rxBuffers_.count(header.msgId))
        return; // data already flowing; the handshake succeeded
    if (std::any_of(pendingRts_.begin(), pendingRts_.end(),
                    [&](const MsgHeader &h) {
                        return h.msgId == header.msgId;
                    }))
        return; // announcement already queued for a future recv
    // Bind the earliest matching unbound posted recv, if any.
    for (auto &rec : posted_) {
        if (rec.boundMsgId == 0 &&
            matches(rec.src, rec.tag, header.src, header.tag)) {
            rec.boundMsgId = header.msgId;
            sendControl(ControlPayload::Kind::Cts, header, header.src);
            return;
        }
    }
    pendingRts_.push_back(header);
}

void
Endpoint::handleCts(const MsgHeader &header)
{
    AQSIM_DPRINTF(Mpi, queue_.now(), "mpi",
                  "rank %u got CTS msg=%llu",
                  rank_, static_cast<unsigned long long>(header.msgId));
    auto it = ctsWaiters_.find(header.msgId);
    if (it == ctsWaiters_.end()) {
        if (params_.reliable)
            return; // duplicate CTS; the handshake already completed
        panic("endpoint %u got CTS for unknown msg %llu", rank_,
              static_cast<unsigned long long>(header.msgId));
    }
    if (params_.reliable) {
        // Stop the RTS retry clock; the send coroutine re-arms the
        // timer per data window once it resumes.
        auto rit = txRetry_.find(header.msgId);
        if (rit != txRetry_.end()) {
            rit->second.awaitingCts = false;
            rit->second.retries = 0;
            rit->second.timeout = params_.retryTimeout;
            cancelRetry(rit->second);
        }
    }
    it->second.fire();
    ctsWaiters_.erase(it);
}

void
Endpoint::finishRecv(PostedRecv &recv, const Message &msg)
{
    AQSIM_DPRINTF(Mpi, queue_.now(), "mpi",
                  "rank %u matched msg from %u tag=%d (%llu bytes)",
                  rank_, msg.src, msg.tag,
                  static_cast<unsigned long long>(msg.bytes));
    ++messagesReceived_;
    if (recv.request) {
        // Non-blocking receive: complete the shared state after the
        // software overhead; resume a joiner if one is waiting.
        auto state = recv.request;
        Message completed = msg;
        queue_.scheduleIn(params_.recvOverhead, [state, completed] {
            state->completed = true;
            state->message = completed;
            if (state->waiter)
                state->waiter.resume();
        });
        return;
    }
    recv.awaitable->result_ = msg;
    const auto h = recv.waiter;
    queue_.scheduleIn(params_.recvOverhead, [h] { h.resume(); });
}

void
Endpoint::postRecv(RecvAwaitable *aw, std::coroutine_handle<> h)
{
    PostedRecv rec;
    rec.src = aw->src_;
    rec.tag = aw->tag_;
    rec.awaitable = aw;
    rec.waiter = h;
    postCommon(std::move(rec));
}

void
Endpoint::postRequest(std::shared_ptr<RecvRequest::State> state,
                      int src, int tag)
{
    PostedRecv rec;
    rec.src = src;
    rec.tag = tag;
    rec.request = std::move(state);
    postCommon(std::move(rec));
}

void
Endpoint::cancelRequest(
    const std::shared_ptr<RecvRequest::State> &state)
{
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if (it->request == state) {
            posted_.erase(it);
            return;
        }
    }
}

void
Endpoint::postCommon(PostedRecv rec)
{
    // 1. Already-completed unexpected message?
    const auto unexp = findMatch(unexpected_, rec.src, rec.tag);
    if (unexp != unexpected_.end()) {
        const Message msg = *unexp;
        unexpected_.erase(unexp);
        ++unexpectedHits_;
        finishRecv(rec, msg);
        return;
    }

    // 2. Pending rendezvous announcement?
    const auto rts = findMatch(pendingRts_, rec.src, rec.tag);
    if (rts != pendingRts_.end()) {
        const MsgHeader header = *rts;
        pendingRts_.erase(rts);
        rec.boundMsgId = header.msgId;
        posted_.push_back(rec);
        sendControl(ControlPayload::Kind::Cts, header, header.src);
        return;
    }

    // 3. Wait for a future arrival.
    posted_.push_back(rec);
}

bool
Endpoint::probe(int src, int tag) const
{
    return findMatch(unexpected_, src, tag) != unexpected_.end();
}

void
Endpoint::serialize(ckpt::Writer &w) const
{
    w.u32(rank_);
    w.u64(numRanks_);

    w.u64(nextMsgId_);
    w.i32(collectiveTagCounter_);

    w.u32(static_cast<std::uint32_t>(rxBuffers_.size()));
    for (const auto &[msg_id, rx] : rxBuffers_)
        rx.serialize(w);

    w.u32(static_cast<std::uint32_t>(unexpected_.size()));
    for (const Unexpected &u : unexpected_) {
        w.u64(u.msgId);
        u.serialize(w);
    }

    w.u32(static_cast<std::uint32_t>(pendingRts_.size()));
    for (const MsgHeader &h : pendingRts_)
        h.serialize(w);

    // Posted receives: the match pattern and rendezvous binding are
    // state; the suspended coroutine itself is reconstructed by replay.
    w.u32(static_cast<std::uint32_t>(posted_.size()));
    for (const PostedRecv &rec : posted_) {
        w.i32(rec.src);
        w.i32(rec.tag);
        w.u64(rec.boundMsgId);
    }

    w.u32(static_cast<std::uint32_t>(ctsWaiters_.size()));
    for (const auto &[msg_id, trig] : ctsWaiters_)
        w.u64(msg_id);

    w.u32(static_cast<std::uint32_t>(ackWaiters_.size()));
    for (const auto &[msg_id, waiter] : ackWaiters_) {
        w.u64(msg_id);
        w.u32(waiter.expected);
    }

    w.u32(static_cast<std::uint32_t>(ackProgress_.size()));
    for (const auto &[msg_id, count] : ackProgress_) {
        w.u64(msg_id);
        w.u32(count);
    }

    // Retry table: everything but the raw timer event id (a slab
    // handle; its firing tick is already captured by the event queue).
    w.u32(static_cast<std::uint32_t>(txRetry_.size()));
    for (const auto &[msg_id, st] : txRetry_) {
        st.header.serialize(w);
        w.u32(st.numFrags);
        w.u32(st.winFirst);
        w.u32(st.winLast);
        w.boolean(st.awaitingCts);
        w.u32(st.retries);
        w.u64(st.timeout);
        w.boolean(st.timer != sim::EventQueue::invalidEvent);
    }

    w.u32(static_cast<std::uint32_t>(deliveredMsgIds_.size()));
    for (std::uint64_t msg_id : deliveredMsgIds_)
        w.u64(msg_id);

    w.u64(messagesSent_);
    w.u64(messagesReceived_);
    w.u64(rendezvousCount_);
    w.u64(retransmits_);
    w.u64(corruptDropped_);
}

} // namespace aqsim::mpi
