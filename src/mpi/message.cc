#include "mpi/message.hh"

#include "base/logging.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::mpi
{

namespace
{

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

} // namespace

std::uint64_t
MsgHeader::expectedChecksum() const
{
    std::uint64_t h = mix(msgId);
    h = mix(h ^ (static_cast<std::uint64_t>(src) << 32 | dst));
    h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(tag)));
    h = mix(h ^ bytes);
    h = mix(h ^ sendTick);
    return h;
}

void
MsgHeader::seal()
{
    checksum = expectedChecksum();
}

bool
MsgHeader::verify() const
{
    return checksum == expectedChecksum();
}

void
MsgHeader::serialize(ckpt::Writer &w) const
{
    w.u64(msgId);
    w.u32(src);
    w.u32(dst);
    w.i32(tag);
    w.u64(bytes);
    w.u64(sendTick);
    w.u64(checksum);
}

void
Message::serialize(ckpt::Writer &w) const
{
    w.u32(src);
    w.i32(tag);
    w.u64(bytes);
    w.u64(completedAt);
    w.u64(sentAt);
}

void
RxBuffer::serialize(ckpt::Writer &w) const
{
    header_.serialize(w);
    w.u32(numFrags_);
    w.u32(received_);
    for (std::uint32_t i = 0; i < numFrags_; ++i)
        w.boolean(seen_[i]);
}

void
FragmentPayload::checkIntegrity() const
{
    if (!header.verify())
        panic("corrupt fragment checksum for msg %llu",
              static_cast<unsigned long long>(header.msgId));
    AQSIM_ASSERT(fragIndex < numFrags);
}

RxBuffer::RxBuffer(const MsgHeader &header)
    : header_(header), numFrags_(0)
{
    // numFrags_ is learned from the first fragment seen.
}

RxBuffer::AddResult
RxBuffer::addFragment(const FragmentPayload &frag)
{
    AQSIM_ASSERT(frag.header.msgId == header_.msgId);
    frag.checkIntegrity();
    if (numFrags_ == 0) {
        numFrags_ = frag.numFrags;
        seen_.assign(numFrags_, false);
    }
    AQSIM_ASSERT(frag.numFrags == numFrags_);
    if (seen_[frag.fragIndex])
        return AddResult::Duplicate;
    seen_[frag.fragIndex] = true;
    ++received_;
    return received_ == numFrags_ ? AddResult::Complete
                                  : AddResult::Progress;
}

std::uint32_t
fragmentCount(std::uint64_t bytes, std::uint32_t mtu)
{
    AQSIM_ASSERT(mtu > 0);
    if (bytes == 0)
        return 1; // zero-byte messages still occupy one frame
    return static_cast<std::uint32_t>((bytes + mtu - 1) / mtu);
}

} // namespace aqsim::mpi
