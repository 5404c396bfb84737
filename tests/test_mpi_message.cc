/** Tests for message headers, checksums, fragmentation, reassembly. */

#include <gtest/gtest.h>

#include "mpi/message.hh"

using namespace aqsim;
using namespace aqsim::mpi;

namespace
{

MsgHeader
makeHeader(std::uint64_t id = 1, std::uint64_t bytes = 1000)
{
    MsgHeader h;
    h.msgId = id;
    h.src = 0;
    h.dst = 1;
    h.tag = 7;
    h.bytes = bytes;
    h.sendTick = 3;
    h.seal();
    return h;
}

} // namespace

TEST(MsgHeader, SealAndVerify)
{
    MsgHeader h = makeHeader();
    EXPECT_TRUE(h.verify());
}

TEST(MsgHeader, TamperedFieldsFailVerification)
{
    MsgHeader h = makeHeader();
    h.bytes += 1;
    EXPECT_FALSE(h.verify());
    h = makeHeader();
    h.tag = 8;
    EXPECT_FALSE(h.verify());
    h = makeHeader();
    h.sendTick += 1;
    EXPECT_FALSE(h.verify());
}

TEST(MsgHeader, DistinctMessagesHaveDistinctChecksums)
{
    EXPECT_NE(makeHeader(1).checksum, makeHeader(2).checksum);
    EXPECT_NE(makeHeader(1, 100).checksum,
              makeHeader(1, 200).checksum);
}

TEST(FragmentCount, RoundsUpAndHandlesZero)
{
    EXPECT_EQ(fragmentCount(0, 1000), 1u);
    EXPECT_EQ(fragmentCount(1, 1000), 1u);
    EXPECT_EQ(fragmentCount(1000, 1000), 1u);
    EXPECT_EQ(fragmentCount(1001, 1000), 2u);
    EXPECT_EQ(fragmentCount(10000, 1000), 10u);
}

TEST(RxBuffer, SingleFragmentCompletesImmediately)
{
    MsgHeader h = makeHeader();
    RxBuffer buf(h);
    FragmentPayload frag(h, 0, 1);
    EXPECT_EQ(buf.addFragment(frag), RxBuffer::AddResult::Complete);
    EXPECT_EQ(buf.received(), 1u);
}

TEST(RxBuffer, MultiFragmentCompletesOnLast)
{
    MsgHeader h = makeHeader();
    RxBuffer buf(h);
    EXPECT_EQ(buf.addFragment(FragmentPayload(h, 0, 3)),
              RxBuffer::AddResult::Progress);
    EXPECT_EQ(buf.addFragment(FragmentPayload(h, 2, 3)),
              RxBuffer::AddResult::Progress);
    EXPECT_EQ(buf.addFragment(FragmentPayload(h, 1, 3)),
              RxBuffer::AddResult::Complete);
}

TEST(RxBuffer, OutOfOrderFragmentsAccepted)
{
    MsgHeader h = makeHeader();
    RxBuffer buf(h);
    EXPECT_EQ(buf.addFragment(FragmentPayload(h, 3, 4)),
              RxBuffer::AddResult::Progress);
    EXPECT_EQ(buf.addFragment(FragmentPayload(h, 0, 4)),
              RxBuffer::AddResult::Progress);
    EXPECT_EQ(buf.addFragment(FragmentPayload(h, 2, 4)),
              RxBuffer::AddResult::Progress);
    EXPECT_EQ(buf.addFragment(FragmentPayload(h, 1, 4)),
              RxBuffer::AddResult::Complete);
}

TEST(RxBuffer, DuplicateFragmentsIgnoredNotFatal)
{
    // Retransmits and fault-layer duplication legitimately replay
    // fragments; the buffer must absorb them without double-counting.
    MsgHeader h = makeHeader();
    RxBuffer buf(h);
    EXPECT_EQ(buf.addFragment(FragmentPayload(h, 0, 2)),
              RxBuffer::AddResult::Progress);
    EXPECT_EQ(buf.addFragment(FragmentPayload(h, 0, 2)),
              RxBuffer::AddResult::Duplicate);
    EXPECT_EQ(buf.received(), 1u);
    EXPECT_EQ(buf.addFragment(FragmentPayload(h, 1, 2)),
              RxBuffer::AddResult::Complete);
    // A replay after completion is still just a duplicate.
    EXPECT_EQ(buf.addFragment(FragmentPayload(h, 1, 2)),
              RxBuffer::AddResult::Duplicate);
    EXPECT_EQ(buf.received(), 2u);
}

TEST(RxBufferDeath, CorruptChecksumPanics)
{
    MsgHeader h = makeHeader();
    RxBuffer buf(h);
    MsgHeader bad = h;
    bad.checksum ^= 1;
    EXPECT_DEATH(buf.addFragment(FragmentPayload(bad, 0, 2)),
                 "corrupt fragment");
}
