/**
 * Checkpoint file hardening tests: bit flips, truncation, stale
 * versions and foreign endianness must all be rejected with a
 * structured error naming the damaged section, and recovery must fall
 * back past a corrupt newest file to the previous good checkpoint.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/manager.hh"
#include "engine/sequential_engine.hh"
#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::ckpt;

namespace
{

/** Byte offsets of the container header fields (see ckpt_io.hh). */
constexpr std::size_t versionOffset = 8;
constexpr std::size_t endianOffset = 12;

/** Produce a directory of real checkpoints from a small run. */
struct CorruptFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        // Per-test directory: ctest runs each test in its own process,
        // concurrently — a shared path would race SetUp/TearDown.
        const std::string test_name = ::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name();
        dir = (std::filesystem::temp_directory_path() /
               ("aqsim_ckpt_corrupt_" + test_name))
                  .string();
        std::filesystem::remove_all(dir);

        auto workload = workloads::makeWorkload("burst", 4, 0.05);
        auto policy = core::parsePolicy("fixed:1us");
        engine::EngineOptions options;
        options.checkpointEvery = 100;
        options.checkpointDir = dir;
        options.checkpointKeepLast = 0;
        engine::SequentialEngine engine(options);
        result = engine.run(harness::defaultCluster(4, 7), *workload,
                            *policy);

        files.clear();
        for (const auto &entry :
             std::filesystem::directory_iterator(dir))
            files.push_back(entry.path().string());
        std::sort(files.begin(), files.end());
        ASSERT_GE(files.size(), 2u);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    std::vector<std::uint8_t>
    readImage(const std::string &path)
    {
        std::vector<std::uint8_t> raw;
        CkptError error;
        EXPECT_TRUE(readFile(path, raw, error)) << error.str();
        return raw;
    }

    void
    writeRaw(const std::string &path,
             const std::vector<std::uint8_t> &raw)
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(raw.data(), 1, raw.size(), f);
        std::fclose(f);
    }

    std::string dir;
    std::vector<std::string> files;
    engine::RunResult result;
};

TEST_F(CorruptFixture, IntactFileDecodes)
{
    CheckpointImage image;
    CkptError error;
    ASSERT_TRUE(decodeImage(readImage(files.back()), image, error))
        << error.str();
    EXPECT_EQ(image.engine, "sequential");
    EXPECT_GT(image.quantumIndex, 0u);
    EXPECT_NE(image.find(sectionNodes), nullptr);
    EXPECT_NE(image.find(sectionMpi), nullptr);
}

TEST_F(CorruptFixture, BitFlipIsRejectedNamingTheSection)
{
    auto raw = readImage(files.back());
    // Flip one bit deep inside the payload: the damaged section's own
    // CRC must catch it and the error must say which section died.
    raw[raw.size() / 2] ^= 0x40;
    CheckpointImage image;
    CkptError error;
    EXPECT_FALSE(decodeImage(raw, image, error));
    EXPECT_FALSE(error.section.empty());
    EXPECT_NE(error.str().find("CRC mismatch"), std::string::npos)
        << error.str();
}

TEST_F(CorruptFixture, TruncationIsRejected)
{
    auto raw = readImage(files.back());
    raw.resize(raw.size() - 7);
    CheckpointImage image;
    CkptError error;
    EXPECT_FALSE(decodeImage(raw, image, error));
    EXPECT_NE(error.str().find("truncated"), std::string::npos)
        << error.str();
}

TEST_F(CorruptFixture, StaleVersionIsRejected)
{
    // Version 1 is the previous layout (a dense per-destination send
    // seq in the mpi section): it must fail up front, not as a replay
    // divergence.
    for (const std::uint8_t version : {1, 99}) {
        auto raw = readImage(files.back());
        raw[versionOffset] = version;
        CheckpointImage image;
        CkptError error;
        EXPECT_FALSE(decodeImage(raw, image, error));
        EXPECT_EQ(error.section, "header");
        EXPECT_NE(error.message.find("unsupported checkpoint version " +
                                     std::to_string(version)),
                  std::string::npos)
            << error.str();
    }
}

TEST_F(CorruptFixture, ForeignEndiannessIsRejected)
{
    auto raw = readImage(files.back());
    std::swap(raw[endianOffset], raw[endianOffset + 3]);
    std::swap(raw[endianOffset + 1], raw[endianOffset + 2]);
    CheckpointImage image;
    CkptError error;
    EXPECT_FALSE(decodeImage(raw, image, error));
    EXPECT_EQ(error.section, "header");
    EXPECT_NE(error.message.find("endian"), std::string::npos)
        << error.str();
}

TEST_F(CorruptFixture, NotACheckpointIsRejected)
{
    std::vector<std::uint8_t> raw = {'h', 'e', 'l', 'l', 'o'};
    CheckpointImage image;
    CkptError error;
    EXPECT_FALSE(decodeImage(raw, image, error));
    EXPECT_EQ(error.section, "header");
    EXPECT_NE(error.message.find("magic"), std::string::npos)
        << error.str();
}

TEST_F(CorruptFixture, RecoveryFallsBackPastCorruptNewestFile)
{
    // Damage the newest checkpoint in place.
    auto raw = readImage(files.back());
    raw[raw.size() / 2] ^= 0x01;
    writeRaw(files.back(), raw);

    CheckpointManager manager(dir, 0, 0);
    CheckpointImage image;
    std::string path;
    CkptError error;
    ASSERT_TRUE(manager.loadBest(image, path, error)) << error.str();
    EXPECT_EQ(path, files[files.size() - 2]);
    ASSERT_EQ(manager.skipped().size(), 1u);
    EXPECT_NE(manager.skipped()[0].find(files.back()),
              std::string::npos);
}

TEST_F(CorruptFixture, RecoveryFailsWhenEverythingIsCorrupt)
{
    for (const auto &file : files) {
        auto raw = readImage(file);
        raw[raw.size() / 2] ^= 0x01;
        writeRaw(file, raw);
    }
    CheckpointManager manager(dir, 0, 0);
    CheckpointImage image;
    std::string path;
    CkptError error;
    EXPECT_FALSE(manager.loadBest(image, path, error));
    EXPECT_EQ(manager.skipped().size(), files.size());
}

TEST_F(CorruptFixture, MetaSectionHashGuardsSectionSubstitution)
{
    // Swap a whole (self-consistent) section body between two files:
    // every per-section CRC still passes, but the meta stateHash must
    // expose the cross-file splice.
    std::vector<Section> a, b;
    CkptError error;
    ASSERT_TRUE(decodeFile(readImage(files.back()), a, error));
    ASSERT_TRUE(
        decodeFile(readImage(files[files.size() - 2]), b, error));
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name == sectionNodes) {
            for (auto &other : b)
                if (other.name == sectionNodes)
                    a[i].body = other.body;
        }
    }
    CheckpointImage image;
    EXPECT_FALSE(decodeImage(encodeFile(a), image, error));
    EXPECT_NE(error.str().find("hash"), std::string::npos)
        << error.str();
}

TEST_F(CorruptFixture, RotationNeverDeletesNewestVerifiedUnderKeepLastOne)
{
    // The supervisor's recovery guarantee hinges on this: with
    // keep-last-1, neither a torn in-flight write nor a torn external
    // file newer than the verified image may ever consume the only
    // checkpoint recovery is guaranteed to accept.
    const std::string rot = dir + "_rot";
    std::filesystem::remove_all(rot);
    CheckpointManager manager(rot, 100, /*keep_last=*/1);

    CheckpointImage image;
    CkptError error;
    ASSERT_TRUE(decodeImage(readImage(files.back()), image, error))
        << error.str();

    // Two good writes: plain keep-last-1 rotation leaves the newest.
    ASSERT_TRUE(manager.write(image, error)) << error.str();
    image.quantumIndex += 100;
    ASSERT_TRUE(manager.write(image, error)) << error.str();
    const std::string good = manager.verifiedPath();
    EXPECT_TRUE(std::filesystem::exists(good));
    EXPECT_EQ(std::distance(
                  std::filesystem::directory_iterator(rot),
                  std::filesystem::directory_iterator()),
              1);

    // A torn in-flight write must fail read-back verification, be
    // deleted on the spot, and not rotate the good image away.
    manager.corruptNextWriteForTest();
    image.quantumIndex += 100;
    CkptError torn;
    EXPECT_FALSE(manager.write(image, torn));
    EXPECT_EQ(torn.section, "verify");
    EXPECT_TRUE(std::filesystem::exists(good));

    // An externally written torn file *newer* than the next good
    // write: rotation counts it against the keep budget, but must
    // skip the newest verified image rather than delete it.
    char name[48];
    std::snprintf(name, sizeof(name), "/ckpt-q%012llu.aqc",
                  static_cast<unsigned long long>(
                      image.quantumIndex + 200));
    writeRaw(rot + name, {0xde, 0xad, 0xbe, 0xef});
    image.quantumIndex += 100; // good write, older than the torn file
    ASSERT_TRUE(manager.write(image, error)) << error.str();
    const std::string survivor = manager.verifiedPath();
    EXPECT_TRUE(std::filesystem::exists(survivor));

    // Recovery falls back past the torn newest file to the verified
    // image rotation preserved.
    CheckpointImage best;
    std::string path;
    ASSERT_TRUE(manager.loadBest(best, path, error)) << error.str();
    EXPECT_EQ(path, survivor);
    EXPECT_EQ(best.quantumIndex, image.quantumIndex);
    EXPECT_EQ(manager.skipped().size(), 1u);

    std::filesystem::remove_all(rot);
}

/** The textbook one-byte-at-a-time CRC32 the slice-by-8 kernel
 * must reproduce. */
std::uint32_t
bytewiseCrc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xffffffffu;
}

TEST(CkptCrc32, KnownAnswer)
{
    const std::string check = "123456789";
    EXPECT_EQ(ckpt::crc32(
                  reinterpret_cast<const std::uint8_t *>(check.data()),
                  check.size()),
              0xCBF43926u);
    EXPECT_EQ(ckpt::crc32(nullptr, 0), 0u);
}

TEST(CkptCrc32, SliceBy8MatchesBytewiseAtEveryLengthAndAlignment)
{
    // Lengths 0-67 cover the 8-byte body, every tail length and
    // several body iterations; offsets 0-7 cover every alignment of
    // the body's loads.
    std::vector<std::uint8_t> buf(8 + 67);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 151 + 7);
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 67; ++len)
            EXPECT_EQ(ckpt::crc32(buf.data() + offset, len),
                      bytewiseCrc32(buf.data() + offset, len))
                << "offset " << offset << " length " << len;
}

} // namespace
