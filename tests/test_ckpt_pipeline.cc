/**
 * Checkpoint image pipeline tests: the encoder's bytes pinned on a
 * synthetic image (an empty and an odd-sized section), the fused
 * CRC/FNV kernel and CRC combination against whole-range hashes, the
 * one-pass scan reporting every kind of damage exactly as a plain
 * full-pass decoder does, and the background writer's lifecycle —
 * every due image on disk and verified, and no writer thread left,
 * however the run ends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/failure.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/ckpt_io.hh"
#include "ckpt/manager.hh"
#include "engine/threaded_engine.hh"
#include "supervise/run_supervisor.hh"
#include "test_util.hh"

using namespace aqsim;
using namespace aqsim::ckpt;

namespace
{

/** A fixed image with an 8-byte, an empty and a 13-byte section. */
CheckpointImage
syntheticImage()
{
    CheckpointImage image;
    image.quantumIndex = 42;
    image.quantumStart = 42000;
    image.quantumEnd = 43000;
    image.configHash = 0x0123456789abcdefULL;
    image.engine = "golden";
    image.sections.push_back({"sync", {1, 2, 3, 4, 5, 6, 7, 8}});
    image.sections.push_back({"empty", {}});
    std::vector<std::uint8_t> odd;
    for (int i = 0; i < 13; ++i)
        odd.push_back(static_cast<std::uint8_t>(i * 37 + 11));
    image.sections.push_back({"odd", odd});
    image.stateHash = sectionsHash(image.sections);
    return image;
}

/** syntheticImage() as the full-pass encoder framed it, on a
 * little-endian host. */
const char *const goldenHex =
    "415153434b5054310200000004030201"
    "9700000000000000a9683c3004000000"
    "6d6574613200000000000000175bc956"
    "2a0000000000000010a4000000000000"
    "f8a7000000000000efcdab8967452301"
    "8a9e62a874dbdf6306000000676f6c64"
    "656e0400000073796e63080000000000"
    "0000c588ca3f01020304050607080500"
    "0000656d707479000000000000000000"
    "000000030000006f64640d0000000000"
    "0000e47ac47e0b30557a9fc4e90e3358"
    "7da2c7";

std::vector<std::uint8_t>
goldenBytes()
{
    std::vector<std::uint8_t> bytes;
    const std::string hex = goldenHex;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        bytes.push_back(static_cast<std::uint8_t>(
            std::stoul(hex.substr(i, 2), nullptr, 16)));
    return bytes;
}

TEST(CkptEncoding, GoldenBytesOfASyntheticImage)
{
    if constexpr (std::endian::native != std::endian::little)
        GTEST_SKIP() << "golden bytes are little-endian";
    const CheckpointImage image = syntheticImage();
    const std::vector<std::uint8_t> golden = goldenBytes();
    ASSERT_EQ(golden.size(), 179u);
    EXPECT_EQ(image.stateHash, 0x63dfdb74a8629e8aULL);

    EXPECT_EQ(encodeImage(image), golden);
    // sealImage hashes the sections itself, whatever the field holds.
    CheckpointImage unhashed = image;
    unhashed.stateHash = 0;
    EXPECT_EQ(sealImage(unhashed), golden);

    std::vector<Section> sections;
    CkptError error;
    ASSERT_TRUE(decodeFile(golden, sections, error)) << error.str();
    ASSERT_EQ(sections.size(), 4u);
    EXPECT_EQ(encodeFile(sections), golden);

    CheckpointImage decoded;
    ASSERT_TRUE(decodeImage(golden, decoded, error)) << error.str();
    EXPECT_EQ(decoded.stateHash, image.stateHash);
    EXPECT_EQ(decoded.engine, image.engine);
    ASSERT_EQ(decoded.sections.size(), image.sections.size());
    for (std::size_t i = 0; i < image.sections.size(); ++i) {
        EXPECT_EQ(decoded.sections[i].name, image.sections[i].name);
        EXPECT_EQ(decoded.sections[i].body, image.sections[i].body);
    }
    EXPECT_TRUE(verifyImage(golden, error)) << error.str();
}

TEST(CkptEncoding, FusedCrcFnvAndCombineMatchWholeRangeHashes)
{
    Rng rng(2024);
    std::vector<std::uint8_t> buf(300);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (int trial = 0; trial < 400; ++trial) {
        // A random unaligned window cut at random points; repeated
        // cuts give 0-byte pieces, the last piece any tail length.
        const std::size_t begin = rng.uniformInt(8);
        const std::size_t len = rng.uniformInt(buf.size() - begin);
        std::vector<std::size_t> cuts = {0, len};
        for (std::size_t k = rng.uniformInt(6); k > 0; --k)
            cuts.push_back(rng.uniformInt(len + 1));
        if (trial % 5 == 0)
            cuts.push_back(cuts.back()); // an explicit empty piece
        std::sort(cuts.begin(), cuts.end());

        const std::uint8_t *data = buf.data() + begin;
        std::uint32_t combined = crc32(nullptr, 0);
        std::uint64_t fnv = fnv1a(nullptr, 0);
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            const std::uint8_t *piece = data + cuts[i];
            const std::size_t n = cuts[i + 1] - cuts[i];
            const std::uint32_t crc = crc32Fnv1a(piece, n, fnv);
            EXPECT_EQ(crc, crc32(piece, n)) << "trial " << trial;
            combined = crc32Combine(combined, crc, n);
        }
        EXPECT_EQ(combined, crc32(data, len)) << "trial " << trial;
        EXPECT_EQ(fnv, fnv1a(data, len)) << "trial " << trial;
    }
}

/**
 * The full-pass decoder the one-pass scan replaced: the payload CRC
 * over the whole payload first, then each section in order, then the
 * meta fields and the state hash over copied bodies.
 */
bool
referenceDecode(const std::vector<std::uint8_t> &image, CkptError &error)
{
    static const char magic[8] = {'A', 'Q', 'S', 'C', 'K', 'P', 'T', '1'};
    Reader head(image, "header");
    head.skip(sizeof(magic));
    if (!head.ok() || std::memcmp(image.data(), magic, sizeof(magic))) {
        error = {"header", "not an aqsim checkpoint (bad magic)"};
        return false;
    }
    const std::uint32_t version = head.u32();
    if (head.ok() && version != formatVersion) {
        error = {"header", "unsupported checkpoint version " +
                               std::to_string(version) + " (expected " +
                               std::to_string(formatVersion) + ")"};
        return false;
    }
    const std::uint32_t endian = head.u32();
    if (head.ok() && endian != endianTag) {
        error = {"header", "endianness mismatch (file written on a host "
                           "with different byte order)"};
        return false;
    }
    const std::uint64_t len = head.u64();
    const std::uint32_t crc = head.u32();
    if (!head.ok()) {
        error = head.error();
        return false;
    }
    if (len != head.remaining()) {
        error = {"header", "truncated payload (header promises " +
                               std::to_string(len) + " bytes, file holds " +
                               std::to_string(head.remaining()) + ")"};
        return false;
    }
    const std::uint8_t *payload = image.data() + (image.size() - len);
    if (crc32(payload, len) != crc) {
        error = {"header", "payload CRC mismatch (corrupt file)"};
        return false;
    }
    std::vector<Section> sections;
    Reader body(payload, len, "payload");
    while (body.ok() && body.remaining() > 0) {
        const std::string name = body.str();
        const std::uint64_t n = body.u64();
        const std::uint32_t sec_crc = body.u32();
        if (!body.ok())
            break;
        const std::string where = name.empty() ? "payload" : name;
        if (body.remaining() < n) {
            error = {where, "truncated section body (need " +
                                std::to_string(n) + " bytes, have " +
                                std::to_string(body.remaining()) + ")"};
            return false;
        }
        const std::uint8_t *at = payload + (len - body.remaining());
        if (crc32(at, n) != sec_crc) {
            error = {where, "section CRC mismatch (corrupt file)"};
            return false;
        }
        sections.push_back({name, {at, at + n}});
        body.skip(n);
    }
    if (!body.ok()) {
        error = body.error();
        return false;
    }
    if (sections.empty() || sections.front().name != sectionMeta) {
        error = {sectionMeta, "first section is not \"meta\""};
        return false;
    }
    Reader meta(sections.front().body, sectionMeta);
    std::uint64_t state_hash = 0;
    for (int i = 0; i < 5; ++i)
        state_hash = meta.u64(); // the fifth field
    meta.str();
    if (!meta.ok()) {
        error = meta.error();
        return false;
    }
    sections.erase(sections.begin());
    if (sectionsHash(sections) != state_hash) {
        error = {sectionMeta, "state hash mismatch (meta promises "
                              "another section set than the file holds)"};
        return false;
    }
    return true;
}

/** decodeImage and verifyImage must agree with referenceDecode. */
void
expectSameVerdict(const std::vector<std::uint8_t> &bytes,
                  const std::string &what)
{
    CkptError want, got, verified;
    const bool ok = referenceDecode(bytes, want);
    CheckpointImage image;
    EXPECT_EQ(decodeImage(bytes, image, got), ok) << what;
    EXPECT_EQ(verifyImage(bytes, verified), ok) << what;
    if (ok)
        return;
    EXPECT_EQ(got.str(), want.str()) << what;
    EXPECT_EQ(verified.str(), want.str()) << what;
}

TEST(CkptEncoding, ScanReportsDamageAsTheFullPassDecoder)
{
    const std::vector<std::uint8_t> good = sealImage(syntheticImage());
    expectSameVerdict(good, "intact");
    for (std::size_t i = 0; i < good.size(); ++i) {
        for (std::uint8_t flip : {0x01, 0x80, 0xff}) {
            std::vector<std::uint8_t> bad = good;
            bad[i] ^= flip;
            expectSameVerdict(bad, "byte " + std::to_string(i) + " ^ " +
                                       std::to_string(flip));
        }
    }
    for (std::size_t n = 0; n < good.size(); ++n)
        expectSameVerdict({good.begin(), good.begin() + n},
                          "truncated to " + std::to_string(n));

    // Damage the CRCs can vouch for: a section set whose payload and
    // section CRCs are right but whose meta hash is not, and a
    // well-framed file whose first section is not meta.
    CheckpointImage swapped = syntheticImage();
    std::swap(swapped.sections[0].body, swapped.sections[2].body);
    expectSameVerdict(encodeImage(swapped), "stale meta hash");
    std::vector<Section> no_meta = syntheticImage().sections;
    expectSameVerdict(encodeFile(no_meta), "no meta section");
}

/** Threads of this process, the gtest main thread included. */
std::size_t
threadCount()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/**
 * threadCount() before a run. A sanitizer may start a helper thread
 * along with the first thread the process creates, so one thread comes
 * and goes first.
 */
std::size_t
threadsBefore()
{
    std::thread([] {}).join();
    return threadCount();
}

std::string
scratchDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("aqsim_ckpt_pipeline_" + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/**
 * Every image due at a multiple of @p every up to quantum @p last is
 * on disk under its own name, passes read-back verification and
 * decodes to its quantum; no temporary file is left behind.
 */
void
expectDueImagesVerified(const std::string &dir, std::uint64_t every,
                        std::uint64_t last)
{
    ASSERT_GE(last, every);
    CheckpointManager names(dir, every, 0);
    for (std::uint64_t q = every; q <= last; q += every) {
        std::vector<std::uint8_t> raw;
        CkptError error;
        ASSERT_TRUE(readFile(names.fileName(q), raw, error))
            << error.str();
        EXPECT_TRUE(verifyImage(raw, error)) << q << ": " << error.str();
        CheckpointImage image;
        ASSERT_TRUE(decodeImage(raw, image, error)) << error.str();
        EXPECT_EQ(image.quantumIndex, q);
    }
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
}

/**
 * The perfbench recover run's cluster: its ~0.5 MB images take the
 * writer milliseconds, longer than an abort takes to unwind, so an
 * image left in flight would show as a missing file or a live thread.
 */
constexpr std::size_t kNodes = 2048;
constexpr std::uint64_t kEvery = 20;
constexpr std::uint64_t kFailAt = 40;

engine::EngineOptions
checkpointing(const std::string &dir)
{
    engine::EngineOptions options;
    options.checkpointEvery = kEvery;
    options.checkpointDir = dir;
    options.checkpointKeepLast = 0;
    options.numWorkers = 2;
    return options;
}

engine::RunResult
runThreaded(const engine::EngineOptions &options)
{
    auto workload = workloads::makeWorkload("nas.ep", kNodes, 1.0);
    auto policy = core::parsePolicy("fixed:1us");
    engine::ThreadedEngine engine(options);
    return engine.run(harness::defaultCluster(kNodes, 1), *workload,
                      *policy);
}

TEST(CkptWriter, DueImagesAreVerifiedWhenTheRunReturns)
{
    const std::string dir = scratchDir("returns");
    const std::size_t threads = threadsBefore();
    const auto result = runThreaded(checkpointing(dir));
    EXPECT_EQ(threadCount(), threads);
    ASSERT_GT(result.quanta, kFailAt);
    EXPECT_EQ(result.checkpointsWritten, result.quanta / kEvery);
    expectDueImagesVerified(dir, kEvery, result.quanta);
    std::filesystem::remove_all(dir);
}

TEST(CkptWriter, DueImagesAreVerifiedWhenTheRunThrows)
{
    const std::string dir = scratchDir("throws");
    engine::EngineOptions options = checkpointing(dir);
    options.injectFailAfterQuantum = kFailAt;
    const std::size_t threads = threadsBefore();
    // The image of the failing quantum itself is in flight when the
    // abort unwinds: the writer is joined on the way out.
    EXPECT_THROW(runThreaded(options), base::RunAbort);
    EXPECT_EQ(threadCount(), threads);
    expectDueImagesVerified(dir, kEvery, kFailAt);
    std::filesystem::remove_all(dir);
}

TEST(CkptWriter, DueImagesAreVerifiedWhenTheSupervisorGivesUp)
{
    const std::string dir = scratchDir("gives_up");
    auto workload = workloads::makeWorkload("nas.ep", kNodes, 1.0);
    auto policy = core::parsePolicy("fixed:1us");
    supervise::RunRequest request;
    request.engineKind = supervise::EngineKind::Threaded;
    request.engine = checkpointing(dir);
    request.cluster = harness::defaultCluster(kNodes, 1);
    request.workload = workload.get();
    request.policy = policy.get();

    supervise::SuperviseOptions sup;
    sup.enabled = true;
    sup.backoffBaseSeconds = 0.0;
    sup.maxRestarts = 0;
    sup.injectFailures = {{1, kFailAt, false}};
    supervise::RunSupervisor supervisor(sup);
    const std::size_t threads = threadsBefore();
    EXPECT_THROW(supervisor.run(request), supervise::SuperviseAbort);
    EXPECT_EQ(threadCount(), threads);
    expectDueImagesVerified(dir, kEvery, kFailAt);
    std::filesystem::remove_all(dir);
}

TEST(CkptWriter, DueImagesAreVerifiedWhenTheWatchdogFires)
{
    // 20 us of simulated time, then every rank spins at one tick: the
    // quantum never ends and the real watchdog fires, dumps (panicNote
    // encodes the stashed boundary image) and cancels the attempt;
    // with no restarts left the supervisor gives up.
    const std::string dir = scratchDir("watchdog");
    test::LambdaWorkload workload(
        [](workloads::AppContext &ctx) -> sim::Process {
            co_await ctx.delay(20'000);
            for (;;)
                co_await ctx.delay(0);
        });
    auto policy = core::parsePolicy("fixed:1us");
    supervise::RunRequest request;
    request.engine.checkpointEvery = 2;
    request.engine.checkpointDir = dir;
    request.engine.checkpointKeepLast = 0;
    request.engine.watchdogSeconds = 0.3;
    request.cluster = harness::defaultCluster(2, 1);
    request.workload = &workload;
    request.policy = policy.get();

    supervise::SuperviseOptions sup;
    sup.enabled = true;
    sup.backoffBaseSeconds = 0.0;
    sup.maxRestarts = 0;
    supervise::RunSupervisor supervisor(sup);
    const std::size_t threads = threadsBefore();
    EXPECT_THROW(supervisor.run(request), supervise::SuperviseAbort);
    EXPECT_EQ(threadCount(), threads);

    const auto &incidents = supervisor.incidents().incidents();
    ASSERT_EQ(incidents.size(), 1u);
    EXPECT_EQ(incidents[0].cause, "watchdog");
    EXPECT_NE(supervisor.lastPanic().note.find(
                  "last quantum boundary written to"),
              std::string::npos)
        << supervisor.lastPanic().note;
    expectDueImagesVerified(dir, 2, incidents[0].quantum);

    std::vector<std::uint8_t> raw;
    CkptError error;
    ASSERT_TRUE(readFile(dir + "/panic.aqc", raw, error)) << error.str();
    CheckpointImage panic;
    ASSERT_TRUE(decodeImage(raw, panic, error)) << error.str();
    EXPECT_EQ(panic.quantumIndex, incidents[0].quantum);
    std::filesystem::remove_all(dir);
}

TEST(CkptWriter, UnwritableDirectoryOnlyWarns)
{
    // A directory under a regular file can be neither created nor
    // written, even by root.
    const std::string blocker = scratchDir("blocker");
    std::FILE *f = std::fopen(blocker.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);

    engine::EngineOptions plain;
    plain.numWorkers = 2;
    const auto golden = runThreaded(plain);

    std::string log;
    Logger::captureTo(&log);
    const auto result = runThreaded(checkpointing(blocker + "/ckpt"));
    Logger::captureTo(nullptr);

    EXPECT_EQ(result.finalStateHash, golden.finalStateHash);
    EXPECT_EQ(result.quanta, golden.quanta);
    EXPECT_EQ(result.checkpointsWritten, 0u);
    EXPECT_NE(log.find("warn: checkpoint write failed at quantum 20: "),
              std::string::npos)
        << log;
    std::filesystem::remove(blocker);
}

} // namespace
