/**
 * @file
 * Versioned, CRC-guarded binary serialization for checkpoints.
 *
 * All persistent state in aqsim goes through this layer (the repo lint
 * bans raw fwrite/fread/ofstream state serialization elsewhere). The
 * encoding is deliberately simple and self-checking:
 *
 *   file   := magic(8) version(u32) endianTag(u32)
 *             payloadLen(u64) payloadCrc(u32) payload
 *   payload:= section*
 *   section:= nameLen(u32) name bodyLen(u64) bodyCrc(u32) body
 *
 * Integers are written in the producing host's native byte order; the
 * endian tag lets a reader on a different-endian host fail with a
 * structured error instead of silently misreading state. Every section
 * carries its own CRC32, so a torn or bit-flipped file is rejected
 * with a message naming the offending section.
 *
 * Errors never throw and never crash: the Reader latches the first
 * failure (section + message) and all further reads return zeros, so
 * callers check ok() once at the end of a parse.
 */

#ifndef AQSIM_CKPT_CKPT_IO_HH
#define AQSIM_CKPT_CKPT_IO_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace aqsim
{
class Rng;
} // namespace aqsim

namespace aqsim::ckpt
{

/**
 * File-format version of the checkpoint container. Bump it whenever a
 * section's layout changes, so older images fail at decode instead of
 * as a replay divergence. 2: an endpoint keeps no per-destination
 * send seq (MPI order follows msgId), and message headers lost their
 * seq field.
 */
constexpr std::uint32_t formatVersion = 2;

/** Native byte-order sentinel stored in every file. */
constexpr std::uint32_t endianTag = 0x01020304u;

/** CRC32 (IEEE 802.3) of a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/**
 * CRC32 of the concatenation A·B from crc32(A), crc32(B) and B's
 * length, without reading either (zlib's crc32_combine).
 */
std::uint32_t crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::size_t len_b);

/** FNV-1a 64-bit hash of a byte range (state fingerprints). */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t size,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/**
 * crc32() of a byte range and fnv1a() of it continuing from @p fnv,
 * in one pass over the bytes. @return the CRC; @p fnv is advanced.
 */
std::uint32_t crc32Fnv1a(const std::uint8_t *data, std::size_t size,
                         std::uint64_t &fnv);

/** Structured decode failure: which section, what went wrong. */
struct CkptError
{
    /** Section being decoded ("header" before any section). */
    std::string section;
    std::string message;

    /** One-line human-readable rendering. */
    std::string str() const;
};

/** Append-only binary encoder (in-memory; files via writeFileAtomic). */
class Writer
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
    void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
    void i32(std::int32_t v) { raw(&v, sizeof(v)); }
    void i64(std::int64_t v) { raw(&v, sizeof(v)); }
    void f64(double v) { raw(&v, sizeof(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    void
    bytes(const std::uint8_t *data, std::size_t size)
    {
        raw(data, size);
    }

    /** A u64 byte count, then the bytes (Reader::blob). */
    void
    blob(const std::vector<std::uint8_t> &data)
    {
        u64(data.size());
        raw(data.data(), data.size());
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** Make room for @p n more bytes in one allocation. */
    void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

    /** Move the bytes out, leaving the Writer empty. */
    std::vector<std::uint8_t>
    take()
    {
        return std::exchange(buf_, {});
    }

    /** FNV-1a fingerprint of everything written so far. */
    std::uint64_t
    hash() const
    {
        return fnv1a(buf_.data(), buf_.size());
    }

  private:
    void
    raw(const void *data, std::size_t size)
    {
        // Grow explicitly before inserting: GCC 12 at -O3 otherwise
        // warns (-Wstringop-overflow) on an insert into a Writer that
        // has never allocated.
        if (buf_.capacity() - buf_.size() < size)
            buf_.reserve(std::max(2 * buf_.capacity(), buf_.size() + size));
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + size);
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * Bounded binary decoder over one section body. The first failed read
 * latches an error; subsequent reads return zeros.
 */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size,
           std::string section)
        : data_(data), size_(size), section_(std::move(section))
    {}

    explicit Reader(const std::vector<std::uint8_t> &data,
                    std::string section = "payload")
        : Reader(data.data(), data.size(), std::move(section))
    {}

    std::uint8_t u8() { return takeScalar<std::uint8_t>("u8"); }
    std::uint32_t u32() { return takeScalar<std::uint32_t>("u32"); }
    std::uint64_t u64() { return takeScalar<std::uint64_t>("u64"); }
    std::int32_t i32() { return takeScalar<std::int32_t>("i32"); }
    std::int64_t i64() { return takeScalar<std::int64_t>("i64"); }
    double f64() { return takeScalar<double>("f64"); }
    bool boolean() { return u8() != 0; }

    std::string str();
    std::vector<std::uint8_t> blob();

    /** @return true if all reads so far decoded cleanly. */
    bool ok() const { return !failed_; }
    const CkptError &error() const { return error_; }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return size_ - pos_; }

    /** Advance past @p n bytes (fails if fewer remain). */
    void
    skip(std::size_t n)
    {
        if (failed_)
            return;
        if (size_ - pos_ < n) {
            fail("truncated (cannot skip " + std::to_string(n) +
                 " bytes)");
            return;
        }
        pos_ += n;
    }

    /** Latch a decode failure (also usable by callers for semantic
     * validation, e.g. an impossible count). */
    void fail(const std::string &message);

  private:
    template <typename T>
    T
    takeScalar(const char *what)
    {
        T v{};
        if (failed_)
            return v;
        if (size_ - pos_ < sizeof(T)) {
            fail(std::string("truncated (need ") + what + ")");
            return v;
        }
        __builtin_memcpy(&v, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::string section_;
    bool failed_ = false;
    CkptError error_;
};

/** One named, CRC-guarded section of a checkpoint payload. */
struct Section
{
    std::string name;
    std::vector<std::uint8_t> body;
};

/** A section body in place (not a copy), with its CRC32. */
struct SectionView
{
    std::string name;
    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
    std::uint32_t crc = 0;
};

/**
 * Frame @p sections into a complete file image, written once into a
 * buffer sized up front. The body CRCs come from the views; the
 * payload CRC is combined from them (crc32Combine), so no body is
 * read for a CRC here.
 */
std::vector<std::uint8_t>
frameFile(const std::vector<SectionView> &sections);

/** Frame a section list into a complete file image (header + CRCs). */
std::vector<std::uint8_t>
encodeFile(const std::vector<Section> &sections);

/**
 * Check a complete file image and view its sections in place, in one
 * pass over the bytes: magic, version, endianness, payload length,
 * the payload CRC (combined from the pieces' CRCs) and every section
 * CRC. Damage is reported as decodeFile reports it: container errors
 * first, then the payload CRC, then the first bad section.
 *
 * @param hash if set, receives sectionsHash of the bodies of sections
 *        [@p hash_from, end), computed in the same pass as their CRCs
 * @return true on success; @p sections then point into @p image
 */
bool scanFile(const std::vector<std::uint8_t> &image,
              std::vector<SectionView> &sections, CkptError &error,
              std::uint64_t *hash = nullptr, std::size_t hash_from = 0);

/**
 * Parse and validate a complete file image. Checks magic, version,
 * endianness, payload length and every CRC.
 *
 * @return true on success; on failure @p error names the offending
 *         section ("header" for container-level damage).
 */
bool decodeFile(const std::vector<std::uint8_t> &image,
                std::vector<Section> &sections, CkptError &error);

/**
 * Write @p image to @p path atomically: the bytes go to "<path>.tmp"
 * and are renamed over the target only after a successful write, so a
 * crash mid-write can never leave a torn file under the real name.
 *
 * @return true on success; on failure @p error describes the I/O step.
 */
bool writeFileAtomic(const std::string &path,
                     const std::vector<std::uint8_t> &image,
                     CkptError &error);

/** Read a whole file into memory. */
bool readFile(const std::string &path, std::vector<std::uint8_t> &image,
              CkptError &error);

/** Serialize a PRNG stream at its exact position. */
void putRng(Writer &w, const Rng &rng);

} // namespace aqsim::ckpt

#endif // AQSIM_CKPT_CKPT_IO_HH
