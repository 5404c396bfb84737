#include "ckpt/ckpt_io.hh"

#include <array>
#include <cstdio>
#include <cstring>

#include "base/random.hh"

namespace aqsim::ckpt
{

namespace
{

/** Container magic; the trailing digit tracks the container layout. */
constexpr char fileMagic[8] = {'A', 'Q', 'S', 'C', 'K', 'P', 'T', '1'};

/**
 * Slice-by-8 CRC32 (IEEE, reflected) tables: t[0] is the byte-wise
 * table, t[k][b] the CRC of byte b followed by k zero bytes, so eight
 * lookups fold eight bytes. Built at compile time: no init race
 * between a peer's threads, no guard on the hot path.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr CrcTables crcTables = makeCrcTables();

/** Little-endian 32-bit load, whatever the host byte order. */
inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    const auto &t = crcTables;
    std::uint32_t crc = 0xffffffffu;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = loadLe32(data) ^ crc;
        const std::uint32_t hi = loadLe32(data + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        crc = t[0][(crc ^ *data) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
CkptError::str() const
{
    return "checkpoint section '" + section + "': " + message;
}

std::string
Reader::str()
{
    const std::uint32_t len = u32();
    if (failed_)
        return {};
    if (size_ - pos_ < len) {
        fail("truncated (need string of " + std::to_string(len) +
             " bytes)");
        return {};
    }
    std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return s;
}

std::vector<std::uint8_t>
Reader::blob()
{
    const std::uint64_t len = u64();
    if (failed_)
        return {};
    if (size_ - pos_ < len) {
        fail("truncated (need blob of " + std::to_string(len) +
             " bytes)");
        return {};
    }
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return b;
}

void
Reader::fail(const std::string &message)
{
    if (failed_)
        return;
    failed_ = true;
    error_.section = section_;
    error_.message = message;
}

std::vector<std::uint8_t>
encodeFile(const std::vector<Section> &sections)
{
    Writer payload;
    for (const auto &sec : sections) {
        payload.str(sec.name);
        payload.u64(sec.body.size());
        payload.u32(crc32(sec.body.data(), sec.body.size()));
        payload.bytes(sec.body.data(), sec.body.size());
    }

    Writer out;
    out.bytes(reinterpret_cast<const std::uint8_t *>(fileMagic),
              sizeof(fileMagic));
    out.u32(formatVersion);
    out.u32(endianTag);
    out.u64(payload.size());
    out.u32(crc32(payload.buffer().data(), payload.size()));
    out.bytes(payload.buffer().data(), payload.size());
    return out.buffer();
}

bool
decodeFile(const std::vector<std::uint8_t> &image,
           std::vector<Section> &sections, CkptError &error)
{
    sections.clear();
    Reader head(image, "header");

    char magic[sizeof(fileMagic)] = {};
    if (image.size() >= sizeof(fileMagic))
        std::memcpy(magic, image.data(), sizeof(fileMagic));
    for (std::size_t i = 0; i < sizeof(fileMagic); ++i)
        head.u8();
    if (!head.ok() ||
        std::memcmp(magic, fileMagic, sizeof(fileMagic)) != 0) {
        error = {"header", "not an aqsim checkpoint (bad magic)"};
        return false;
    }
    const std::uint32_t version = head.u32();
    if (head.ok() && version != formatVersion) {
        error = {"header",
                 "unsupported checkpoint version " +
                     std::to_string(version) + " (expected " +
                     std::to_string(formatVersion) + ")"};
        return false;
    }
    const std::uint32_t endian = head.u32();
    if (head.ok() && endian != endianTag) {
        error = {"header",
                 "endianness mismatch (file written on a host with "
                 "different byte order)"};
        return false;
    }
    const std::uint64_t payload_len = head.u64();
    const std::uint32_t payload_crc = head.u32();
    if (!head.ok()) {
        error = head.error();
        return false;
    }
    if (payload_len != head.remaining()) {
        error = {"header",
                 "truncated payload (header promises " +
                     std::to_string(payload_len) + " bytes, file holds " +
                     std::to_string(head.remaining()) + ")"};
        return false;
    }
    const std::uint8_t *payload =
        image.data() + (image.size() - payload_len);
    if (crc32(payload, payload_len) != payload_crc) {
        error = {"header", "payload CRC mismatch (corrupt file)"};
        return false;
    }

    Reader body(payload, payload_len, "payload");
    while (body.ok() && body.remaining() > 0) {
        const std::string name = body.str();
        const std::uint64_t len = body.u64();
        const std::uint32_t crc = body.u32();
        if (!body.ok())
            break;
        const std::string where = name.empty() ? "payload" : name;
        if (body.remaining() < len) {
            error = {where,
                     "truncated section body (need " +
                         std::to_string(len) + " bytes, have " +
                         std::to_string(body.remaining()) + ")"};
            return false;
        }
        const std::uint8_t *sec_data =
            payload + (payload_len - body.remaining());
        if (crc32(sec_data, len) != crc) {
            error = {where, "section CRC mismatch (corrupt file)"};
            return false;
        }
        Section sec;
        sec.name = name;
        sec.body.assign(sec_data, sec_data + len);
        sections.push_back(std::move(sec));
        body.skip(len);
    }
    if (!body.ok()) {
        error = body.error();
        return false;
    }
    return true;
}

bool
writeFileAtomic(const std::string &path,
                const std::vector<std::uint8_t> &image, CkptError &error)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        error = {"header", "cannot open '" + tmp + "' for writing"};
        return false;
    }
    const std::size_t written =
        image.empty() ? 0 : std::fwrite(image.data(), 1, image.size(), f);
    const bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (written != image.size() || !flushed) {
        std::remove(tmp.c_str());
        error = {"header", "short write to '" + tmp + "'"};
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        error = {"header",
                 "cannot rename '" + tmp + "' over '" + path + "'"};
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::vector<std::uint8_t> &image,
         CkptError &error)
{
    image.clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = {"header", "cannot open '" + path + "'"};
        return false;
    }
    std::uint8_t chunk[1 << 16];
    for (;;) {
        const std::size_t got = std::fread(chunk, 1, sizeof(chunk), f);
        image.insert(image.end(), chunk, chunk + got);
        if (got < sizeof(chunk))
            break;
    }
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
        error = {"header", "read error on '" + path + "'"};
        return false;
    }
    return true;
}

void
putRng(Writer &w, const Rng &rng)
{
    const Rng::State s = rng.state();
    for (std::uint64_t word : s.s)
        w.u64(word);
    w.f64(s.cachedNormal);
    w.boolean(s.hasCachedNormal);
}

} // namespace aqsim::ckpt
