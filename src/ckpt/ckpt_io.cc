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

/** The CRC32 loop; with WithFnv it also advances an FNV-1a state
 * over the same bytes. */
template <bool WithFnv>
inline std::uint32_t
crcPass(const std::uint8_t *data, std::size_t size, std::uint64_t &fnv)
{
    constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;
    const auto &t = crcTables;
    std::uint32_t crc = 0xffffffffu;
    std::uint64_t h = fnv;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = loadLe32(data) ^ crc;
        const std::uint32_t hi = loadLe32(data + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
        if constexpr (WithFnv)
            for (int i = 0; i < 8; ++i)
                h = (h ^ data[i]) * fnvPrime;
    }
    for (; size > 0; ++data, --size) {
        crc = t[0][(crc ^ *data) & 0xffu] ^ (crc >> 8);
        if constexpr (WithFnv)
            h = (h ^ *data) * fnvPrime;
    }
    fnv = h;
    return crc ^ 0xffffffffu;
}

/** a(x)·b(x) modulo the CRC polynomial, in the reflected bit order. */
constexpr std::uint32_t
multModP(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t m = 1u << 31;
    std::uint32_t p = 0;
    for (;;) {
        if (a & m) {
            p ^= b;
            if ((a & (m - 1)) == 0)
                break;
        }
        m >>= 1;
        b = (b & 1) ? 0xedb88320u ^ (b >> 1) : b >> 1;
    }
    return p;
}

/** x^(2^k) modulo the CRC polynomial, for k = 0..31. */
constexpr std::array<std::uint32_t, 32>
makeX2nTable()
{
    std::array<std::uint32_t, 32> t{};
    std::uint32_t p = 1u << 30; // x^1
    t[0] = p;
    for (std::size_t k = 1; k < t.size(); ++k)
        t[k] = p = multModP(p, p);
    return t;
}

constexpr std::array<std::uint32_t, 32> x2nTable = makeX2nTable();

/** x^(n·2^k) modulo the CRC polynomial. */
std::uint32_t
x2nModP(std::size_t n, unsigned k)
{
    std::uint32_t p = 1u << 31; // x^0
    for (; n != 0; n >>= 1, ++k)
        if (n & 1)
            p = multModP(x2nTable[k & 31], p);
    return p;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t unused = 0;
    return crcPass<false>(data, size, unused);
}

std::uint32_t
crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b, std::size_t len_b)
{
    // Appending len_b bytes multiplies A's remainder by x^(8·len_b).
    return multModP(x2nModP(len_b, 3), crc_a) ^ crc_b;
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

std::uint32_t
crc32Fnv1a(const std::uint8_t *data, std::size_t size, std::uint64_t &fnv)
{
    return crcPass<true>(data, size, fnv);
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
frameFile(const std::vector<SectionView> &sections)
{
    std::size_t payload_len = 0;
    for (const SectionView &sec : sections)
        payload_len += sizeof(std::uint32_t) + sec.name.size() +
                       sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                       sec.size;

    Writer out;
    out.reserve(sizeof(fileMagic) + 2 * sizeof(std::uint32_t) +
                sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                payload_len);
    out.bytes(reinterpret_cast<const std::uint8_t *>(fileMagic),
              sizeof(fileMagic));
    out.u32(formatVersion);
    out.u32(endianTag);
    out.u64(payload_len);
    const std::size_t crc_at = out.size();
    out.u32(0); // the payload CRC, patched below

    std::uint32_t payload_crc = 0; // CRC32 of no bytes
    for (const SectionView &sec : sections) {
        const std::size_t head_at = out.size();
        out.str(sec.name);
        out.u64(sec.size);
        out.u32(sec.crc);
        const std::size_t head_len = out.size() - head_at;
        payload_crc = crc32Combine(
            payload_crc, crc32(out.buffer().data() + head_at, head_len),
            head_len);
        out.bytes(sec.data, sec.size);
        payload_crc = crc32Combine(payload_crc, sec.crc, sec.size);
    }
    std::vector<std::uint8_t> image = out.take();
    std::memcpy(image.data() + crc_at, &payload_crc, sizeof(payload_crc));
    return image;
}

std::vector<std::uint8_t>
encodeFile(const std::vector<Section> &sections)
{
    std::vector<SectionView> views;
    views.reserve(sections.size());
    for (const Section &sec : sections)
        views.push_back({sec.name, sec.body.data(), sec.body.size(),
                         crc32(sec.body.data(), sec.body.size())});
    return frameFile(views);
}

bool
scanFile(const std::vector<std::uint8_t> &image,
         std::vector<SectionView> &sections, CkptError &error,
         std::uint64_t *hash, std::size_t hash_from)
{
    sections.clear();
    Reader head(image, "header");

    char magic[sizeof(fileMagic)] = {};
    if (image.size() >= sizeof(fileMagic))
        std::memcpy(magic, image.data(), sizeof(fileMagic));
    head.skip(sizeof(fileMagic));
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

    // One walk: each section header and body is read once, its CRC
    // taken (with the state hash, where asked) and folded into the
    // payload CRC. Damage is only reported after the walk, so the
    // payload CRC keeps its precedence over a section's.
    std::uint64_t fnv = fnv1a(nullptr, 0);
    std::uint32_t walked_crc = 0;
    std::size_t walked = 0;
    CkptError damage;
    bool damaged = false;
    Reader body(payload, payload_len, "payload");
    while (body.remaining() > 0) {
        std::string name = body.str();
        const std::uint64_t len = body.u64();
        const std::uint32_t crc = body.u32();
        if (!body.ok()) {
            if (!damaged)
                damage = body.error();
            damaged = true;
            break;
        }
        std::string where = name.empty() ? "payload" : name;
        if (body.remaining() < len) {
            if (!damaged)
                damage = {where, "truncated section body (need " +
                                     std::to_string(len) + " bytes, have " +
                                     std::to_string(body.remaining()) +
                                     ")"};
            damaged = true;
            break;
        }
        const std::size_t body_at = payload_len - body.remaining();
        walked_crc = crc32Combine(
            walked_crc, crc32(payload + walked, body_at - walked),
            body_at - walked);
        const std::uint8_t *data = payload + body_at;
        const std::uint32_t actual =
            hash && sections.size() >= hash_from
                ? crc32Fnv1a(data, len, fnv)
                : crc32(data, len);
        walked_crc = crc32Combine(walked_crc, actual, len);
        walked = body_at + len;
        if (actual != crc && !damaged) {
            damage = {std::move(where),
                      "section CRC mismatch (corrupt file)"};
            damaged = true;
        }
        sections.push_back({std::move(name), data, len, actual});
        body.skip(len);
    }
    // Bytes a damaged header left unwalked are CRC'd as they lie.
    walked_crc = crc32Combine(
        walked_crc, crc32(payload + walked, payload_len - walked),
        payload_len - walked);
    if (walked_crc != payload_crc) {
        error = {"header", "payload CRC mismatch (corrupt file)"};
        return false;
    }
    if (damaged) {
        error = std::move(damage);
        return false;
    }
    if (hash)
        *hash = fnv;
    return true;
}

bool
decodeFile(const std::vector<std::uint8_t> &image,
           std::vector<Section> &sections, CkptError &error)
{
    sections.clear();
    std::vector<SectionView> views;
    if (!scanFile(image, views, error))
        return false;
    sections.reserve(views.size());
    for (SectionView &v : views)
        sections.push_back(
            Section{std::move(v.name), {v.data, v.data + v.size}});
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
    // One buffer of the file's size, filled by one read.
    bool read_error = std::fseek(f, 0, SEEK_END) != 0;
    const long size = read_error ? -1 : std::ftell(f);
    read_error = size < 0 || std::fseek(f, 0, SEEK_SET) != 0;
    if (!read_error) {
        image.resize(static_cast<std::size_t>(size));
        read_error = std::fread(image.data(), 1, image.size(), f) !=
                         image.size() ||
                     std::ferror(f) != 0;
    }
    std::fclose(f);
    if (read_error) {
        image.clear();
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
