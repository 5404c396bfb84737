#include "ckpt/checkpoint.hh"

#include <utility>

#include "core/synchronizer.hh"
#include "engine/cluster.hh"

namespace aqsim::ckpt
{

const char *const sectionMeta = "meta";
const char *const sectionSync = "sync";
const char *const sectionNodes = "nodes";
const char *const sectionMpi = "mpi";
const char *const sectionNet = "net";
const char *const sectionFault = "fault";
const char *const sectionWorkload = "workload";
const char *const sectionEngine = "engine";

std::uint64_t
sectionsHash(const std::vector<Section> &sections)
{
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const Section &s : sections)
        h = fnv1a(s.body.data(), s.body.size(), h);
    return h;
}

namespace
{

void
putFaultWindows(Writer &w, const engine::ClusterParams &params)
{
    const auto &f = params.faults;
    w.u32(static_cast<std::uint32_t>(f.linkDown.size()));
    for (const auto &win : f.linkDown) {
        w.u32(win.a);
        w.u32(win.b);
        w.u64(win.from);
        w.u64(win.to);
    }
    auto put_node_windows = [&w](const auto &windows) {
        w.u32(static_cast<std::uint32_t>(windows.size()));
        for (const auto &win : windows) {
            w.u32(win.node);
            w.u64(win.from);
            w.u64(win.to);
        }
    };
    put_node_windows(f.nodeCrash);
    put_node_windows(f.nodePause);
    w.u32(static_cast<std::uint32_t>(f.lossBursts.size()));
    for (const auto &b : f.lossBursts) {
        w.u64(b.from);
        w.u64(b.to);
        w.f64(b.rate);
    }
}

} // namespace

const std::vector<std::uint8_t> *
CheckpointImage::find(const std::string &name) const
{
    for (const Section &s : sections)
        if (s.name == name)
            return &s.body;
    return nullptr;
}

std::uint64_t
configFingerprint(const engine::ClusterParams &params,
                  const std::string &policy_name,
                  const std::string &workload_name)
{
    Writer w;
    w.u64(params.numNodes);
    w.u64(params.seed);

    const auto &nic = params.network.nic;
    w.u64(nic.txLatency);
    w.u64(nic.rxLatency);
    w.f64(nic.bytesPerNs);
    w.u32(nic.mtu);
    w.u64(nic.txOverhead);
    w.boolean(params.network.switchModel != nullptr);

    w.f64(params.cpu.opsPerNs);
    w.u32(static_cast<std::uint32_t>(params.cpuSpeedFactors.size()));
    for (double f : params.cpuSpeedFactors)
        w.f64(f);

    const auto &m = params.mpiParams;
    w.u64(m.eagerThreshold);
    w.u64(m.ackWindowBytes);
    w.u64(m.sendOverhead);
    w.u64(m.recvOverhead);
    w.f64(m.copyBytesPerNs);
    w.u32(m.frameOverhead);
    w.u32(m.ctrlFrameBytes);
    w.boolean(m.reliable);
    w.u64(m.retryTimeout);
    w.f64(m.retryBackoff);
    w.u32(m.maxRetries);

    w.boolean(params.samplingCpu);
    w.f64(params.sampling.detailFraction);
    w.f64(params.sampling.fastForwardCost);
    w.f64(params.sampling.timingNoise);

    const auto &f = params.faults;
    w.f64(f.dropRate);
    w.f64(f.duplicateRate);
    w.f64(f.corruptRate);
    w.f64(f.jitterRate);
    w.u64(f.maxJitterTicks);
    putFaultWindows(w, params);

    w.str(policy_name);
    w.str(workload_name);
    return w.hash();
}

CheckpointImage
buildImage(const core::Synchronizer &sync, std::uint64_t config_hash,
           const std::string &engine_name,
           std::vector<Section> state_sections,
           std::vector<std::uint8_t> engine_state)
{
    CheckpointImage image;
    image.quantumIndex = sync.numQuanta();
    image.quantumStart = sync.quantumStart();
    image.quantumEnd = sync.quantumEnd();
    image.configHash = config_hash;
    image.engine = engine_name;

    Writer w;
    sync.serialize(w);
    image.sections.reserve(state_sections.size() + 2);
    image.sections.push_back(Section{sectionSync, w.take()});
    for (Section &s : state_sections)
        image.sections.push_back(std::move(s));
    if (!engine_state.empty())
        image.sections.push_back(
            Section{sectionEngine, std::move(engine_state)});
    return image;
}

namespace
{

/** Frame @p image's sections, whose CRCs @p views already hold, behind
 * a meta section that carries @p state_hash. */
std::vector<std::uint8_t>
frameImage(const CheckpointImage &image, std::uint64_t state_hash,
           std::vector<SectionView> views)
{
    Writer meta;
    meta.u64(image.quantumIndex);
    meta.u64(image.quantumStart);
    meta.u64(image.quantumEnd);
    meta.u64(image.configHash);
    meta.u64(state_hash);
    meta.str(image.engine);
    const std::vector<std::uint8_t> &body = meta.buffer();
    views.insert(views.begin(),
                 SectionView{sectionMeta, body.data(), body.size(),
                             crc32(body.data(), body.size())});
    return frameFile(views);
}

std::vector<SectionView>
viewsOf(const CheckpointImage &image)
{
    std::vector<SectionView> views;
    views.reserve(image.sections.size() + 1);
    for (const Section &s : image.sections)
        views.push_back({s.name, s.body.data(), s.body.size(), 0});
    return views;
}

/**
 * decodeImage's checks in one scan of @p file_image: the container and
 * every CRC, then the meta fields (into @p image, sections aside) and
 * the state hash of the remaining @p views.
 */
bool
checkImage(const std::vector<std::uint8_t> &file_image,
           CheckpointImage &image, std::vector<SectionView> &views,
           CkptError &error)
{
    std::uint64_t actual = 0;
    if (!scanFile(file_image, views, error, &actual, 1))
        return false;
    if (views.empty() || views.front().name != sectionMeta) {
        error = {sectionMeta, "first section is not \"meta\""};
        return false;
    }

    Reader meta(views.front().data, views.front().size, sectionMeta);
    image.quantumIndex = meta.u64();
    image.quantumStart = meta.u64();
    image.quantumEnd = meta.u64();
    image.configHash = meta.u64();
    image.stateHash = meta.u64();
    image.engine = meta.str();
    if (!meta.ok()) {
        error = meta.error();
        return false;
    }
    if (actual != image.stateHash) {
        error = {sectionMeta,
                 "state hash mismatch (meta promises another "
                 "section set than the file holds)"};
        return false;
    }
    return true;
}

} // namespace

std::vector<std::uint8_t>
encodeImage(const CheckpointImage &image)
{
    std::vector<SectionView> views = viewsOf(image);
    for (SectionView &v : views)
        v.crc = crc32(v.data, v.size);
    return frameImage(image, image.stateHash, std::move(views));
}

std::vector<std::uint8_t>
sealImage(const CheckpointImage &image)
{
    std::vector<SectionView> views = viewsOf(image);
    std::uint64_t hash = fnv1a(nullptr, 0);
    for (SectionView &v : views)
        v.crc = crc32Fnv1a(v.data, v.size, hash);
    return frameImage(image, hash, std::move(views));
}

bool
decodeImage(const std::vector<std::uint8_t> &file_image,
            CheckpointImage &image, CkptError &error)
{
    std::vector<SectionView> views;
    if (!checkImage(file_image, image, views, error))
        return false;
    image.sections.clear();
    image.sections.reserve(views.size() - 1);
    for (auto v = views.begin() + 1; v != views.end(); ++v)
        image.sections.push_back(
            Section{std::move(v->name), {v->data, v->data + v->size}});
    return true;
}

bool
verifyImage(const std::vector<std::uint8_t> &file_image, CkptError &error)
{
    CheckpointImage meta;
    std::vector<SectionView> views;
    return checkImage(file_image, meta, views, error);
}

bool
compareImages(const CheckpointImage &golden,
              const CheckpointImage &replayed, CkptError &error)
{
    if (golden.quantumIndex != replayed.quantumIndex) {
        error = {sectionMeta, "quantum index differs"};
        return false;
    }
    if (golden.configHash != replayed.configHash) {
        error = {sectionMeta, "config fingerprint differs"};
        return false;
    }
    for (const Section &g : golden.sections) {
        const auto *body = replayed.find(g.name);
        if (!body) {
            error = {g.name, "section missing from replayed state"};
            return false;
        }
        if (*body != g.body) {
            error = {g.name,
                     "replayed state diverges from checkpoint ("
                     + std::to_string(g.body.size()) + " vs "
                     + std::to_string(body->size()) + " bytes)"};
            return false;
        }
    }
    for (const Section &r : replayed.sections) {
        if (!golden.find(r.name)) {
            error = {r.name, "section missing from checkpoint"};
            return false;
        }
    }
    if (golden.stateHash != replayed.stateHash) {
        error = {sectionMeta, "state hash differs"};
        return false;
    }
    return true;
}

} // namespace aqsim::ckpt
