#include "engine/cluster.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "base/logging.hh"
#include "ckpt/checkpoint.hh"

namespace aqsim::engine
{

namespace
{

/** Counter @p name of @p owner as a stats::Value reading it live;
 * nullptr if @p table has no counter of that name. */
template <typename Owner>
std::unique_ptr<stats::Stat>
counterView(const Owner &owner, stats::Descriptors<Owner> table,
            std::string_view name)
{
    for (const stats::Descriptor<Owner> &d : table)
        if (d.counter && name == d.name)
            return std::make_unique<stats::Value>(
                d.name, d.desc, [&owner, counter = d.counter] {
                    return static_cast<double>(owner.*counter);
                });
    return nullptr;
}

/** A node's share of the block: its objects, each on its own
 * alignment, and its program's frame. The frame allowance holds the
 * largest built-in program frame (nas.lu's, 720 B) and its header; a
 * larger one comes from the heap once the block runs out. */
std::size_t
nodeBlockBytes(bool sampling_cpu)
{
    const auto slot = [](std::size_t size, std::size_t align) {
        align = std::max<std::size_t>(align, 16);
        return (size + align - 1) / align * align;
    };
    constexpr std::size_t program_frame_bytes = 768;
    return (sampling_cpu ? slot(sizeof(node::SamplingCpuModel),
                                alignof(node::SamplingCpuModel))
                         : slot(sizeof(node::SimpleCpuModel),
                                alignof(node::SimpleCpuModel))) +
           slot(sizeof(node::NodeSimulator),
                alignof(node::NodeSimulator)) +
           slot(sizeof(mpi::Endpoint), alignof(mpi::Endpoint)) +
           slot(sizeof(workloads::AppContext),
                alignof(workloads::AppContext)) +
           program_frame_bytes;
}

} // namespace

Cluster::Cluster(const ClusterParams &params,
                 workloads::Workload &workload)
    : params_(params), workload_(workload), statsRoot_(*this),
      block_(params.numNodes * nodeBlockBytes(params.samplingCpu))
{
    AQSIM_ASSERT(params.numNodes >= 1);

    controller_ = std::make_unique<net::NetworkController>(
        params.numNodes, params.network, statsRoot_);

    if (params.faults.anyEnabled()) {
        // Fault randomness forks off the master seed (distinct label
        // space from sampling CPUs and app contexts), so the injected
        // fault sequence is a pure function of (seed, traffic).
        Rng fault_master(params.seed);
        faults_ = std::make_unique<fault::FaultInjector>(
            params.numNodes, params.faults,
            fault_master.fork(0xfa000001ULL), statsRoot_);
        controller_->setFaultInjector(faults_.get());
    }

    if (!params.cpuSpeedFactors.empty() &&
        params.cpuSpeedFactors.size() != params.numNodes)
        fatal("cpuSpeedFactors holds %zu entries for %zu nodes",
              params.cpuSpeedFactors.size(), params.numNodes);

    Rng master(params.seed);
    nodes_.reserve(params.numNodes);
    endpoints_.reserve(params.numNodes);
    contexts_.reserve(params.numNodes);
    for (NodeId id = 0; id < params.numNodes; ++id) {
        node::CpuParams cpu_params = params.cpu;
        if (!params.cpuSpeedFactors.empty()) {
            AQSIM_ASSERT(params.cpuSpeedFactors[id] > 0.0);
            cpu_params.opsPerNs *= params.cpuSpeedFactors[id];
        }
        node::CpuModel *cpu;
        if (params.samplingCpu) {
            auto sampling = params.sampling;
            sampling.cpu = cpu_params;
            cpu = block_.make<node::SamplingCpuModel>(
                sampling, master.fork(0x5a00 + id));
        } else {
            cpu = block_.make<node::SimpleCpuModel>(cpu_params);
        }
        nodes_.push_back(
            block_.make<node::NodeSimulator>(id, *cpu, *controller_));
        endpoints_.push_back(block_.make<mpi::Endpoint>(
            id, params.numNodes, *nodes_.back(), params_.mpiParams));
        contexts_.push_back(block_.make<workloads::AppContext>(
            *nodes_.back(), *endpoints_.back(),
            master.fork(0xa110 + id)));
    }

    // Programs are installed after all endpoints exist, so rank 0 can
    // talk to rank N-1 from its very first event. Their frames follow
    // the nodes in the block; every later frame comes from the
    // node's free lists.
    for (NodeId id = 0; id < params.numNodes; ++id) {
        sim::FramePool &pool = nodes_[id]->framePool();
        pool.carveFrom(&block_);
        nodes_[id]->setProgram(workload_.program(*contexts_[id]));
        pool.carveFrom(nullptr);
    }
    nodeStatsAt_ = statsRoot_.children().size();
}

Cluster::~Cluster()
{
    // Programs first: a frame's locals (a posted RecvRequest, a
    // forked send) still refer to their endpoint as they unwind.
    for (node::NodeSimulator *node : nodes_)
        node->endProgram();
    for (std::size_t i = nodes_.size(); i-- > 0;) {
        contexts_[i]->~AppContext();
        endpoints_[i]->~Endpoint();
        node::CpuModel &cpu = nodes_[i]->cpu();
        nodes_[i]->~NodeSimulator();
        cpu.~CpuModel();
    }
}

const stats::Stat *
Cluster::StatsRoot::find(const std::string &path) const
{
    if (const stats::Stat *stat = Group::find(path))
        return stat;
    // "node<i>.<component>.<name>"
    const std::size_t dot = path.find('.');
    const std::size_t dot2 =
        dot == std::string::npos ? dot : path.find('.', dot + 1);
    if (dot2 == std::string::npos || path.compare(0, 4, "node") != 0)
        return nullptr;
    NodeId id = 0;
    const char *digits_end = path.data() + dot;
    const auto [ptr, ec] =
        std::from_chars(path.data() + 4, digits_end, id);
    if (ec != std::errc() || ptr != digits_end || id >= cluster_.numNodes())
        return nullptr;
    const std::string component = path.substr(dot + 1, dot2 - dot - 1);
    const std::string name = path.substr(dot2 + 1);
    auto &view = views_[path];
    if (!view && component == "nic")
        view = counterView(cluster_.nodes_[id]->nic(),
                           node::NicModel::statDescriptors(), name);
    else if (!view && component == "mpi")
        view = counterView(*cluster_.endpoints_[id],
                           mpi::Endpoint::statDescriptors(), name);
    return view.get();
}

bool
Cluster::allDone(NodeId begin, NodeId end) const
{
    for (NodeId id = begin; id < end; ++id)
        if (!nodes_[id]->appDone())
            return false;
    return true;
}

bool
Cluster::anyEventPending(NodeId begin, NodeId end) const
{
    for (NodeId id = begin; id < end; ++id)
        if (!nodes_[id]->queue().empty())
            return true;
    return false;
}

std::string
Cluster::progressReport(Tick clock_floor) const
{
    std::string out;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        char line[192];
        std::snprintf(
            line, sizeof(line),
            "  node%u: now=%llu done=%d pendingEvents=%zu "
            "postedRecvs=%zu unexpected=%zu unacked=%zu "
            "retransmits=%llu\n",
            id,
            static_cast<unsigned long long>(
                std::max(nodes_[id]->queue().now(), clock_floor)),
            nodes_[id]->appDone() ? 1 : 0,
            nodes_[id]->queue().pendingCount(),
            endpoints_[id]->postedRecvCount(),
            endpoints_[id]->unexpectedCount(),
            endpoints_[id]->retryBacklog(),
            static_cast<unsigned long long>(
                endpoints_[id]->retransmits()));
        out += line;
    }
    if (faults_) {
        char line[160];
        std::snprintf(
            line, sizeof(line),
            "  faults: dropped=%llu duplicated=%llu corrupted=%llu "
            "delayed=%llu\n",
            static_cast<unsigned long long>(faults_->totalDropped()),
            static_cast<unsigned long long>(faults_->totalDuplicated()),
            static_cast<unsigned long long>(faults_->totalCorrupted()),
            static_cast<unsigned long long>(faults_->totalDelayed()));
        out += line;
    }
    return out;
}

void
Cluster::serializeNodes(ckpt::Writer &w) const
{
    w.u32(static_cast<std::uint32_t>(nodes_.size()));
    for (const auto &n : nodes_)
        n->serialize(w);
}

void
Cluster::serializeMpi(ckpt::Writer &w) const
{
    w.u32(static_cast<std::uint32_t>(endpoints_.size()));
    for (const auto &ep : endpoints_)
        ep->serialize(w);
}

void
Cluster::serializeNet(ckpt::Writer &w) const
{
    controller_->serialize(w);
}

void
Cluster::serializeFault(ckpt::Writer &w) const
{
    w.boolean(faults_ != nullptr);
    if (!faults_)
        return;
    w.u32(static_cast<std::uint32_t>(nodes_.size() * nodes_.size()));
    faults_->serializeLinkRange(w, 0, nodeCount());
    for (std::uint64_t total : faults_->totals())
        w.u64(total);
}

void
Cluster::serializeWorkload(ckpt::Writer &w) const
{
    w.u32(static_cast<std::uint32_t>(contexts_.size()));
    for (const auto &ctx : contexts_)
        ckpt::putRng(w, ctx->rng());
}

std::uint64_t
ClusterState::hash() const
{
    return ckpt::sectionsHash(sections);
}

ClusterState
Cluster::state() const
{
    ClusterState st;
    st.sections.reserve(5);
    const auto add = [&](const char *name,
                         void (Cluster::*fill)(ckpt::Writer &) const) {
        ckpt::Writer w;
        (this->*fill)(w);
        st.sections.push_back(ckpt::Section{name, w.take()});
    };
    add(ckpt::sectionNodes, &Cluster::serializeNodes);
    add(ckpt::sectionMpi, &Cluster::serializeMpi);
    add(ckpt::sectionNet, &Cluster::serializeNet);
    add(ckpt::sectionFault, &Cluster::serializeFault);
    add(ckpt::sectionWorkload, &Cluster::serializeWorkload);
    st.finishTicks.reserve(nodes_.size());
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        st.finishTicks.push_back(nodes_[id]->appFinishTick());
        st.retransmits += endpoints_[id]->retransmits();
    }
    if (faults_)
        st.faultTotals = faults_->totals();
    return st;
}

std::uint64_t
Cluster::stateHash() const
{
    return state().hash();
}

ClusterSlice
Cluster::slice(NodeId begin, NodeId end) const
{
    AQSIM_ASSERT(begin <= end && end <= nodes_.size());
    ClusterSlice s;
    ckpt::Writer nodes, mpi, workload, links;
    for (NodeId id = begin; id < end; ++id) {
        nodes_[id]->serialize(nodes);
        endpoints_[id]->serialize(mpi);
        ckpt::putRng(workload, contexts_[id]->rng());
        s.finishTicks.push_back(nodes_[id]->appFinishTick());
        s.retransmits += endpoints_[id]->retransmits();
    }
    s.nodes = nodes.take();
    s.mpi = mpi.take();
    s.workload = workload.take();
    if (faults_) {
        faults_->serializeLinkRange(links, begin, end);
        s.faultLinks = links.take();
        s.faultTotals = faults_->totals();
    }
    return s;
}

ClusterState
Cluster::splice(const std::vector<ClusterSlice> &slices) const
{
    const auto n = static_cast<std::uint32_t>(nodes_.size());
    ClusterState st;
    ckpt::Writer nodes, mpi, net, fault, workload;
    nodes.u32(n);
    mpi.u32(n);
    workload.u32(n);
    fault.boolean(faults_ != nullptr);
    if (faults_)
        fault.u32(n * n);
    for (const ClusterSlice &s : slices) {
        nodes.bytes(s.nodes.data(), s.nodes.size());
        mpi.bytes(s.mpi.data(), s.mpi.size());
        workload.bytes(s.workload.data(), s.workload.size());
        fault.bytes(s.faultLinks.data(), s.faultLinks.size());
        for (std::size_t i = 0; i < st.faultTotals.size(); ++i)
            st.faultTotals[i] += s.faultTotals[i];
        st.finishTicks.insert(st.finishTicks.end(), s.finishTicks.begin(),
                              s.finishTicks.end());
        st.retransmits += s.retransmits;
    }
    AQSIM_ASSERT(st.finishTicks.size() == n);
    if (faults_)
        for (std::uint64_t total : st.faultTotals)
            fault.u64(total);
    serializeNet(net);
    st.sections.reserve(5);
    st.sections.push_back({ckpt::sectionNodes, nodes.take()});
    st.sections.push_back({ckpt::sectionMpi, mpi.take()});
    st.sections.push_back({ckpt::sectionNet, net.take()});
    st.sections.push_back({ckpt::sectionFault, fault.take()});
    st.sections.push_back({ckpt::sectionWorkload, workload.take()});
    return st;
}

void
Cluster::writeSlice(ckpt::Writer &w, const ClusterSlice &slice)
{
    w.blob(slice.nodes);
    w.blob(slice.mpi);
    w.blob(slice.workload);
    w.blob(slice.faultLinks);
    for (std::uint64_t total : slice.faultTotals)
        w.u64(total);
    w.u32(static_cast<std::uint32_t>(slice.finishTicks.size()));
    for (Tick t : slice.finishTicks)
        w.u64(t);
    w.u64(slice.retransmits);
}

bool
Cluster::readSlice(ckpt::Reader &r, NodeId begin, NodeId end,
                   ClusterSlice &slice) const
{
    slice.nodes = r.blob();
    slice.mpi = r.blob();
    slice.workload = r.blob();
    slice.faultLinks = r.blob();
    for (std::uint64_t &total : slice.faultTotals)
        total = r.u64();
    const std::uint32_t owned = r.u32();
    if (!r.ok() || owned != end - begin ||
        slice.faultLinks.empty() == (faults_ && begin < end))
        return false;
    slice.finishTicks.resize(owned);
    for (Tick &t : slice.finishTicks)
        t = r.u64();
    slice.retransmits = r.u64();
    return r.ok();
}

void
Cluster::appendNodeStats(NodeId begin, NodeId end,
                         std::vector<std::uint64_t> &out) const
{
    AQSIM_ASSERT(begin <= end && end <= nodes_.size());
    for (NodeId id = begin; id < end; ++id) {
        stats::appendValues(nodes_[id]->nic(),
                            node::NicModel::statDescriptors(), out);
        stats::appendValues(*endpoints_[id],
                            mpi::Endpoint::statDescriptors(), out);
    }
}

void
Cluster::adoptNodeStats(std::vector<std::uint64_t> values)
{
    adoptedNodeStats_ = std::move(values);
}

void
Cluster::dumpStats(std::ostream &out, stats::Format format) const
{
    std::vector<std::uint64_t> own;
    if (adoptedNodeStats_.empty())
        appendNodeStats(0, static_cast<NodeId>(nodes_.size()), own);
    const std::vector<std::uint64_t> &values =
        adoptedNodeStats_.empty() ? own : adoptedNodeStats_;
    const std::uint64_t *at = values.data();
    const std::uint64_t *end = at + values.size();

    // The root holds groups only; the nodes come between the groups
    // built with the cluster and the ones added later, the order a
    // tree with per-node groups used to dump in.
    stats::Dump dump(out, format);
    AQSIM_ASSERT(statsRoot_.statList().empty());
    const auto &groups = statsRoot_.children();
    for (std::size_t i = 0; i <= groups.size(); ++i) {
        if (i == nodeStatsAt_) {
            for (NodeId id = 0; id < nodes_.size(); ++id) {
                const std::string node = "cluster.node" + std::to_string(id);
                at = dump.values(node + ".nic",
                                 node::NicModel::statDescriptors(), at, end);
                at = dump.values(node + ".mpi",
                                 mpi::Endpoint::statDescriptors(), at, end);
            }
            AQSIM_ASSERT(at == end);
        }
        if (i < groups.size())
            dump.group(*groups[i], "cluster");
    }
}

} // namespace aqsim::engine
