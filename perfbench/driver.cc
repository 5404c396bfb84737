/**
 * @file
 * Benchmark driver: one aqsim_cli run, stamped from the outside.
 *
 * The driver walks aqsim_cli's own path — harness::defaultCluster ->
 * workloads::makeWorkload -> core::parsePolicy ->
 * supervise::RunSupervisor::run with the same EngineOptions — so the
 * process wall-clock of one driver run is what an aqsim_cli user waits
 * for. It accepts the subset of aqsim_cli flags the benchmark uses,
 * with the same names and defaults.
 *
 * Timing stamps come from two public seams only:
 *  - RunRequest::onClusterBuilt, called on each freshly built cluster;
 *  - a delegating QuantumPolicy wrapper. Its reset() (Synchronizer::
 *    begin, once per attempt) marks the first quantum, and each next()
 *    (Synchronizer::completeQuantum, on the coordinator of every
 *    engine) marks a quantum boundary. name() and serialize() are
 *    forwarded, so config fingerprints and checkpoint bytes are those
 *    of the plain policy.
 *
 * With --spans the driver also records named spans around its calls
 * into each layer. After an in-process run it reads out the run's own
 * final cluster (event and MPI counters; hash, serialize, encode,
 * decode, write and load of its image). A distributed run leaves no
 * cluster in this process, so there a probe builds, reads out and
 * destroys one pristine cluster before the run. Spans stay in memory
 * and are written with the result.
 *
 * Output: one JSON object on stdout (see perfbench/README.md).
 * Timestamps are CLOCK_MONOTONIC nanoseconds, comparable with the
 * runner's time.monotonic().
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aqsim.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/manager.hh"

using namespace aqsim;

namespace
{

std::int64_t
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

/** Resident set of this process in bytes (/proc/self/statm). */
std::int64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::int64_t size = 0;
    std::int64_t resident = 0;
    statm >> size >> resident;
    return resident * sysconf(_SC_PAGESIZE);
}

double
cpuSeconds(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

/** Named spans kept in memory until the run ends. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    /** Open a span; @return its id (-1 when tracing is off). */
    int
    open(const std::string &name, int parent = -1)
    {
        if (!on_)
            return -1;
        spans_.push_back({name, monoNs(), 0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].end = monoNs();
    }

    /** Record a span whose interval was stamped elsewhere. */
    int
    add(const std::string &name, std::int64_t start, std::int64_t end,
        int parent)
    {
        if (!on_)
            return -1;
        spans_.push_back({name, start, end, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    std::string
    json() const
    {
        std::string out = "[";
        char buf[256];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"start\":%" PRId64
                          ",\"end\":%" PRId64 ",\"parent\":%d}",
                          i ? "," : "", s.name.c_str(), s.start, s.end,
                          s.parent);
            out += buf;
        }
        return out + "]";
    }

  private:
    struct Span
    {
        std::string name;
        std::int64_t start;
        std::int64_t end;
        int parent;
    };

    bool on_;
    std::vector<Span> spans_;
};

/** Per-run stamps written by the policy wrapper. */
struct QuantumStamps
{
    /** Record every next() (--spans); reset() is always stamped. */
    bool traced = false;
    /** One stamp per reset(), i.e. per engine attempt. */
    std::vector<std::int64_t> resets;
    /** Index into nexts of each attempt's first boundary. */
    std::vector<std::size_t> attemptBegin;
    /** Entry stamp of every next() call. */
    std::vector<std::int64_t> nexts;
    /** Time spent inside the wrapped next(). */
    std::int64_t policyNs = 0;
};

/** Forwards every QuantumPolicy call to a wrapped instance. */
class DelegatingPolicy : public core::QuantumPolicy
{
  public:
    explicit DelegatingPolicy(std::unique_ptr<core::QuantumPolicy> inner)
        : inner_(std::move(inner))
    {}

    Tick initialQuantum() const override { return inner_->initialQuantum(); }
    Tick next(std::uint64_t packets) override { return inner_->next(packets); }
    void reset() override { inner_->reset(); }
    std::string name() const override { return inner_->name(); }
    std::unique_ptr<core::QuantumPolicy>
    clone() const override
    {
        return inner_->clone();
    }
    void serialize(ckpt::Writer &w) const override { inner_->serialize(w); }
    void deserialize(ckpt::Reader &r) override { inner_->deserialize(r); }

  private:
    std::unique_ptr<core::QuantumPolicy> inner_;
};

/**
 * Stamps reset() and next() of @p Base. Deriving from the concrete
 * FixedQuantumPolicy (instead of delegating to one) keeps
 * Synchronizer::conservative()'s dynamic type check true, which the
 * distributed engine requires.
 */
template <class Base>
class StampedPolicy final : public Base
{
  public:
    template <class... CtorArgs>
    explicit StampedPolicy(QuantumStamps &stamps, CtorArgs &&...args)
        : Base(std::forward<CtorArgs>(args)...), stamps_(stamps)
    {}

    Tick
    next(std::uint64_t packets) override
    {
        if (!stamps_.traced)
            return Base::next(packets);
        const std::int64_t start = monoNs();
        const Tick q = Base::next(packets);
        stamps_.nexts.push_back(start);
        stamps_.policyNs += monoNs() - start;
        return q;
    }

    void
    reset() override
    {
        stamps_.resets.push_back(monoNs());
        stamps_.attemptBegin.push_back(stamps_.nexts.size());
        Base::reset();
    }

  private:
    QuantumStamps &stamps_;
};

std::unique_ptr<core::QuantumPolicy>
stampedPolicy(const std::string &spec, QuantumStamps &stamps)
{
    auto inner = core::parsePolicy(spec);
    if (dynamic_cast<const core::FixedQuantumPolicy *>(inner.get()))
        return std::make_unique<StampedPolicy<core::FixedQuantumPolicy>>(
            stamps, inner->initialQuantum());
    return std::make_unique<StampedPolicy<DelegatingPolicy>>(
        stamps, std::move(inner));
}

/** aqsim_cli's count parser, unchanged: a whole strtoull number, else fatal. */
std::uint64_t
parseCount(const std::string &text, const std::string &spec)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        fatal("bad count '%s' in '%s'", text.c_str(), spec.c_str());
    return static_cast<std::uint64_t>(v);
}

/**
 * --inject-fail in the one form the benchmark uses, "attempt:quantum",
 * parsed as aqsim_cli parses it. Lists and failure kinds are refused,
 * so every value the driver accepts means the same to aqsim_cli.
 */
std::vector<supervise::InjectedFailure>
parseInjectFail(const std::string &spec)
{
    if (spec.empty())
        return {};
    const auto colon = spec.find(':');
    if (colon == std::string::npos ||
        spec.find_first_of(":,", colon + 1) != std::string::npos)
        fatal("expected <attempt>:<quantum>, got '%s'", spec.c_str());
    supervise::InjectedFailure f;
    f.attempt = parseCount(spec.substr(0, colon), spec);
    f.afterQuantum = parseCount(spec.substr(colon + 1), spec);
    return {f};
}

/** Named counters the layer readout fills in. */
using Layers = std::vector<std::pair<std::string, double>>;

/** Resident-set growth of a cluster build, in total and per node. */
void
recordBuildRss(std::int64_t growth, std::size_t nodes, Layers &layers)
{
    layers.emplace_back("engine.build_rss_mb",
                        static_cast<double>(growth) / (1024.0 * 1024.0));
    layers.emplace_back("engine.bytes_per_node",
                        static_cast<double>(growth) /
                            static_cast<double>(nodes));
}

/**
 * Time Cluster::stateHash, each Cluster::serialize* section into a
 * ckpt::Writer, and encodeImage, decodeImage, CheckpointManager::write
 * and loadBest of the resulting image, all on @p cluster.
 */
void
checkpointLayers(const engine::Cluster &cluster,
                 const engine::ClusterParams &params,
                 const std::string &policy_name,
                 const std::string &workload_name,
                 const std::string &image_dir, Tracer &tr, Layers &layers,
                 int parent)
{
    int s = tr.open("engine.state_hash", parent);
    cluster.stateHash();
    tr.close(s);

    ckpt::CheckpointImage image;
    image.configHash =
        ckpt::configFingerprint(params, policy_name, workload_name);
    image.engine = "readout";
    const std::pair<const char *,
                    void (engine::Cluster::*)(ckpt::Writer &) const>
        sections[] = {
            {ckpt::sectionNodes, &engine::Cluster::serializeNodes},
            {ckpt::sectionMpi, &engine::Cluster::serializeMpi},
            {ckpt::sectionNet, &engine::Cluster::serializeNet},
            {ckpt::sectionFault, &engine::Cluster::serializeFault},
            {ckpt::sectionWorkload, &engine::Cluster::serializeWorkload},
        };
    for (const auto &[name, fill] : sections) {
        ckpt::Writer w;
        s = tr.open(std::string("ckpt.serialize.") + name, parent);
        (cluster.*fill)(w);
        tr.close(s);
        layers.emplace_back(std::string("ckpt.section_bytes.") + name,
                            static_cast<double>(w.size()));
        image.sections.push_back(ckpt::Section{name, w.buffer()});
    }
    image.stateHash = ckpt::sectionsHash(image.sections);

    s = tr.open("ckpt.encode", parent);
    const std::vector<std::uint8_t> bytes = ckpt::encodeImage(image);
    tr.close(s);

    ckpt::CheckpointImage decoded;
    ckpt::CkptError error;
    s = tr.open("ckpt.decode", parent);
    const bool decoded_ok = ckpt::decodeImage(bytes, decoded, error);
    tr.close(s);
    if (!decoded_ok || decoded.stateHash != image.stateHash)
        fatal("readout: decode failed: %s", error.str().c_str());

    ckpt::CheckpointManager manager(image_dir, 1, 1);
    s = tr.open("ckpt.write", parent);
    const bool written = manager.write(image, error);
    tr.close(s);
    if (!written)
        fatal("readout: write failed: %s", error.str().c_str());
    std::string path;
    s = tr.open("ckpt.load", parent);
    const bool loaded = manager.loadBest(decoded, path, error);
    tr.close(s);
    if (!loaded || decoded.stateHash != image.stateHash)
        fatal("readout: load failed: %s", error.str().c_str());
}

/**
 * Layer probe of a distributed run (--spans only), which leaves no
 * cluster in the driver's process: build one pristine cluster, in a
 * process whose heap has not yet held one (so the RSS growth is the
 * build's own), time the checkpoint layers on it, and destroy it.
 */
void
probeCluster(const engine::ClusterParams &params,
             const std::string &workload_name, std::size_t nodes,
             double scale, const std::string &policy_name,
             const std::string &image_dir, Tracer &tr, Layers &layers)
{
    const int root = tr.open("probe");
    auto workload = workloads::makeWorkload(workload_name, nodes, scale);

    const std::int64_t rss_before = residentBytes();
    int s = tr.open("engine.build", root);
    auto cluster = std::make_unique<engine::Cluster>(params, *workload);
    tr.close(s);
    recordBuildRss(residentBytes() - rss_before, nodes, layers);

    checkpointLayers(*cluster, params, policy_name, workload->name(),
                     image_dir, tr, layers, root);

    s = tr.open("engine.teardown", root);
    cluster.reset();
    tr.close(s);
    tr.close(root);
}

/** Post-run counters of an in-process cluster (--spans only). */
void
readCluster(engine::Cluster &cluster, Layers &layers)
{
    double events = 0.0;
    double msgs = 0.0;
    double bytes = 0.0;
    const stats::Group &root = cluster.statsRoot();
    for (std::size_t i = 0; i < cluster.numNodes(); ++i) {
        events += static_cast<double>(
            cluster.node(static_cast<NodeId>(i)).queue().numExecuted());
        const std::string node = "node" + std::to_string(i) + ".mpi.";
        if (const auto *st = dynamic_cast<const stats::Scalar *>(
                root.find(node + "msgsSent")))
            msgs += st->value();
        if (const auto *st = dynamic_cast<const stats::Scalar *>(
                root.find(node + "bytesSent")))
            bytes += st->value();
    }
    layers.emplace_back("sim.events", events);
    layers.emplace_back("mpi.msgs_sent", msgs);
    layers.emplace_back("mpi.bytes_sent", bytes);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t main_start = monoNs();
    Args args(argc, argv,
              {"workload", "nodes", "policy", "scale", "seed", "engine",
               "workers", "watchdog", "checkpoint-every",
               "checkpoint-dir", "checkpoint-keep", "supervise",
               "backoff", "inject-fail", "spans", "image-dir"});

    debug::applyEnvironment();
    check::InvariantChecker::instance().applyEnvironment();

    const bool traced = args.getBool("spans", false);
    Tracer tr(traced);
    QuantumStamps stamps;
    stamps.traced = traced;
    Layers layers;

    const std::string workload_name =
        args.getString("workload", "nas.cg");
    const auto nodes = static_cast<std::size_t>(args.getInt("nodes", 8));
    const std::string policy_spec =
        args.getString("policy", "dyn:1.03:0.02:1us:1000us");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const double scale = args.getDouble("scale", 1.0);

    const engine::ClusterParams params =
        harness::defaultCluster(nodes, seed);
    const std::string engine_kind =
        args.getString("engine", "sequential");
    const std::string policy_name = core::parsePolicy(policy_spec)->name();
    const std::string image_dir = args.getString("image-dir", "");
    if (traced && image_dir.empty())
        fatal("--spans requires --image-dir");
    if (traced && engine_kind == "distributed")
        probeCluster(params, workload_name, nodes, scale, policy_name,
                     image_dir, tr, layers);

    int s = tr.open("workloads.make");
    auto workload = workloads::makeWorkload(workload_name, nodes, scale);
    tr.close(s);

    auto policy = stampedPolicy(policy_spec, stamps);
    engine::EngineOptions options;
    options.numWorkers =
        static_cast<std::size_t>(args.getInt("workers", 0));
    options.watchdogSeconds = args.getDouble("watchdog", 0.0);
    // Exchange-phase clocks only in the traced run: the user path
    // (aqsim_cli without --phase-stats) makes no such clock calls.
    options.phaseStats = traced;
    options.checkpointEvery = static_cast<std::uint64_t>(
        args.getInt("checkpoint-every", 0));
    options.checkpointDir = args.getString("checkpoint-dir", "");
    options.checkpointKeepLast =
        static_cast<std::size_t>(args.getInt("checkpoint-keep", 2));

    supervise::RunRequest request;
    if (engine_kind == "threaded")
        request.engineKind = supervise::EngineKind::Threaded;
    else if (engine_kind == "distributed")
        request.engineKind = supervise::EngineKind::Distributed;
    else if (engine_kind != "sequential")
        fatal("unknown engine '%s' (sequential|threaded|distributed)",
              engine_kind.c_str());
    request.engine = options;
    request.cluster = params;
    request.workload = workload.get();
    request.policy = policy.get();
    // In traced runs the first build's RSS growth is the build's own:
    // this process's heap has not held a cluster before it.
    std::vector<std::int64_t> built;
    std::int64_t rss_before_build = 0;
    request.onClusterBuilt = [&](engine::Cluster &) {
        built.push_back(monoNs());
        if (traced && built.size() == 1)
            recordBuildRss(residentBytes() - rss_before_build, nodes,
                           layers);
    };

    supervise::SuperviseOptions sup;
    sup.enabled = args.getBool("supervise", false);
    sup.backoffBaseSeconds = args.getDouble("backoff", 0.25);
    sup.injectFailures = parseInjectFail(args.getString("inject-fail", ""));
    if (!sup.enabled && !sup.injectFailures.empty())
        fatal("--inject-fail requires --supervise");

    supervise::RunSupervisor supervisor(sup);
    if (traced)
        rss_before_build = residentBytes();
    const std::int64_t run_start = monoNs();
    engine::RunResult result;
    try {
        result = supervisor.run(request);
    } catch (const supervise::SuperviseAbort &abort) {
        fatal("%s", abort.what());
    }
    const std::int64_t run_end = monoNs();
    std::unique_ptr<engine::Cluster> cluster = supervisor.takeCluster();
    if (stamps.resets.empty())
        fatal("the policy was never reset: no quantum ran");

    if (traced) {
        const int run = tr.add("supervise.run", run_start, run_end, -1);
        // In-process engines: run start -> first onClusterBuilt is the
        // cluster build; distributed runs build, fork and handshake
        // before their first reset().
        if (!built.empty())
            tr.add("engine.build", run_start, built.front(), run);
        tr.add("run.start", built.empty() ? run_start : built.front(),
               stamps.resets.front(), run);
        const int loop =
            tr.add("run.loop", stamps.resets.front(), run_end, run);
        if (stamps.resets.size() > 1) {
            // Failure (last boundary of the failed attempt) -> the
            // retry's reset(): abort, restore probe, rebuild.
            const std::size_t last_begin = stamps.attemptBegin.back();
            const std::int64_t failed_at =
                last_begin > 0 ? stamps.nexts[last_begin - 1]
                               : stamps.resets.front();
            tr.add("supervise.recover", failed_at, stamps.resets.back(),
                   loop);
            const std::size_t restored =
                last_begin + result.restoredFromQuantum;
            if (result.restoredFromQuantum > 0 &&
                restored - 1 < stamps.nexts.size())
                tr.add("supervise.replay", stamps.resets.back(),
                       stamps.nexts[restored - 1], loop);
        }
        if (cluster) {
            // Layer readout of the run's final cluster, outside the
            // user path; the runner subtracts it from the tracing
            // overhead.
            const int readout = tr.open("readout");
            readCluster(*cluster, layers);
            checkpointLayers(*cluster, params, policy_name,
                             workload->name(), image_dir, tr, layers,
                             readout);
            tr.close(readout);
        }
    }

    if (cluster) {
        s = tr.open("engine.teardown");
        cluster.reset();
        tr.close(s);
    }

    const double self_cpu = cpuSeconds(RUSAGE_SELF);
    const double child_cpu = cpuSeconds(RUSAGE_CHILDREN);

    std::string out;
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"summary\":\"%s\",\"sim\":%llu,\"quanta\":%llu,"
        "\"packets\":%llu,\"stragglers\":%llu,\"next_quantum\":%llu,"
        "\"metric\":%.17g,\"hash\":\"%016llx\",\"attempts\":%llu,"
        "\"restored_from\":%llu,\"mean_quantum_ticks\":%.17g,"
        "\"ckpt_writes\":%llu,\"ckpt_bytes\":%llu,\"ckpt_write_ns\":%.17g,",
        result.summary().c_str(),
        static_cast<unsigned long long>(result.simTicks),
        static_cast<unsigned long long>(result.quanta),
        static_cast<unsigned long long>(result.packets),
        static_cast<unsigned long long>(result.stragglers),
        static_cast<unsigned long long>(result.nextQuantumDeliveries),
        result.metric,
        static_cast<unsigned long long>(result.finalStateHash),
        static_cast<unsigned long long>(result.superviseAttempts),
        static_cast<unsigned long long>(result.restoredFromQuantum),
        result.meanQuantumTicks,
        static_cast<unsigned long long>(result.checkpointsWritten),
        static_cast<unsigned long long>(result.checkpointBytes),
        result.checkpointWriteNs);
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "\"phase_ns\":{\"sort\":%llu,\"xchg\":%llu,\"merge\":%llu,"
        "\"dispatch\":%llu},\"policy_ns\":%" PRId64
        ",\"self_cpu_s\":%.6f,\"child_cpu_s\":%.6f,\"t_main\":%" PRId64
        ",\"t_first_quantum\":%" PRId64 ",\"t_run_end\":%" PRId64
        ",\"resets\":%zu,",
        static_cast<unsigned long long>(result.phaseSortNs),
        static_cast<unsigned long long>(result.phaseExchangeNs),
        static_cast<unsigned long long>(result.phaseMergeNs),
        static_cast<unsigned long long>(result.phaseDispatchNs),
        stamps.policyNs, self_cpu, child_cpu, main_start,
        stamps.resets.front(), run_end, stamps.resets.size());
    out += buf;

    // Per-quantum spans, chained within each attempt.
    std::string counts;
    std::string spans;
    for (std::size_t a = 0; a < stamps.resets.size(); ++a) {
        const std::size_t begin = stamps.attemptBegin[a];
        const std::size_t end = a + 1 < stamps.resets.size()
                                    ? stamps.attemptBegin[a + 1]
                                    : stamps.nexts.size();
        if (a)
            counts += ',';
        counts += std::to_string(end - begin);
        std::int64_t prev = stamps.resets[a];
        for (std::size_t i = begin; i < end; ++i) {
            if (!spans.empty())
                spans += ',';
            spans += std::to_string(stamps.nexts[i] - prev);
            prev = stamps.nexts[i];
        }
    }
    out += "\"attempt_quanta\":[" + counts + "],\"quantum_ns\":[" + spans +
           "],\"layers\":{";
    for (std::size_t i = 0; i < layers.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", i ? "," : "",
                      layers[i].first.c_str(), layers[i].second);
        out += buf;
    }
    out += "},\"spans\":" + tr.json() + "}";
    std::puts(out.c_str());
    return 0;
}
