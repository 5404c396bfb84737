#include "ckpt/run_checkpointer.hh"

#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <system_error>
#include <utility>

#include "base/logging.hh"
#include "core/synchronizer.hh"
#include "engine/run_result.hh"

namespace aqsim::ckpt
{

RunCheckpointer::RunCheckpointer(const RunCkptOptions &options,
                                 const core::Synchronizer &sync,
                                 std::uint64_t config_hash,
                                 std::string engine_name)
    : options_(options), sync_(sync),
      configHash_(config_hash), engineName_(std::move(engine_name))
{
    if (options_.every > 0 && options_.dir.empty())
        fatal("checkpoint cadence set (every %llu quanta) but no "
              "checkpoint directory configured",
              static_cast<unsigned long long>(options_.every));
    if (!options_.dir.empty())
        manager_ = std::make_unique<CheckpointManager>(
            options_.dir, options_.every, options_.keepLast);
}

RunCheckpointer::~RunCheckpointer() { joinWriter(); }

void
RunCheckpointer::begin()
{
    if (options_.restorePath.empty())
        return;

    CkptError error;
    std::error_code ec;
    if (options_.restoreImage) {
        golden_ = options_.restoreImage;
        goldenPath_ = options_.restorePath;
    } else if (std::filesystem::is_directory(options_.restorePath, ec)) {
        // Point --restore at a checkpoint directory and the newest
        // decodable file wins; torn/corrupt candidates are skipped.
        CheckpointManager scan(options_.restorePath, 0, 0);
        auto image = std::make_shared<CheckpointImage>();
        if (!scan.loadBest(*image, goldenPath_, error)) {
            for (const std::string &reason : scan.skipped())
                warn("restore: skipped %s", reason.c_str());
            fatal("restore failed: %s", error.str().c_str());
        }
        for (const std::string &reason : scan.skipped())
            warn("restore: fell back past %s", reason.c_str());
        golden_ = std::move(image);
    } else {
        std::vector<std::uint8_t> raw;
        auto image = std::make_shared<CheckpointImage>();
        if (!readFile(options_.restorePath, raw, error) ||
            !decodeImage(raw, *image, error))
            fatal("restore failed for %s: %s",
                  options_.restorePath.c_str(), error.str().c_str());
        goldenPath_ = options_.restorePath;
        golden_ = std::move(image);
    }

    if (golden_->engine != engineName_)
        fatal("restore rejected: %s was produced by the %s engine; "
              "restore with the same engine (this run is %s) — the "
              "engine-private state section is not portable",
              goldenPath_.c_str(), golden_->engine.c_str(),
              engineName_.c_str());
    if (golden_->configHash != configHash_)
        fatal("restore rejected: %s was taken under a different "
              "configuration (fingerprint %016llx, this run is "
              "%016llx)",
              goldenPath_.c_str(),
              static_cast<unsigned long long>(golden_->configHash),
              static_cast<unsigned long long>(configHash_));
    restoring_ = true;
    inform("restoring from %s (quantum %llu, engine %s): replaying "
           "with per-section divergence checking",
           goldenPath_.c_str(),
           static_cast<unsigned long long>(golden_->quantumIndex),
           golden_->engine.c_str());
}

RunCheckpointer::Due
RunCheckpointer::dueAt(std::uint64_t q) const
{
    Due due;
    due.verify = restoring_ && restoredFrom_ == 0 &&
                 q == golden_->quantumIndex;
    // During replay the quanta up to the golden snapshot would produce
    // the files already on disk; only new ground is checkpointed.
    due.write = manager_ && manager_->due(q) &&
                (!restoring_ || q > golden_->quantumIndex);
    due.stash = options_.stashForPanic && manager_ != nullptr;
    return due;
}

bool
RunCheckpointer::imageDue(std::uint64_t q) const
{
    const Due due = dueAt(q);
    return due.verify || due.write || due.stash;
}

void
RunCheckpointer::onQuantumCompleted(CheckpointImage image)
{
    const std::uint64_t q = sync_.numQuanta();
    const Due due = dueAt(q);

    if (due.verify) {
        image.stateHash = sectionsHash(image.sections);
        CkptError error;
        if (!compareImages(*golden_, image, error))
            fatal("restore divergence at quantum %llu: %s",
                  static_cast<unsigned long long>(q),
                  error.str().c_str());
        restoredFrom_ = q;
        inform("restore verified at quantum %llu (state %016llx)",
               static_cast<unsigned long long>(q),
               static_cast<unsigned long long>(image.stateHash));
    }
    if (!due.write && !due.stash)
        return;

    auto shared = std::make_shared<const CheckpointImage>(std::move(image));
    if (due.stash)
        manager_->stashPanicImage(shared);
    if (due.write) {
        base::MutexLock lock(writerMutex_);
        if (writer_.joinable())
            writer_.join();
        writer_ = std::thread([manager = manager_.get(),
                               image = std::move(shared), q] {
            // A failed write only warns; nothing may escape the thread.
            CkptError error;
            bool written = false;
            try {
                written = manager->write(*image, error);
            } catch (const std::exception &e) {
                error = {"write", e.what()};
            }
            if (!written)
                warn("checkpoint write failed at quantum %llu: %s",
                     static_cast<unsigned long long>(q),
                     error.str().c_str());
        });
    }
}

void
RunCheckpointer::joinWriter()
{
    base::MutexLock lock(writerMutex_);
    if (writer_.joinable())
        writer_.join();
}

void
RunCheckpointer::finish(engine::RunResult &result)
{
    joinWriter();
    if (manager_) {
        const CkptWriteStats stats = manager_->stats();
        result.checkpointsWritten = stats.written;
        result.checkpointBytes = stats.bytes;
        result.checkpointWriteNs = stats.writeNs;
    }
    result.restoredFromQuantum = restoredFrom_;
    if (restoring_ && restoredFrom_ == 0)
        fatal("restore never reached quantum %llu (run ended after "
              "%llu quanta) — the checkpoint belongs to a longer run",
              static_cast<unsigned long long>(golden_->quantumIndex),
              static_cast<unsigned long long>(sync_.numQuanta()));
}

std::string
RunCheckpointer::panicNote()
{
    if (!manager_)
        return "";
    char line[160];
    const CkptWriteStats s = manager_->stats();
    std::snprintf(line, sizeof(line),
                  "  checkpoints: %llu written (%.1f KB, %.2f ms)\n",
                  static_cast<unsigned long long>(s.written),
                  s.bytes / 1024.0, s.writeNs * 1e-6);
    std::string out = line;
    if (restoredFrom_ > 0) {
        std::snprintf(line, sizeof(line),
                      "  restored from quantum %llu\n",
                      static_cast<unsigned long long>(restoredFrom_));
        out += line;
    }
    const std::string path = manager_->writePanicImage();
    if (!path.empty())
        out += "  checkpoint: last quantum boundary written to " +
               path + "\n";
    return out;
}

} // namespace aqsim::ckpt
