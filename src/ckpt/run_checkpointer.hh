/**
 * @file
 * Per-run checkpoint/restore lifecycle, driven by engine::QuantumDriver.
 *
 * The driver owns the quantum loop; this class owns everything
 * checkpoint-shaped inside it. At each quantum boundary (after
 * Synchronizer::completeQuantum(), i.e. on a consistent cut) the
 * driver asks imageDue(); only then does it fetch a state image from
 * the engine and hand it to onQuantumCompleted(), which decides
 * whether to
 *
 *  - write a periodic checkpoint file,
 *  - stash the snapshot for the watchdog's panic dump,
 *  - verify a restore: when the replay reaches the checkpointed
 *    quantum, the live state is compared against the golden image and
 *    any divergence fails the run loudly, naming the section.
 *
 * A checkpoint file is written off the simulation thread: the image
 * moves into one background writer thread, which hashes, encodes,
 * writes, reads back, verifies and rotates it (CheckpointManager::
 * write) while the quanta go on. At most one image is in flight: the
 * writer is joined before the next write starts, in finish(), and in
 * the destructor, so every exit from QuantumDriver::run — a RunAbort
 * unwinding to the supervisor included — leaves the image on disk and
 * verified, and no writer thread outlives the run.
 *
 * Restore is replay-based: guest programs are coroutines (code, not
 * data), so --restore re-executes deterministically from quantum 0
 * and uses the checkpoint as a cryptographic-strength tripwire that
 * the replayed state is bit-identical at the snapshot point.
 */

#ifndef AQSIM_CKPT_RUN_CHECKPOINTER_HH
#define AQSIM_CKPT_RUN_CHECKPOINTER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/manager.hh"

namespace aqsim::engine
{
struct RunResult;
} // namespace aqsim::engine

namespace aqsim::ckpt
{

/** Checkpoint/restore slice of the engine options. */
struct RunCkptOptions
{
    /** Write a checkpoint every N completed quanta (0 = never). */
    std::uint64_t every = 0;
    /** Checkpoint directory (required when every > 0). */
    std::string dir;
    /** Checkpoint file (or directory to auto-pick) to restore from. */
    std::string restorePath;
    /** The image at restorePath, already loaded (null: load it). */
    std::shared_ptr<const CheckpointImage> restoreImage;
    /** Files kept after rotation (0 = unlimited). */
    std::size_t keepLast = 2;
    /** Stash each boundary snapshot for the watchdog panic dump. */
    bool stashForPanic = false;

    /** @return true if any checkpoint/restore work is configured. */
    bool
    enabled() const
    {
        return every > 0 || !restorePath.empty() || stashForPanic;
    }
};

/** Drives checkpoint writes and restore verification for one run. */
class RunCheckpointer
{
  public:
    /**
     * @param config_hash fingerprint of the run configuration
     *        (configFingerprint()); restores reject a mismatch
     */
    RunCheckpointer(const RunCkptOptions &options,
                    const core::Synchronizer &sync,
                    std::uint64_t config_hash, std::string engine_name);
    /** Waits for the image in flight. */
    ~RunCheckpointer();
    RunCheckpointer(const RunCheckpointer &) = delete;
    RunCheckpointer &operator=(const RunCheckpointer &) = delete;

    /**
     * Load and validate the restore image, if one was requested.
     * Fatal on an unusable file or a configuration mismatch.
     */
    void begin();

    /**
     * Would completing quantum @p q need a full state image (restore
     * verify, periodic write, or panic stash)? Asked before a boundary
     * so the engine only serializes (or, distributed, gathers) its
     * state on quanta where an image is actually consumed.
     */
    bool imageDue(std::uint64_t q) const;

    /**
     * Quantum-boundary hook; call after completeQuantum() with the
     * boundary image, when imageDue() said one is needed. A due write
     * first waits for the previous one, then takes the image to the
     * background writer.
     */
    void onQuantumCompleted(CheckpointImage image)
        AQSIM_EXCLUDES(writerMutex_);

    /**
     * Wait for the write in flight, then fold checkpoint/restore
     * stats into the run result.
     */
    void finish(engine::RunResult &result) AQSIM_EXCLUDES(writerMutex_);

    /**
     * Watchdog dump hook: encode and persist the last stashed boundary
     * snapshot. Thread-safe, and never waits for the background
     * writer. @return a line for the dump, or "" if nothing to report.
     */
    std::string panicNote();

    /** @return quantum index the run was verified against (0=none). */
    std::uint64_t restoredFromQuantum() const { return restoredFrom_; }

  private:
    /** What completing quantum q consumes an image for. */
    struct Due
    {
        bool verify = false;
        bool write = false;
        bool stash = false;
    };
    Due dueAt(std::uint64_t q) const;

    /** Wait for the background writer, if one is running. */
    void joinWriter() AQSIM_EXCLUDES(writerMutex_);

    RunCkptOptions options_;
    const core::Synchronizer &sync_;
    std::uint64_t configHash_;
    std::string engineName_;

    std::unique_ptr<CheckpointManager> manager_;
    /** Golden image loaded (or adopted) by begin() in restore mode. */
    std::shared_ptr<const CheckpointImage> golden_;
    std::string goldenPath_;
    bool restoring_ = false;
    std::uint64_t restoredFrom_ = 0;

    /** The background writer: only the run's thread starts or joins
     * it, and the watchdog's dump never touches it. */
    base::Mutex writerMutex_;
    std::thread writer_ AQSIM_GUARDED_BY(writerMutex_);
};

} // namespace aqsim::ckpt

#endif // AQSIM_CKPT_RUN_CHECKPOINTER_HH
