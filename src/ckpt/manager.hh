/**
 * @file
 * On-disk checkpoint lifecycle: periodic writes, rotation, recovery.
 *
 * The manager owns a checkpoint directory and a cadence: every N
 * completed quanta it encodes the current CheckpointImage and writes
 * it via temp-file + atomic rename, then prunes old files down to the
 * keep-last budget. Recovery scans the directory newest-first and
 * falls back to the previous good file when the newest one is torn or
 * corrupt, so a crash mid-write (or a bit flip on disk) degrades to
 * an older checkpoint instead of a failed restore.
 *
 * The manager also keeps a "panic image": the engine stashes the
 * boundary snapshot here each quantum, and the watchdog's dump path
 * encodes the stash and writes it to "panic.aqc" before the process
 * dies — giving the post-mortem a restorable state without ever
 * touching live simulator structures from the watchdog thread.
 */

#ifndef AQSIM_CKPT_MANAGER_HH
#define AQSIM_CKPT_MANAGER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/mutex.hh"
#include "ckpt/checkpoint.hh"

namespace aqsim::ckpt
{

/** Cumulative cost of checkpoint writes in one run. */
struct CkptWriteStats
{
    std::uint64_t written = 0;
    std::uint64_t bytes = 0;
    /** Host wall-clock spent encoding + writing, in ns. */
    double writeNs = 0.0;
};

/** Writes, rotates and recovers checkpoint files in one directory. */
class CheckpointManager
{
  public:
    /**
     * @param dir checkpoint directory (created if missing)
     * @param every write after every N completed quanta (0 = never)
     * @param keep_last files retained after rotation (0 = unlimited)
     */
    CheckpointManager(std::string dir, std::uint64_t every,
                      std::size_t keep_last = 2);

    /** @return true if a checkpoint is due after @p quantum_index. */
    bool due(std::uint64_t quantum_index) const;

    /**
     * Hash + encode (sealImage) and atomically write @p image, verify
     * the write by reading it back and checking it (verifyImage), then
     * rotate old files. The file's state hash is computed here, from
     * the sections; image.stateHash is not read. A write that
     * fails read-back verification is deleted and does *not* trigger
     * rotation, and rotation never deletes the newest verified image
     * — so an in-flight or torn write can never consume the only good
     * checkpoint, even under keep-last-1.
     * @return true on success; failures are I/O errors, not fatal.
     */
    bool write(const CheckpointImage &image, CkptError &error)
        AQSIM_EXCLUDES(statsMutex_);

    /**
     * Test seam: corrupt the next write's encoded bytes before they
     * hit the disk, simulating a torn/bit-flipped in-flight image
     * (read-back verification must catch it and spare the previous
     * good file from rotation).
     */
    void corruptNextWriteForTest() { corruptNextWrite_ = true; }

    /** Newest image proven decodable by write verification (tests). */
    const std::string &verifiedPath() const { return verifiedPath_; }

    /**
     * Recover the newest decodable checkpoint in the directory.
     * Corrupt/torn candidates are skipped (recorded in skipped()).
     *
     * @param out decoded image
     * @param path_out file the image came from
     * @return true if any good checkpoint was found
     */
    bool loadBest(CheckpointImage &out, std::string &path_out,
                  CkptError &error);

    /** Files rejected during the last loadBest(), with reasons. */
    const std::vector<std::string> &skipped() const { return skipped_; }

    /** Write stats so far; safe while a write is in progress. */
    CkptWriteStats stats() const AQSIM_EXCLUDES(statsMutex_);
    const std::string &dir() const { return dir_; }
    std::uint64_t every() const { return every_; }

    /** Checkpoint file path for one quantum index. */
    std::string fileName(std::uint64_t quantum_index) const;

    /** Path of the watchdog panic checkpoint. */
    std::string panicFileName() const;

    /**
     * Stash the boundary snapshot for the watchdog (called by the
     * engine at each quantum boundary; thread-safe). It is encoded
     * only if the watchdog fires.
     */
    void stashPanicImage(std::shared_ptr<const CheckpointImage> image)
        AQSIM_EXCLUDES(panicMutex_);

    /**
     * Encode the stashed panic image and write it to panic.aqc
     * (called from the watchdog dump path). @return the file path, or
     * "" if no boundary snapshot was ever stashed or the write failed.
     */
    std::string writePanicImage() AQSIM_EXCLUDES(panicMutex_);

  private:
    /** Delete all but the newest keepLast_ checkpoint files. */
    void rotate();

    /** Scan dir_ for "ckpt-q*.aqc", sorted newest-first. */
    std::vector<std::pair<std::uint64_t, std::string>> listFiles() const;

    std::string dir_;
    std::uint64_t every_;
    std::size_t keepLast_;
    /** Written by the checkpoint writer's thread, read by the
     * watchdog's dump. */
    mutable base::Mutex statsMutex_;
    CkptWriteStats stats_ AQSIM_GUARDED_BY(statsMutex_);
    std::vector<std::string> skipped_;
    /** Newest write that passed read-back verification. */
    std::string verifiedPath_;
    bool corruptNextWrite_ = false;

    /** Engine thread stashes, watchdog thread writes. */
    base::Mutex panicMutex_;
    std::shared_ptr<const CheckpointImage>
        panicImage_ AQSIM_GUARDED_BY(panicMutex_);
};

} // namespace aqsim::ckpt

#endif // AQSIM_CKPT_MANAGER_HH
