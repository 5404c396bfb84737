/**
 * @file
 * Whole-cluster checkpoint images taken at quantum boundaries.
 *
 * A quantum boundary is the one point where the cluster state is a
 * consistent cut: every frame injected during the quantum has been
 * placed into its destination event queue, the exchange has been
 * merged, and no worker thread holds private state (the run's own
 * thread takes the snapshot alone while the workers are parked). A
 * CheckpointImage captures the architectural state of every layer at
 * that cut — node clocks and event structures, MPI protocol state,
 * network counters and switch occupancy, fault-injector PRNG
 * positions, workload PRNG positions, and the adaptive-quantum policy
 * state — each in its own named, CRC-guarded section.
 *
 * Guest programs are C++20 coroutines whose frames are code, not
 * data, so restore works by deterministic replay: the run is re-executed
 * from quantum 0 and, at the checkpointed quantum, the live state is
 * re-serialized and compared section by section against the image.
 * Any divergence fails loudly, naming the diverging section (see
 * docs/checkpoint-restore.md).
 */

#ifndef AQSIM_CKPT_CHECKPOINT_HH
#define AQSIM_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "ckpt/ckpt_io.hh"

namespace aqsim::core
{
class Synchronizer;
} // namespace aqsim::core

namespace aqsim::engine
{
struct ClusterParams;
} // namespace aqsim::engine

namespace aqsim::ckpt
{

/** Checkpoint section names, in file order. */
extern const char *const sectionMeta;
extern const char *const sectionSync;
extern const char *const sectionNodes;
extern const char *const sectionMpi;
extern const char *const sectionNet;
extern const char *const sectionFault;
extern const char *const sectionWorkload;
extern const char *const sectionEngine;

/** A decoded (or freshly built) whole-cluster checkpoint. */
struct CheckpointImage
{
    /** Quanta completed when the snapshot was taken. */
    std::uint64_t quantumIndex = 0;
    /** Simulated window [start, end) of the *next* quantum. */
    Tick quantumStart = 0;
    Tick quantumEnd = 0;
    /** Fingerprint of the run configuration (must match to restore). */
    std::uint64_t configHash = 0;
    /** FNV-1a over every state-section body, in file order. */
    std::uint64_t stateHash = 0;
    /** Engine that produced the snapshot. */
    std::string engine;

    /** State sections (everything except "meta"). */
    std::vector<Section> sections;

    /** Look up a state section body by name (nullptr if absent). */
    const std::vector<std::uint8_t> *find(const std::string &name) const;
};

/**
 * Chain-hash every state-section body in order — the meta stateHash,
 * and over the cluster's sections alone, Cluster::stateHash.
 */
std::uint64_t sectionsHash(const std::vector<Section> &sections);

/**
 * Fingerprint the run configuration: cluster parameters, policy name
 * and workload name. Restoring a checkpoint into a different
 * configuration is rejected up front with this hash.
 */
std::uint64_t configFingerprint(const engine::ClusterParams &params,
                                const std::string &policy_name,
                                const std::string &workload_name);

/**
 * Frame a snapshot taken at a quantum boundary, after
 * Synchronizer::completeQuantum(): the sync section, then
 * @p state_sections (the cluster's, Cluster::state or
 * Cluster::splice), then the engine section. Every engine's images
 * come from here. The bodies are moved in, not copied, and nothing is
 * hashed: stateHash stays 0 until sealImage (on the checkpoint
 * writer's thread) or the caller fills it.
 *
 * @param engine_state optional extra section body with engine-private
 *        deterministic state (empty = section omitted)
 */
CheckpointImage buildImage(const core::Synchronizer &sync,
                           std::uint64_t config_hash,
                           const std::string &engine_name,
                           std::vector<Section> state_sections,
                           std::vector<std::uint8_t> engine_state);

/**
 * Frame an image into a complete checkpoint file byte image; its meta
 * section carries image.stateHash as the caller set it.
 */
std::vector<std::uint8_t> encodeImage(const CheckpointImage &image);

/**
 * Hash and frame an image: one pass over the section bodies takes
 * their CRCs and the state hash together, and the file's meta section
 * carries that hash (sectionsHash), whatever image.stateHash holds.
 */
std::vector<std::uint8_t> sealImage(const CheckpointImage &image);

/**
 * Parse + validate a checkpoint file byte image. On failure @p error
 * names the offending section. Also recomputes and cross-checks the
 * meta stateHash against the section bodies. One pass checks every
 * CRC and the hash; the bodies are then copied into @p image once.
 */
bool decodeImage(const std::vector<std::uint8_t> &file_image,
                 CheckpointImage &image, CkptError &error);

/**
 * Every check decodeImage makes, without copying a section body out:
 * the read-back verification of a checkpoint write.
 */
bool verifyImage(const std::vector<std::uint8_t> &file_image,
                 CkptError &error);

/**
 * Compare a replayed snapshot against the golden image section by
 * section. @return true when bit-identical; otherwise @p error names
 * the first diverging section, a section only one side holds, or
 * "meta" when the state hashes differ.
 */
bool compareImages(const CheckpointImage &golden,
                   const CheckpointImage &replayed, CkptError &error);

} // namespace aqsim::ckpt

#endif // AQSIM_CKPT_CHECKPOINT_HH
