/**
 * @file
 * Serializable search state (DESIGN.md §12). A SearchCheckpoint is the
 * JSON snapshot the SearchDriver writes at candidate-batch boundaries
 * (and on exit) when a checkpoint path is configured: schema version,
 * search label, workload fingerprint, RNG cursors, driver counters,
 * the incumbent mapping, and an opaque per-stream payload (beam
 * contents, enumeration indices, GA population, ...). Resuming restores
 * all of it, so an interrupted run finishes bit-identically to an
 * uninterrupted one.
 *
 * Format invariants:
 *  - "version" (kSearchCheckpointVersion) gates parsing; loaders reject
 *    other versions rather than guessing.
 *  - 64-bit values that must round-trip exactly (RNG cursors, the
 *    fingerprint, the seed) are "0x..." hex *strings*, because JSON
 *    numbers only carry 53 bits.
 *  - Doubles are written at max_digits10 so metrics compare bit-equal
 *    after a resume.
 *  - Writes are atomic (temp file + rename), so a kill mid-write leaves
 *    the previous checkpoint intact.
 */

#ifndef SUNSTONE_SEARCH_CHECKPOINT_HH
#define SUNSTONE_SEARCH_CHECKPOINT_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hh"
#include "mapping/mapping.hh"

namespace sunstone {

/** Current checkpoint schema version. */
constexpr int kSearchCheckpointVersion = 1;

/** Snapshot of one search's resumable state. */
struct SearchCheckpoint
{
    int version = kSearchCheckpointVersion;

    /** Which search wrote this ("timeloop", "sunstone", "net", ...). */
    std::string search;

    /** EvalEngine context fingerprint; guards cross-workload resumes. */
    std::uint64_t workloadFingerprint = 0;

    /** Effective RNG seed of the run. */
    std::uint64_t seed = 0;

    /** SplitMix64 cursors, indexed by logical shard. */
    std::vector<std::uint64_t> rngStates;

    /** Stop reason at snapshot time ("none" while still running). */
    std::string stopReason = "none";

    // Driver counters at the snapshot point. Everything the driver had
    // generated was already consumed (snapshots happen at batch
    // boundaries), so these are exact sequence positions.
    std::int64_t evaluated = 0;
    std::int64_t plateauLength = 0;
    std::int64_t invalidStreak = 0;
    double seconds = 0;

    /**
     * Stream positions consumed, which trails `evaluated` by the
     * warm-start seeds evaluated outside the stream. Serialized only
     * when it differs from `evaluated` (so legacy checkpoints stay
     * byte-identical); -1 on load means "same as evaluated".
     */
    std::int64_t consumed = -1;

    /** Incumbent, when any valid candidate has been seen. */
    bool found = false;
    double bestMetric = std::numeric_limits<double>::infinity();
    Mapping bestMapping;

    /** Opaque per-stream payload (a JSON object rendered to text). */
    std::string streamState = "{}";

    std::string toJson() const;

    /** @param err optional failure message. */
    static bool fromJson(const std::string &text, SearchCheckpoint &out,
                         std::string *err = nullptr);

    /** Atomic write (path + ".tmp", then rename). @return success. */
    bool save(const std::string &path) const;

    static bool load(const std::string &path, SearchCheckpoint &out,
                     std::string *err = nullptr);
};

/** Renders a mapping as {"levels": [{"t": [...], "s": [...], "o": [...]}]}. */
std::string mappingToJson(const Mapping &m);

/**
 * Inverse of mappingToJson. @return false on malformed input: ragged
 * levels, a factor below 1, or an order entry outside [0, numDims).
 */
bool mappingFromJson(const JsonValue &v, Mapping &out);

} // namespace sunstone

#endif // SUNSTONE_SEARCH_CHECKPOINT_HH
