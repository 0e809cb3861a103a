/**
 * @file
 * Hierarchical spatial-accelerator description (paper Section II-A,
 * Fig. 1): a stack of storage levels, innermost first and DRAM last, each
 * with an optional spatial fanout of the level below it. Buffers may be
 * unified or partitioned per datatype, and a partition may bypass a level
 * entirely (e.g. weights skip the Simba global buffer).
 *
 * An ArchSpec is workload independent; a BoundArch pairs it with a
 * Workload, assigning each tensor to a partition so capacities, bypass,
 * and per-access energies can be queried per tensor.
 */

#ifndef SUNSTONE_ARCH_ARCH_HH
#define SUNSTONE_ARCH_ARCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace sunstone {

/** A named capacity partition inside a storage level. */
struct PartitionSpec
{
    std::string name;
    std::int64_t capacityBits = 0;
};

/** One storage level of the hierarchy. */
struct LevelSpec
{
    std::string name;

    /**
     * Unified capacity in bits; used when partitions is empty. Zero with
     * isDram means unbounded.
     */
    std::int64_t capacityBits = 0;

    /** Per-datatype partitions (empty means unified). */
    std::vector<PartitionSpec> partitions;

    /** Partition names that skip this level (data flows through). */
    std::vector<std::string> bypass;

    /**
     * Number of instances of the next-lower level (or MAC lanes for the
     * innermost level) below one instance of this level.
     */
    int fanout = 1;

    /** Read/write bandwidth to children, words per cycle per instance. */
    double readBwWordsPerCycle = 1e18;
    double writeBwWordsPerCycle = 1e18;

    /** Whether the level's fanout network supports multicast. */
    bool multicast = true;

    /**
     * Double-buffered levels overlap refill with compute (the latency
     * model already assumes this, Section V-A) at the cost of half the
     * usable capacity for resident tiles.
     */
    bool doubleBuffered = false;

    /**
     * Optional physical 2D mesh shape of the fanout (meshX * meshY ==
     * fanout). When set, a mapping's spatial factors at this level must
     * be partitionable into an X group and a Y group whose products fit
     * the respective mesh sides (Timeloop-style placement). Zero means
     * unconstrained (only the fanout product is checked).
     */
    int meshX = 0;
    int meshY = 0;

    /** DRAM levels have unchecked capacity. */
    bool isDram = false;
};

/** A complete accelerator: levels (inner to outer) plus compute specs. */
struct ArchSpec
{
    std::string name;
    std::vector<LevelSpec> levels;

    /** MAC operand width in bits (sets MAC energy). */
    int macBits = 16;

    double clockGhz = 1.0;

    int numLevels() const { return static_cast<int>(levels.size()); }

    /** @return total MAC lanes = product of all fanouts. */
    std::int64_t totalFanout() const;

    /** Sanity checks; fatal() on inconsistency. */
    void validate() const;
};

/**
 * Residency class of a tensor within a fused-subgraph evaluation (see
 * DESIGN.md §13). Boundary tensors behave exactly as in per-layer
 * scheduling: they live in DRAM and stream through the hierarchy.
 * Ephemeral tensors are inter-op intermediates of a fused subgraph: when
 * a mapping keeps the whole tensor resident at its outermost on-chip
 * storage level, the DRAM round-trip (the producer's final drain, the
 * consumer's initial fill) is never performed and the cost model drops
 * it; a mapping that does not achieve full residency is charged the DRAM
 * traffic as usual (the "spill" behavior, identical to a boundary
 * tensor), so evaluation stays well-defined over the whole search space.
 */
enum class Residency { InputBoundary, OutputBoundary, Ephemeral };

/**
 * An architecture bound to a workload: every tensor is assigned to a
 * partition, so storage membership, capacity, and access energy become
 * per-(level, tensor) queries. Binding is by explicit map or by the
 * default rule: exact tensor-name match first, then outputs to an
 * output-ish partition (ofmap/out/psum/nbout), then remaining inputs to
 * remaining partitions in declaration order.
 */
class BoundArch
{
  public:
    /**
     * Copies both descriptions, so temporaries are safe to pass.
     *
     * @param arch architecture
     * @param wl workload
     * @param tensor_to_partition optional explicit assignment by name
     */
    BoundArch(ArchSpec arch, Workload wl,
              const std::map<std::string, std::string> &tensor_to_partition
              = {});

    const ArchSpec &arch() const { return arch_; }
    const Workload &workload() const { return wl_; }

    /**
     * Process-unique identity of this binding's construction, from a
     * monotone counter (never recycled, so a new BoundArch landing at a
     * freed one's address can never alias it). Copies share the uid:
     * a copy is semantically identical, and the only post-construction
     * mutation (setResidency) does not affect anything callers key on
     * the uid — EvalScratch caches only residency-independent derived
     * data (storage chains, problem footprints, indexing-dim sets).
     */
    std::uint64_t uid() const { return uid_; }

    int numLevels() const { return arch_.numLevels(); }
    int numTensors() const { return wl_.numTensors(); }

    /** @return whether tensor t is stored (not bypassed) at level l. */
    bool stores(int level, TensorId t) const { return stores_[level][t]; }

    /** @return innermost level storing t. */
    int innermostLevel(TensorId t) const;

    /** @return next level above `level` that stores t, or -1 if none. */
    int nextLevelAbove(int level, TensorId t) const;

    /** @return read energy (pJ) for one word of tensor t at level l.
     *  Inline: the cost model charges energy per (level, tensor) of
     *  every evaluation. */
    double
    readEnergyPj(int level, TensorId t) const
    {
        return readPj.at(level).at(t);
    }

    /** @return write energy (pJ) for one word of tensor t at level l. */
    double
    writeEnergyPj(int level, TensorId t) const
    {
        return writePj.at(level).at(t);
    }

    /** @return MAC energy (pJ) per operation. */
    double macEnergyPj() const { return macPj_; }

    /**
     * One capacity budget of a non-DRAM level, compiled at binding time:
     * the unified buffer or one partition, with the tensors it stores in
     * ascending id order. limitBits is the usable capacity, halved on a
     * double-buffered level.
     */
    struct CapacityGroup
    {
        struct Member { TensorId tensor; std::int64_t wordBits; };
        std::int64_t limitBits = 0;
        std::vector<Member> members;
    };

    /** @return level l's capacity groups, in partition declaration
     *  order; empty for DRAM, which is unbounded. */
    const std::vector<CapacityGroup> &capacityGroups(int l) const
    {
        return groups_[l];
    }

    /**
     * Checks that per-tensor footprints (words) fit level l, respecting
     * partitions. DRAM always fits. Inline: the validity check calls
     * this for every non-DRAM level of every evaluation.
     *
     * @param level level index
     * @param footprint_words per-tensor footprints; entries for tensors
     *        not stored at this level are ignored
     */
    bool
    fits(int level, const std::vector<std::int64_t> &footprint_words) const
    {
        SUNSTONE_ASSERT((int)footprint_words.size() == numTensors(),
                        "footprint vector size mismatch");
        return fitsBy(level,
                      [&](TensorId t) { return footprint_words[t]; });
    }

    /** fits() for a tile shape: computes each stored tensor's
     *  footprint on the fly and allocates nothing, for capacity probes
     *  in search loops. */
    bool
    fitsShape(int level, const std::vector<std::int64_t> &shape) const
    {
        return fitsBy(level, [&](TensorId t) {
            return wl_.tensor(t).footprint(shape);
        });
    }

    /**
     * @return the capacity budget (bits) available to tensor t at level l
     *         assuming it had its whole group (for tile-growth
     *         heuristics); 0 when l does not store t; unbounded levels
     *         return a large sentinel.
     */
    std::int64_t capacityBitsFor(int level, TensorId t) const;

    /** @return the partition name tensor t is assigned to. */
    const std::string &partitionOf(TensorId t) const;

    // -- Fusion residency ----------------------------------------------

    /**
     * Declares the residency class of tensor t. Defaults are
     * OutputBoundary for outputs and InputBoundary for inputs, which
     * reproduce per-layer behavior exactly. Marking a tensor Ephemeral
     * changes the cost model (conditionally — see Residency) and the
     * engine's structural fingerprint, so fused and unfused variants of
     * one op never share cache entries or dedup groups.
     */
    void setResidency(TensorId t, Residency r);

    /** @return the residency class of tensor t. */
    Residency residency(TensorId t) const { return residency_.at(t); }

    /** @return true when any tensor was marked Ephemeral. */
    bool anyEphemeral() const { return anyEphemeral_; }

    /**
     * @return the level an Ephemeral tensor lives at when fused: the
     * outermost non-DRAM level storing it, or -1 when it is stored
     * on-chip nowhere (such a tensor can never avoid DRAM).
     */
    int residencyLevel(TensorId t) const;

  private:
    /** fits() over footprint(t), queried once per group member. The
     *  sum runs in ascending tensor id within a group, in int64, and
     *  returns at the first overflowing group. */
    template <class Footprint>
    bool
    fitsBy(int level, Footprint &&footprint) const
    {
        for (const CapacityGroup &g : groups_[level]) {
            std::int64_t bits = 0;
            for (const CapacityGroup::Member &mb : g.members)
                bits += footprint(mb.tensor) * mb.wordBits;
            if (bits > g.limitBits)
                return false;
        }
        return true;
    }

    void assignPartitions(
        const std::map<std::string, std::string> &explicit_map);
    void computeStores();
    void computeEnergies();

    ArchSpec arch_;
    Workload wl_;
    std::uint64_t uid_ = 0;
    std::vector<Residency> residency_;
    bool anyEphemeral_ = false;
    std::vector<std::string> tensorPartition;
    std::vector<std::vector<bool>> stores_;      // [level][tensor]
    std::vector<std::vector<CapacityGroup>> groups_; // [level]
    std::vector<std::vector<double>> readPj;     // [level][tensor]
    std::vector<std::vector<double>> writePj;    // [level][tensor]
    double macPj_ = 0;
};

} // namespace sunstone

#endif // SUNSTONE_ARCH_ARCH_HH
