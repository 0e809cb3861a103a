/**
 * @file
 * Persistent cross-layer warm-start store (DESIGN.md §15). Relaxes the
 * net scheduler's exact structural fingerprints to a similarity metric:
 * two layers belong to the same *shape class* when their architecture
 * and einsum access structure match (dimension extents excluded), and
 * within a class similarity is the L2 distance between log2 dimension
 * extents. The store keeps the best mapping seen per exact shape and
 * answers "give me seeds for this layer" with the nearest stored bests,
 * each adapted divisor-exactly to the query's extents. Versioned JSON
 * on disk (like SearchCheckpoint), byte-stable across load/save round
 * trips. This is the first brick of the ROADMAP item-1 cross-request
 * mapping cache.
 */

#ifndef SUNSTONE_SEARCH_WARMSTART_HH
#define SUNSTONE_SEARCH_WARMSTART_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/arch.hh"
#include "mapping/mapping.hh"

namespace sunstone {

/**
 * Adapts a mapping found for one set of dimension extents to a workload
 * with different extents: per dimension, each level keeps the largest
 * divisor of the remaining extent not exceeding the stored factor
 * (spatial slots first, innermost levels first), and any leftover lands
 * in the outermost level's temporal factor. Loop orders copy verbatim.
 * The result is always divisor-exact; spatial fanout bounds hold
 * because adapted factors never exceed the stored ones.
 */
Mapping adaptMapping(const Mapping &m, const BoundArch &ba);

/** Best-mapping store keyed by shape class + exact extents. */
class WarmStartStore
{
  public:
    struct Entry
    {
        std::uint64_t shapeClass = 0;
        std::string name;
        std::vector<std::int64_t> extents;
        /** Best EDP (pJ*s) realized by mapping on this shape. */
        double metric = 0;
        Mapping mapping;
    };

    /**
     * Structural hash of a binding: architecture levels (capacity,
     * fanout, mesh, bypass per tensor) and workload access structure
     * (tensor ranks as (dim, coeff) terms, word widths, output flags),
     * with dimension extents deliberately excluded.
     */
    static std::uint64_t shapeClassKey(const BoundArch &ba);

    /**
     * Loads path; @return false (store untouched) if unreadable, or if
     * an entry's mapping is malformed (see mappingFromJson()) or spans
     * another number of dims than its extents.
     */
    bool load(const std::string &path, std::string *err = nullptr);

    /** Saves atomically (temp + rename). @return false on IO error. */
    bool save(const std::string &path) const;

    std::string toJson() const;
    bool fromJson(const std::string &text, std::string *err = nullptr);

    /**
     * Records a realized best. Keeps the better metric when an entry
     * with the same class and extents exists. @return true when the
     * store changed.
     */
    bool record(const BoundArch &ba, const std::string &name,
                double metric, const Mapping &mapping);

    /**
     * @return up to k seed mappings for ba, adapted to its extents,
     * nearest stored shape first (exact-extent matches sort first at
     * distance zero; ties keep insertion order). Entries whose mapping
     * has another level count than ba are skipped.
     */
    std::vector<Mapping> query(const BoundArch &ba,
                               std::size_t k = 2) const;

    std::size_t size() const { return entries_.size(); }
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

} // namespace sunstone

#endif // SUNSTONE_SEARCH_WARMSTART_HH
