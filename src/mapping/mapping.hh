/**
 * @file
 * Dataflow mapping representation (paper Section II-C): per storage level
 * a temporal tiling factor per dimension, a loop order over those factors,
 * and a spatial unrolling factor per dimension (distributing the
 * instances of the level below across the level's fanout).
 *
 * Conventions (also DESIGN.md Section 3): levels are indexed like the
 * architecture, innermost first. The tile resident at level l spans
 * shape[l][d] = prod_{k<=l} temporal[k][d] * spatial[k][d]. For every
 * dimension the factors across all levels must multiply exactly to the
 * problem size (divisor-exact mappings, as in Timeloop).
 */

#ifndef SUNSTONE_MAPPING_MAPPING_HH
#define SUNSTONE_MAPPING_MAPPING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/arch.hh"
#include "workload/workload.hh"

namespace sunstone {

/** Mapping decisions for one storage level. */
struct LevelMapping
{
    /** Temporal tiling factor per dimension (size = numDims). */
    std::vector<std::int64_t> temporal;

    /** Spatial unrolling factor per dimension (product <= fanout). */
    std::vector<std::int64_t> spatial;

    /**
     * Loop order of the temporal loops, outermost first, as a permutation
     * of all DimIds (dims with factor 1 are placeholders).
     */
    std::vector<DimId> order;

    /** @return a neutral level mapping (all factors 1, identity order). */
    static LevelMapping identity(int num_dims);

    /** @return product of spatial factors. */
    std::int64_t spatialProduct() const;
};

/**
 * Reusable buffers for Mapping::valid(): the running cumulative tile
 * shape, per-tensor footprints (filled by the cost model's own validity
 * pass), the permutation-check bitmap, and the mesh-packing factor list. Validity is on every evaluation's critical
 * path, and the historical implementation re-allocated (and re-derived
 * tile shapes from scratch) per level; with a scratch the check is
 * allocation-free and incremental. One scratch per thread — see
 * EvalScratch, which embeds one for the cost model's hot path.
 */
struct ValidityScratch
{
    std::vector<std::int64_t> shape;
    std::vector<std::int64_t> footprints;
    std::vector<char> seen;
    std::vector<std::int64_t> meshFactors;
};

/** A complete mapping of a workload onto an architecture. */
class Mapping
{
  public:
    Mapping() = default;

    /** @param num_levels levels in the architecture
     *  @param num_dims dimensions in the workload */
    Mapping(int num_levels, int num_dims);

    int numLevels() const { return static_cast<int>(levels.size()); }
    int numDims() const
    {
        return levels.empty() ? 0
                              : static_cast<int>(levels[0].temporal.size());
    }

    LevelMapping &level(int l) { return levels.at(l); }
    const LevelMapping &level(int l) const { return levels.at(l); }

    /** @return cumulative tile shape at level l (see file header). */
    std::vector<std::int64_t> tileShape(int l) const;

    /** tileShape() into caller storage, for allocation-free loops. */
    void tileShape(int l, std::vector<std::int64_t> &shape) const;

    /** @return per-tensor footprints (words) of the level-l tile. */
    std::vector<std::int64_t> footprints(int l, const Workload &wl) const;

    /** @return product over all levels and dims of the spatial factors. */
    std::int64_t totalSpatial() const;

    /**
     * Full validity check: factor products match problem dims, spatial
     * products respect fanouts, and every stored tile fits its level.
     *
     * @param ba bound architecture/workload pair
     * @param why optional out-parameter receiving the failure reason
     */
    bool valid(const BoundArch &ba, std::string *why = nullptr) const;

    /**
     * Allocation-free variant of valid(): identical checks in the
     * identical order with identical failure strings, but every
     * temporary lives in the caller-provided scratch and tile shapes
     * accumulate incrementally instead of being re-derived per level.
     */
    bool valid(const BoundArch &ba, ValidityScratch &vs,
               std::string *why = nullptr) const;

    /** Renders the mapping as an indented loop nest for humans. */
    std::string toString(const BoundArch &ba) const;

  private:
    std::vector<LevelMapping> levels;
};

/**
 * @return a mapping that keeps every loop at the DRAM level (temporal
 * factors = problem sizes outermost, everything else 1). Always valid on
 * architectures whose innermost tile (one word per tensor) fits L1; used
 * as the "naive" reference and as a search fallback.
 */
Mapping naiveMapping(const BoundArch &ba);

} // namespace sunstone

#endif // SUNSTONE_MAPPING_MAPPING_HH
