/**
 * @file
 * dMazeRunner-like mapper (Section V baseline "dMaze"): directed
 * enumeration of tilings and unrollings gated by user-specified minimum
 * utilization thresholds (Table V), a restricted analyzed order set, and
 * an optional ban on spatial reduction. Reproduces the tool's documented
 * failure modes: it supports only conventional three-level architectures
 * with one spatial level, assumes symmetric convolutions, and returns
 * *invalid* when no mapping meets the utilization constraints
 * (Section V-B2).
 */

#ifndef SUNSTONE_MAPPERS_DMAZE_MAPPER_HH
#define SUNSTONE_MAPPERS_DMAZE_MAPPER_HH

#include "mappers/mapper.hh"

namespace sunstone {

/** Knobs mirroring Table V. */
struct DMazeOptions
{
    double l1Util = 0.8;
    double l2Util = 0.5;
    double peUtil = 0.8;
    bool allowSpatialReduction = false;
    /** Cap on evaluated mappings (the tool enumerates aggressively). */
    std::int64_t maxEvaluations = 300000;
    bool optimizeEdp = true;

    /** Table V fast/aggressive configuration (repository default). */
    static DMazeOptions
    fast()
    {
        return DMazeOptions{};
    }

    /** Table V slow/conservative configuration. */
    static DMazeOptions
    slow()
    {
        DMazeOptions o;
        o.l1Util = 0.6;
        o.l2Util = 0.4;
        o.peUtil = 0.8;
        o.allowSpatialReduction = true;
        return o;
    }
};

/** The mapper. */
class DMazeMapper : public Mapper
{
  public:
    explicit DMazeMapper(DMazeOptions opts = DMazeOptions::fast(),
                         std::string display_name = "dMaze");

    using Mapper::optimize;
    MapperResult optimize(SearchContext &sc, const BoundArch &ba) override;
    std::string name() const override { return displayName; }
    double spaceSizeEstimate(const BoundArch &ba) const override;

  private:
    DMazeOptions opts;
    std::string displayName;
};

} // namespace sunstone

#endif // SUNSTONE_MAPPERS_DMAZE_MAPPER_HH
