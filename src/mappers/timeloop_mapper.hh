/**
 * @file
 * Timeloop-like mapper: undirected uniform-random sampling of the full
 * mapping space with the two termination knobs of Table V — a cap on
 * consecutive invalid samples (historically misnamed `timeout`) and a
 * victory condition (consecutive valid samples without improvement) —
 * plus a wall-clock cap standing in for the paper's one-hour-per-layer
 * limit. Candidates are drawn serially from a fixed set of logical RNG
 * shards and evaluated in parallel by the SearchDriver, so results are
 * bit-identical regardless of thread count.
 */

#ifndef SUNSTONE_MAPPERS_TIMELOOP_MAPPER_HH
#define SUNSTONE_MAPPERS_TIMELOOP_MAPPER_HH

#include <cstdint>

#include "mappers/mapper.hh"

namespace sunstone {

/** Knobs mirroring Table V; they become StopPolicy defaults. */
struct TimeloopOptions
{
    /**
     * Stop after this many consecutive invalid samples. This is the
     * knob Timeloop calls `timeout` — it was never a time; the text
     * config parser still accepts the old name with a warning.
     */
    std::int64_t maxConsecutiveInvalid = 20000;
    /** Stop after this many consecutive non-improving valid samples. */
    std::int64_t victoryCondition = 25;
    /** Hard wall-clock cap in seconds (paper: 1 h per layer). */
    double maxSeconds = 60.0;
    std::uint64_t seed = 0x5075; // fixed default for determinism
    /** Rank mappings by EDP (default) or energy. */
    bool optimizeEdp = true;

    /** Table V fast configuration. */
    static TimeloopOptions
    fast()
    {
        TimeloopOptions o;
        o.maxConsecutiveInvalid = 20000;
        o.victoryCondition = 25;
        return o;
    }

    /** Table V slow/conservative configuration. */
    static TimeloopOptions
    slow()
    {
        TimeloopOptions o;
        o.maxConsecutiveInvalid = 80000;
        o.victoryCondition = 1500;
        return o;
    }
};

/** The mapper. */
class TimeloopMapper : public Mapper
{
  public:
    explicit TimeloopMapper(TimeloopOptions opts = TimeloopOptions::fast(),
                            std::string display_name = "TL");

    using Mapper::optimize;
    MapperResult optimize(SearchContext &sc, const BoundArch &ba) override;
    std::string name() const override { return displayName; }
    double spaceSizeEstimate(const BoundArch &ba) const override;

  private:
    TimeloopOptions opts;
    std::string displayName;
};

} // namespace sunstone

#endif // SUNSTONE_MAPPERS_TIMELOOP_MAPPER_HH
