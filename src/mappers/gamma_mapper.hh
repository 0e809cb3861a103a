/**
 * @file
 * GAMMA-like mapper (related work, Section VI): a genetic algorithm over
 * complete mappings. Individuals are factor assignments plus per-level
 * orders; crossover swaps whole-dimension assignments between parents,
 * and mutation moves single prime factors between slots or rotates a
 * loop order. Included both as an additional baseline and as a sanity
 * yardstick: black-box search matches Sunstone only when given far more
 * evaluations (the paper's argument against black-box optimizers).
 */

#ifndef SUNSTONE_MAPPERS_GAMMA_MAPPER_HH
#define SUNSTONE_MAPPERS_GAMMA_MAPPER_HH

#include "mappers/mapper.hh"

namespace sunstone {

/** GA knobs. */
struct GammaOptions
{
    int populationSize = 64;
    int generations = 60;
    double mutationRate = 0.3;
    /** Tournament size for parent selection. */
    int tournament = 4;
    std::uint64_t seed = 0xabcd;
    double maxSeconds = 60.0;
    bool optimizeEdp = true;
};

/** The mapper. */
class GammaMapper : public Mapper
{
  public:
    explicit GammaMapper(GammaOptions opts = {},
                         std::string display_name = "GAMMA");

    using Mapper::optimize;
    MapperResult optimize(SearchContext &sc, const BoundArch &ba) override;
    std::string name() const override { return displayName; }
    double spaceSizeEstimate(const BoundArch &ba) const override;

  private:
    GammaOptions opts;
    std::string displayName;
};

} // namespace sunstone

#endif // SUNSTONE_MAPPERS_GAMMA_MAPPER_HH
