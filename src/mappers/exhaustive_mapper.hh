/**
 * @file
 * Exhaustive mapper: enumerates every divisor-exact mapping (all factor
 * splits across temporal and spatial slots, all loop permutations at
 * every non-innermost level) and returns the global optimum. Usable only
 * on tiny problems; serves as the ground-truth oracle for the property
 * tests that show Sunstone's pruning does not reject optimal mappings.
 */

#ifndef SUNSTONE_MAPPERS_EXHAUSTIVE_MAPPER_HH
#define SUNSTONE_MAPPERS_EXHAUSTIVE_MAPPER_HH

#include "mappers/mapper.hh"

namespace sunstone {

/** Knobs for the exhaustive search. */
struct ExhaustiveOptions
{
    /** Refuse to run when the estimated space exceeds this. */
    double maxSpace = 5e6;
    bool optimizeEdp = true;
};

/** The mapper. */
class ExhaustiveMapper : public Mapper
{
  public:
    explicit ExhaustiveMapper(ExhaustiveOptions opts = {});

    using Mapper::optimize;
    MapperResult optimize(SearchContext &sc, const BoundArch &ba) override;
    std::string name() const override { return "exhaustive"; }
    double spaceSizeEstimate(const BoundArch &ba) const override;

  private:
    ExhaustiveOptions opts;
};

} // namespace sunstone

#endif // SUNSTONE_MAPPERS_EXHAUSTIVE_MAPPER_HH
