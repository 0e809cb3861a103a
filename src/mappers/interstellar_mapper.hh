/**
 * @file
 * Interstellar-like mapper (Section V baseline "INTER"): spatial
 * unrolling is preset to the input/output channel dimensions as the
 * paper prescribes, falling back to other dimensions only when CK cannot
 * fill the PE grid; temporal tilings are enumerated with a
 * high-throughput heuristic. Conv-specific by construction: non-CNN
 * workloads and hierarchical (Simba-like) architectures are unsupported.
 */

#ifndef SUNSTONE_MAPPERS_INTERSTELLAR_MAPPER_HH
#define SUNSTONE_MAPPERS_INTERSTELLAR_MAPPER_HH

#include "mappers/mapper.hh"

namespace sunstone {

/** Knobs for the Interstellar-like search. */
struct InterstellarOptions
{
    /** Fall back to other dims when CK utilization is below this. */
    double ckFallbackBelow = 0.5;
    std::int64_t maxEvaluations = 200000;
    bool optimizeEdp = true;
};

/** The mapper. */
class InterstellarMapper : public Mapper
{
  public:
    explicit InterstellarMapper(InterstellarOptions opts = {},
                                std::string display_name = "INTER");

    using Mapper::optimize;
    MapperResult optimize(SearchContext &sc, const BoundArch &ba) override;
    std::string name() const override { return displayName; }
    double spaceSizeEstimate(const BoundArch &ba) const override;

  private:
    InterstellarOptions opts;
    std::string displayName;
};

} // namespace sunstone

#endif // SUNSTONE_MAPPERS_INTERSTELLAR_MAPPER_HH
