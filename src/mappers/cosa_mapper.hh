/**
 * @file
 * CoSA-like mapper (Section V baseline "CoSA"): a one-shot constructor
 * in the spirit of CoSA's mixed-integer program. The non-linear tiling
 * problem is relaxed to a real-valued (log-space) allocation that fills
 * each buffer level to a target utilization, then rounded to the nearest
 * integer divisors. The relaxation is what makes the tool fast and
 * one-shot — and, exactly as Section V-B3 reports, the rounding step can
 * overflow a buffer, yielding *invalid* mappings on hierarchical
 * architectures.
 */

#ifndef SUNSTONE_MAPPERS_COSA_MAPPER_HH
#define SUNSTONE_MAPPERS_COSA_MAPPER_HH

#include "mappers/mapper.hh"

namespace sunstone {

/** Knobs for the CoSA-like constructor. */
struct CosaOptions
{
    /** Target buffer fill fraction for the relaxed allocation. */
    double targetUtilization = 0.85;
};

/** The mapper. */
class CosaMapper : public Mapper
{
  public:
    explicit CosaMapper(CosaOptions opts = {},
                        std::string display_name = "CoSA");

    using Mapper::optimize;
    MapperResult optimize(SearchContext &sc, const BoundArch &ba) override;
    std::string name() const override { return displayName; }
    double spaceSizeEstimate(const BoundArch &ba) const override;

  private:
    CosaOptions opts;
    std::string displayName;
};

} // namespace sunstone

#endif // SUNSTONE_MAPPERS_COSA_MAPPER_HH
