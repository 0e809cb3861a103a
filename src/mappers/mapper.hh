/**
 * @file
 * Common interface for all dataflow mappers (Sunstone's baselines from
 * Section V-B): Timeloop-like random search, dMazeRunner-like directed
 * search, Interstellar-like preset-unrolling search, CoSA-like one-shot
 * construction, and an exhaustive oracle for tiny problems. Every mapper
 * is evaluated with the same cost model, as in the paper, and every
 * mapper's search runs through the shared SearchDriver (DESIGN.md §12),
 * which owns termination, accounting, and checkpoint/resume.
 */

#ifndef SUNSTONE_MAPPERS_MAPPER_HH
#define SUNSTONE_MAPPERS_MAPPER_HH

#include <memory>
#include <string>

#include "model/cost_model.hh"
#include "search/search_context.hh"
#include "search/search_driver.hh"

namespace sunstone {

/** Outcome of one mapper invocation. */
struct MapperResult
{
    /** A best mapping was produced (it may still be invalid). */
    bool found = false;

    /**
     * The produced mapping violates a constraint (tile does not fit,
     * unsupported workload/architecture, ...). The paper tracks this per
     * tool in Figs. 7-8 and Table I.
     */
    bool invalid = false;
    std::string invalidReason;

    Mapping mapping;
    CostResult cost;

    /** Number of complete mappings evaluated by the search. */
    std::int64_t mappingsEvaluated = 0;
    /** Wall-clock time-to-solution (Figs. 6b, 7b, 8b). */
    double seconds = 0;

    /**
     * Why the search ended: one of the stable stopReasonName() strings
     * ("exhausted", "deadline", "max-evals", "plateau", "invalid-streak",
     * "cancelled", "unsupported").
     */
    std::string stopReason;
};

/** Abstract mapper. */
class Mapper
{
  public:
    virtual ~Mapper() = default;

    /**
     * Runs the tool's search for the bound workload/architecture under
     * the caller's SearchContext: its StopPolicy (layered over the
     * mapper's legacy knobs as defaults), seed, engine, convergence
     * recorder, and checkpoint/resume configuration. The search runs on
     * `sc.engine()`; the context is the only source of the engine and
     * the recorder.
     */
    virtual MapperResult optimize(SearchContext &sc, const BoundArch &ba) = 0;

    /**
     * Convenience overload running under a fresh default context, and so
     * on a private one-worker engine.
     */
    MapperResult optimize(const BoundArch &ba);

    /** @return the tool's display name ("TL-fast", "dMaze-slow", ...). */
    virtual std::string name() const = 0;

    /**
     * @return an analytic estimate of the size of the optimization space
     * the tool would construct for this problem (Table I). The default
     * returns 0 (unknown).
     */
    virtual double
    spaceSizeEstimate(const BoundArch &ba) const
    {
        (void)ba;
        return 0.0;
    }

  protected:
    /**
     * Converts a driver outcome into a MapperResult; counters, seconds,
     * and stop reason always come from the driver. When nothing was
     * found, `not_found_reason` (or, if empty, the first invalid
     * diagnostic the driver saw) becomes the invalid reason.
     */
    static MapperResult toMapperResult(const DriverOutcome &o,
                                       const std::string &not_found_reason);
};

} // namespace sunstone

#endif // SUNSTONE_MAPPERS_MAPPER_HH
