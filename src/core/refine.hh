/**
 * @file
 * Deterministic local refinement of a mapping: greedy hill climbing over
 * single-prime-factor moves between levels (temporal and spatial) and
 * innermost-loop rotations. The level-by-level search decides each level
 * with only an approximation of the levels above (Section V-C); this
 * pass cheaply repairs the small cross-level misallocations that
 * approximation leaves behind. A few hundred cost-model evaluations at
 * most — negligible next to the search itself.
 */

#ifndef SUNSTONE_CORE_REFINE_HH
#define SUNSTONE_CORE_REFINE_HH

#include "model/cost_model.hh"

namespace sunstone {

class EvalEngine;
class SearchDriver;

/** Refinement statistics. */
struct RefineStats
{
    std::int64_t evaluated = 0;
    int movesAccepted = 0;
};

/**
 * Hill climbs from `m` and returns the improved mapping.
 *
 * @param engine evaluation engine; every neighbour is one full
 *        evaluate() call.
 * @param ba bound architecture/workload
 * @param m valid starting mapping
 * @param optimize_edp objective (EDP or energy)
 * @param max_rounds cap on accepted-improvement rounds
 * @param stats optional counters
 * @param driver optional search driver: evaluations are accounted with
 *        noteEvaluated() and the climb stops early once the driver's
 *        StopPolicy fires (deadline, eval budget, cancellation).
 */
Mapping polishMapping(EvalEngine &engine, const BoundArch &ba,
                      const Mapping &m, bool optimize_edp,
                      int max_rounds = 64, RefineStats *stats = nullptr,
                      SearchDriver *driver = nullptr);

} // namespace sunstone

#endif // SUNSTONE_CORE_REFINE_HH
