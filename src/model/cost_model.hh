/**
 * @file
 * Analytical cost model in the style of Timeloop (the paper's evaluation
 * platform, Section V-A): for a (workload, architecture, mapping) triple
 * it derives per-level, per-tensor access counts in closed form, converts
 * them to energy via the BoundArch energies, models latency as
 * max(compute, per-level bandwidth) under double buffering, and reports
 * the energy-delay product.
 *
 * Access-count semantics (validated against the literal loop-nest walker
 * in nest_simulator.hh):
 *
 *  - A tensor's *storage chain* is the list of levels that store it
 *    (bypass-aware). Data moves only between consecutive chain levels.
 *  - Reads from provider L serving consumer C use the stationarity rule
 *    of the paper's Eqs. 1-3: the number of tile-change events is the
 *    product of all temporal loop factors above C, skipping the trailing
 *    run of loops over non-indexing dimensions.
 *  - Spatial factors between C and L multicast (when every fanout
 *    network in the range supports it): the distinct data per event is
 *    the exact union of the consumer-tile boxes across the spatial
 *    instances, computed per rank by merging start intervals. For
 *    contiguous tilings this equals the footprint of the spatially
 *    enlarged tile (Eq. 5); for strided sliding windows whose consumer
 *    tile carries no halo the merge also accounts for the gaps the
 *    enlarged-tile formula would overcount. Every consumer instance is
 *    still *filled*. Validated against the multicast-aware oracle in
 *    nest_simulator.hh, which derives the same counts by enumerating
 *    coordinates.
 *  - Outputs flow upward: every consumer drains its partial tile per
 *    event (spatial reduction sends every partial), and each arriving
 *    partial beyond the first visit of a distinct word performs a
 *    read-modify-write at the provider.
 *
 * One evaluation path: evaluateMapping() is evaluateMappingInto() on
 * this thread's scratch, and evaluateMappingInto() takes optional
 * PrefixTerms for the incremental case. scoreEnergyInto() runs the same
 * stages up to the one energy sum and builds no CostResult. Everything that depends only on
 * the binding (storage chains, chain fan and hop factors, the multicast
 * test) is built once per binding by EvalScratch::prepare(), and both
 * the full walk and buildPrefixTerms() read it from there.
 */

#ifndef SUNSTONE_MODEL_COST_MODEL_HH
#define SUNSTONE_MODEL_COST_MODEL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mapping/mapping.hh"

namespace sunstone {

/** Per-(level, tensor) access counters (words). */
struct AccessCounts
{
    /** Reads serving consumers below (incl. MAC operand fetches). */
    std::int64_t reads = 0;
    /** Writes arriving from the level above (input tensors). */
    std::int64_t fills = 0;
    /** Writes of partial results arriving from below (outputs). */
    std::int64_t updates = 0;
    /** Reads performed to accumulate into an existing partial. */
    std::int64_t accumReads = 0;
    /** Reads that drain partial results toward the level above. */
    std::int64_t drains = 0;

    std::int64_t
    totalReads() const
    {
        return reads + accumReads + drains;
    }
    std::int64_t totalWrites() const { return fills + updates; }
};

/** Full evaluation result for one mapping. */
struct CostResult
{
    bool valid = false;
    std::string invalidReason;

    /** access[level][tensor] counters. */
    std::vector<std::vector<AccessCounts>> access;

    /** Energy broken out per level (pJ), plus compute and network. */
    std::vector<double> levelEnergyPj;
    double macEnergyPj = 0;
    double nocEnergyPj = 0;

    double totalEnergyPj = 0;
    /** Execution cycles under double buffering. */
    double cycles = 0;
    double delaySeconds = 0;
    /** Energy-delay product in pJ*s (the paper's figure of merit). */
    double edp = 0;

    /** Utilization of the MAC array in [0, 1]. */
    double utilization = 0;

    /**
     * What binds the delay: "compute" or the name of the bandwidth-
     * limited level (useful when tuning an architecture).
     */
    std::string bottleneck;
};

/** Evaluation knobs. */
struct CostModelOptions
{
    /** Skip the validity check (caller guarantees validity). */
    bool assumeValid = false;
    /** Include NoC wire + tag-check energy (Section V-A). */
    bool modelNoc = true;
};

/**
 * Per-thread scratch arena for the cost model's hot path. All temporaries
 * the model needs (linearized temporal loops, cumulative tile shapes,
 * per-level spatial products, flattened access counters, multicast
 * interval-merge buffers) live here, so repeated evaluations against the
 * same (workload, arch) pair allocate nothing in steady state.
 *
 * Lifetime rules: a scratch may be reused across different bound pairs
 * (prepare() rebuilds when the BoundArch changes) but must not be shared
 * between threads; use threadEvalScratch() for the common case. Buffers
 * are only valid during a single evaluateMappingInto() call — nothing in
 * here outlives the call it serves.
 *
 * Reuse keying: prepare() keys on BoundArch::uid(), not on the buffer
 * dimensions. Two bindings with identical (levels, tensors, dims) — e.g.
 * a bypass or residency variant of the same architecture — never share
 * the cached per-binding invariants below, because uids are process
 * unique and never recycled (see
 * EvalEquivalence.ScratchRekeysAcrossSameShapeArchVariants).
 */
struct EvalScratch
{
    /**
     * Rebuilds every buffer and per-binding invariant for the bound
     * pair; cheap (counter bump only) when the binding is unchanged.
     */
    void prepare(const BoundArch &ba);

    /** @return evaluations served without rebuilding (telemetry). */
    std::int64_t reuseCount() const { return reuses; }

    // Binding the buffers and invariants are built for.
    std::uint64_t baUid = 0;
    int nl = -1;
    int nt = -1;
    int nd = -1;
    std::int64_t reuses = 0;

    /** Flattened access[l * nt + t] counters (one contiguous block). */
    std::vector<AccessCounts> access;
    /** Cumulative tile shape per level (rows reused across evals). */
    std::vector<std::vector<std::int64_t>> shapes;
    /** Per-level spatial factor product. */
    std::vector<std::int64_t> levelSpatial;
    /** Linearized temporal loops, innermost first, grouped by level. */
    std::vector<DimId> loopDim;
    std::vector<std::int64_t> loopFactor;
    /** loopBegin[l]..loopBegin[l+1] delimit level l's loops (size nl+1). */
    std::vector<int> loopBegin;
    /** Per-dim spatial product of a (c, l] range (multicast helper). */
    std::vector<std::int64_t> spatialUp;
    /** Multicast interval-merge buffers. */
    std::vector<std::pair<std::int64_t, std::int64_t>> split;
    std::vector<std::int64_t> starts;
    std::vector<std::int64_t> startsNext;

    /** Buffers for the allocation-free Mapping::valid() overload. */
    ValidityScratch validity;

    /**
     * Suffix products over the linearized loops and the per-level
     * spatial factors, rebuilt per mapping by fillTables. satMul over
     * operands >= 1 is fold-order independent (including saturation),
     * so replacing the historical per-pair walks with suffix lookups is
     * bit-exact — see DESIGN.md §11.
     */
    std::vector<std::int64_t> loopSuffix;   // [i] = prod factor[i..); L+1
    std::vector<std::int64_t> spatialSuffix; // [l] = prod spatial[l..); nl+1
    /** Per-tensor: first linearized loop at >= i over an indexing dim
     *  (-1 sentinel), rebuilt per (mapping, tensor). */
    std::vector<int> firstIdx;

    /**
     * Per-binding invariants, computed once per prepare() instead of per
     * evaluation: total operation count, per-tensor problem footprints
     * and indexing-dim sets, and the bypass-aware storage chains
     * (chainFlat[chainBegin[t]..chainBegin[t+1]) lists the levels
     * storing t, innermost first). All are residency-independent, which
     * is what makes uid sharing across BoundArch copies safe.
     */
    std::int64_t totalOps = 0;
    std::vector<std::int64_t> problemFp; // [t]
    std::vector<DimSet> idxDims;         // [t]
    std::vector<int> chainFlat;
    std::vector<int> chainBegin;         // [nt + 1]

    /**
     * Physical fanout product of the networks in (c, l] and its
     * sqrt-hop factor for every storage-chain pair, aligned with
     * chainFlat: pair (chain[i-1], chain[i]) of tensor t lives at index
     * chainBegin[t] + i (index chainBegin[t] itself is unused). Pure
     * binding invariants — the NoC model reads them, with or without
     * prefix terms, instead of walking the level range per evaluation.
     */
    std::vector<std::int64_t> chainFan;
    std::vector<double> chainHops;

    /**
     * Flattened per-(tensor, rank) index structure with per-dim merged
     * coefficients: tensor t's ranks are rankBegin[t]..rankBegin[t+1),
     * rank r's (dim, summed coeff) pairs are termBegin[r]..termBegin[r+1)
     * of termDim/termCoeff. Extents and footprints computed from the
     * merged pairs are bit-identical to IndexExpr::extent() /
     * TensorSpec::footprint() (coefficient merging distributes over the
     * shared (shape[d] - 1) factor; the satMul fold order over ranks is
     * preserved), but never rescan TensorSpec term lists per evaluation.
     */
    std::vector<int> rankBegin;           // [nt + 1]
    std::vector<int> termBegin;           // [numRanks + 1]
    std::vector<DimId> termDim;
    std::vector<std::int64_t> termCoeff;

    /**
     * nonMcPrefix[l] counts levels < l whose fanout network cannot
     * multicast, so "every network in (c, l] multicasts" is the O(1)
     * test nonMcPrefix[l + 1] == nonMcPrefix[c + 1].
     */
    std::vector<int> nonMcPrefix;         // [nl + 1]

    /**
     * Per-(level, tensor) tile footprints of the current mapping,
     * filled by detail::checkValid() as a side product of the fits
     * checks and consumed by the access count so the tile
     * footprint of a chain pair is never computed twice. Only valid for
     * non-DRAM levels, and only when tileFpReady (checkValid ran and
     * passed for this mapping).
     */
    std::vector<std::int64_t> tileFp;    // [l * nt + t]
    bool tileFpReady = false;

    /**
     * Per-(level, rank) tile extents recorded by the same fits pass
     * (rank indices are the flattened rankBegin space). The multicast
     * union recomputes per-rank extents of a consumer tile otherwise;
     * like tileFp, entries are valid for non-DRAM levels when
     * tileFpReady.
     */
    std::vector<std::int64_t> rankExt;   // [l * numRanks + r]
};

/** @return this thread's lazily constructed scratch arena. */
EvalScratch &threadEvalScratch();

/**
 * Cached per-(tensor, chain-pair) contribution terms of a decided-level
 * prefix. For every storage-chain pair (consumer c, provider l) that lies
 * entirely below `prefixLevels` the mapping-dependent factors of the
 * access-count formulas are precomputed, so an evaluation against a
 * mapping sharing that prefix only walks the undecided suffix.
 *
 * The terms are a pure function of the canonical prefix: the temporal and
 * spatial factors of levels [0, prefixLevels) plus the relative order of
 * their factor>1 temporal loops (level 0's order never matters — no
 * consumer sits below it). Two mappings that agree on those fields may
 * share one PrefixTerms; this is the same canonicalization rule the
 * EvalEngine memo cache uses.
 */
struct PrefixTerms
{
    int prefixLevels = 0;

    /** Terms for chain pair i (consumer chain[i-1], provider chain[i]). */
    struct Pair
    {
        /** True when the provider level lies below prefixLevels. */
        bool cached = false;
        /** Tile-change skip-rule state after the decided levels. */
        bool evStarted = false;
        /** Counted loop-factor product within levels (c, prefixLevels). */
        std::int64_t evPrefix = 1;
        /** Spatial product of levels (l, prefixLevels). */
        std::int64_t nAbovePrefix = 1;
        /** satMul(spatial product of (c, l], consumer tile footprint). */
        std::int64_t fillUnit = 1;
        /** Distinct words delivered per event (inputs; 0 for outputs). */
        std::int64_t distinct = 0;
    };

    struct TensorTerms
    {
        std::vector<Pair> pairs;
    };

    std::vector<TensorTerms> tensors;
};

/**
 * Evaluates a mapping. Invalid mappings return valid=false with a reason
 * and infinite EDP so searches can rank them last.
 */
CostResult evaluateMapping(const BoundArch &ba, const Mapping &m,
                           const CostModelOptions &opts = {});

/**
 * Allocation-free variant of evaluateMapping(): writes the result into
 * `res` (reusing its buffers) using the caller-provided scratch arena.
 * Bit-identical to evaluateMapping() — same arithmetic in the same order.
 * With `prefix` (built by buildPrefixTerms() from a mapping with the same
 * canonical prefix as m), chain pairs below prefix->prefixLevels take
 * their cached terms and only the undecided levels are walked; the
 * result is still bit-identical.
 */
void evaluateMappingInto(const BoundArch &ba, const Mapping &m,
                         const CostModelOptions &opts, EvalScratch &scratch,
                         CostResult &res,
                         const PrefixTerms *prefix = nullptr);

/**
 * Energy-only evaluation for search scoring: the stages of
 * evaluateMappingInto() up to the energy sum, with no CostResult and no
 * failure reason. @return the total energy (pJ), bitwise
 * evaluateMappingInto(...).totalEnergyPj, or nullopt when the mapping
 * is invalid.
 */
std::optional<double> scoreEnergyInto(const BoundArch &ba, const Mapping &m,
                                      const CostModelOptions &opts,
                                      EvalScratch &scratch,
                                      const PrefixTerms *prefix = nullptr);

/**
 * Precomputes the contribution terms of levels [0, prefix_levels) of
 * `base` into `out`. The result is only valid for mappings whose
 * canonical prefix (see PrefixTerms) equals base's.
 */
void buildPrefixTerms(const BoundArch &ba, const Mapping &base,
                      int prefix_levels, EvalScratch &scratch,
                      PrefixTerms &out);

namespace detail {

/**
 * Validity check of the evaluation fast path, the first stage of
 * evaluateMappingInto(): same checks, in the same order, producing
 * byte-identical failure messages as the public Mapping::valid()
 * (pinned by EvalEquivalence.CheckValidMatchesMappingValid — keep the
 * two in sync). Requires a prepared scratch. On the fits pass it builds
 * the scratch's shape and loop tables and stores every per-(level,
 * tensor) footprint into s.tileFp for the access count to consume.
 * Exported for that test only; not a public API.
 */
bool checkValid(const BoundArch &ba, const Mapping &m, EvalScratch &s,
                std::string *why);

} // namespace detail

} // namespace sunstone

#endif // SUNSTONE_MODEL_COST_MODEL_HH
