/**
 * @file
 * The service layer's request/response schema (DESIGN.md §16).
 *
 * A MappingRequest captures, as plain data, everything the CLI's map
 * commands used to parse ad hoc: the workload (einsum + dims, a conv
 * preset string, or a workload file), the architecture, the mapper
 * choice, the stop policy (deadline / max-evals / plateau / seed), the
 * fusion mode, and the warm-start option. One struct serves
 * three callers: the CLI (fills it from argv), `sunstone serve` (parses
 * it from a newline-delimited JSON line), and embedders (construct it
 * directly). Field values are deliberately the same strings the CLI
 * flags take — `conv: "n=1,k=8,..."` is exactly the `--conv` value — so
 * the two front ends cannot drift apart.
 *
 * A MappingResponse carries the outcome: the mapper result (or the
 * whole-network schedule), the winning mapping, session markers
 * (`cached` for fingerprint-deduplicated repeats, `warmSeeds` for
 * warm-started searches), and the per-request delta of the session
 * engine's cache counters — which is how a client observes that its
 * repeat traffic was served warm.
 *
 * Materialization (spec → Workload/ArchSpec/NetGraph) lives here too,
 * shared by every front end. Materializers fatal() on bad specs like
 * the CLI always has; the session wraps them in ScopedFatalCapture when
 * it must survive bad requests (serve mode).
 */

#ifndef SUNSTONE_SERVICE_REQUEST_HH
#define SUNSTONE_SERVICE_REQUEST_HH

#include <cstdint>
#include <optional>
#include <string>

#include "arch/arch_config.hh"
#include "common/json.hh"
#include "core/net_scheduler.hh"
#include "mappers/mapper.hh"
#include "model/diffcheck.hh"
#include "workload/net_graph.hh"
#include "workload/workload.hh"

namespace sunstone {
namespace service {

/** What a request asks the session to do. */
enum class RequestKind
{
    /** Search a single-layer mapping (the CLI's `map`). */
    Map,
    /** Schedule a whole network (`map --net`). */
    Net,
    /** Re-evaluate a saved mapping (`eval`). */
    Eval,
    /** Differential-fuzz the cost model (`check`). */
    Check,
    /** Report session/engine health and metrics (scrape endpoint). */
    Health,
};

/** Stable wire name of a kind ("map", "net", ...). */
const char *requestKindName(RequestKind k);

/** One unit of work for a SchedulerSession. */
struct MappingRequest
{
    /** Client-chosen correlation id, echoed verbatim in the response. */
    std::string id;

    RequestKind kind = RequestKind::Map;

    // -- Workload (Map/Eval; exactly the CLI flag values) --------------
    std::string einsum;        ///< --einsum expression
    std::string dims;          ///< --dims "k=64,c=32,..."
    std::string bits;          ///< --bits "A=8,B=16,..."
    std::string workloadName;  ///< --name (einsum workloads)
    std::string conv;          ///< --conv "n=1,k=64,...[,stride=2]"
    std::string workloadFile;  ///< --workload-file path

    // -- Architecture --------------------------------------------------
    std::string archName = "conventional"; ///< preset name
    std::string archFile;                  ///< --arch-file path

    // -- Search configuration (Map/Net) --------------------------------
    std::string mapper = "sunstone";
    bool optimizeEdp = true;   ///< false = --energy (energy-only)
    int beamWidth = 0;         ///< 0 keeps the mapper default
    std::optional<double> budgetSeconds; ///< timeloop --budget

    std::optional<double> deadlineMs;
    std::optional<std::int64_t> maxEvals;
    std::optional<std::int64_t> plateau;
    std::optional<std::uint64_t> seed;
    std::string stopPolicyFile; ///< --stop-policy path (CLI)

    std::string checkpointPath; ///< --checkpoint path (CLI)
    std::string resumePath;     ///< --resume path (CLI)

    /**
     * Seed this search from the session's warm-start store (and record
     * the realized best back). Off by default: seeding changes search
     * results, so it must be an explicit opt-in to preserve the
     * bit-identity contract with seed-fixed cold runs.
     */
    bool warmStart = false;

    // -- Network (Net) -------------------------------------------------
    std::string net;  ///< net name ("resnet18", "attention", ...)
    std::optional<std::int64_t> batch;
    std::optional<std::int64_t> seq;
    std::string fuse = "off"; ///< "off" | "greedy"

    // -- Eval ----------------------------------------------------------
    std::string mappingFile; ///< saved mapping to re-evaluate

    // -- Check ---------------------------------------------------------
    std::optional<int> checkTrials;
    std::optional<std::uint64_t> checkSeed;
    bool checkShrink = true;
    std::string checkFault; ///< "" or "top-level-reads"

    /** Renders the request as one JSON object (the wire format). */
    std::string toJson() const;

    /**
     * Parses the wire format produced by toJson() (and hand-written
     * request lines). Unknown fields are rejected so typos fail loudly.
     * @return false with *err set on malformed requests.
     */
    static bool fromJson(const JsonValue &v, MappingRequest &out,
                         std::string *err);
};

/** The outcome of one request. */
struct MappingResponse
{
    std::string id;
    RequestKind kind = RequestKind::Map;

    /** The request was executed (found or not); false = rejected or
     *  failed before any search ran (the error field says why). */
    bool ok = false;
    std::string error;

    /** Served from the session's fingerprint→result cache (the dedup
     *  marker: the repeat cost one re-validation, not a search). */
    bool cached = false;
    /** Warm-start seed mappings injected into the search. */
    int warmSeeds = 0;

    /** Request wall-clock, seconds (queue wait excluded). */
    double seconds = 0;

    /** Delta of the session engine's counters over this request. */
    SearchStats engineDelta;

    // -- Map/Eval payload ----------------------------------------------
    std::string mapper;
    MapperResult result;
    std::string mappingText; ///< serialized winning mapping
    /** Materialized inputs, echoed for artifact writers (save-mapping
     *  needs the BoundArch the search ran under). Present when ok. */
    std::optional<Workload> workload;
    std::optional<ArchSpec> arch;

    // -- Net payload ---------------------------------------------------
    std::optional<NetScheduleResult> net;

    // -- Check payload -------------------------------------------------
    std::optional<DiffcheckReport> check;

    // -- Health payload ------------------------------------------------
    std::string healthJson; ///< pre-rendered session/engine/registry doc

    /**
     * The "result" half of the CLI's --stats-json document: the mapper
     * result for Map, the schedule's toJson() for Net. Byte-identical
     * to what the pre-service CLI emitted.
     */
    std::string resultJson() const;

    /** Renders the full wire response (one NDJSON line's payload). */
    std::string toJson() const;
};

// -- Materialization (shared by CLI and session) -----------------------

/** Builds the workload from the request's spec fields; fatal() on bad
 *  or missing specs, exactly as the CLI always did. */
Workload materializeWorkload(const MappingRequest &req);

/** Builds the architecture (preset or file); fatal() on unknown names. */
ArchSpec materializeArch(const MappingRequest &req);

/** Builds the network graph for a Net request; fatal() on unknown nets. */
NetGraph materializeNetGraph(const MappingRequest &req);

/** Parses the request's fuse field; fatal() on unknown modes. */
FusionMode materializeFusionMode(const MappingRequest &req);

/**
 * Applies the CLI's Simba precision rule: when the architecture is the
 * "simba" preset and the request does not override word widths, the
 * per-tensor Simba precisions are applied to `wl`.
 */
void applyArchPrecisions(const MappingRequest &req, Workload &wl);

} // namespace service
} // namespace sunstone

#endif // SUNSTONE_SERVICE_REQUEST_HH
