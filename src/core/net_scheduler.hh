/**
 * @file
 * Network-level scheduler: maps a whole network (a NetGraph of einsum
 * ops with multiplicities) onto one architecture through a shared
 * EvalEngine.
 *
 * Real networks repeat layer structures heavily — ResNet-18's basic
 * blocks, Inception's parallel towers — and per-layer schedulers redo
 * the identical search for every repetition. The scheduler instead
 *  - deduplicates nodes by the engine's structural fingerprint (display
 *    names excluded, so differently-named twins still merge),
 *  - runs the Sunstone search once per unique structure, concurrently on
 *    the engine's shared worker pool (the search's own parallelism nests
 *    on the same pool via group-scoped joins), and
 *  - broadcasts each result (mapping and cost) to the duplicates; the
 *    `net.dedup_broadcasts` counter makes the dedup observable.
 *
 * Aggregates report the network as the paper's figures do: energies and
 * delays weighted by layer multiplicity (layers execute sequentially on
 * the accelerator), EDP as total energy x total delay.
 *
 * One pipeline serves both fusion modes (DESIGN.md §13): bind + dedup,
 * plan groups, search per-op baselines, search fused units, decide per
 * group, assemble. FusionMode::Off plans every node as a group of its
 * own, so there are no fused units and the schedule is the paper's
 * per-layer one. FusionMode::Greedy plans producer→consumer chains whose
 * shared tensor statically fits on chip and searches each as a fused
 * subgraph (the shared tensors marked Ephemeral) as well; a chain is
 * fused only when the fused mappings dominate the per-op ones (no worse
 * energy and delay, strictly better EDP) with every ephemeral tensor
 * fully resident — otherwise the group falls back to its per-op results,
 * so fused totals never regress.
 */

#ifndef SUNSTONE_CORE_NET_SCHEDULER_HH
#define SUNSTONE_CORE_NET_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/sunstone.hh"
#include "model/eval_engine.hh"
#include "workload/net_graph.hh"

namespace sunstone {

class WarmStartStore;

/** How the scheduler treats producer→consumer edges of a NetGraph. */
enum class FusionMode
{
    /** Ignore edges: every node is a group of its own (per-layer). */
    Off,
    /** Greedily fuse single-consumer chains when they win (see above). */
    Greedy,
};

/** Scheduler configuration. */
struct NetSchedulerOptions
{
    /** Per-layer search configuration. */
    SunstoneOptions sunstone;

    /** How producer→consumer edges are treated. */
    FusionMode fusion = FusionMode::Off;

    /**
     * The caller's warm-start store (see warmstart.hh), or null to
     * disable warm starting. When set, each unique layer's search is
     * seeded from the stored best mappings of structurally similar
     * layers, and every realized per-op best is recorded back into it.
     * The scheduler reads and writes no file: persisting the store is
     * the caller's.
     */
    WarmStartStore *warmStarts = nullptr;
};

/** Outcome for one input layer. */
struct LayerSchedule
{
    std::string name;
    /** Multiplicity of the layer within the network. */
    int count = 1;
    bool found = false;
    /** Result copied from a structurally identical layer's search. */
    bool deduplicated = false;
    Mapping mapping;
    CostResult cost;
    /** Wall-clock of the search (0 for deduplicated layers). */
    double seconds = 0;
    std::int64_t candidatesExamined = 0;
    /** Why the layer's search ended ("dedup" for deduplicated layers). */
    std::string stopReason;
    /** Fused-group index (greedy mode; -1 when scheduled per-layer). */
    int group = -1;
    /** Whether the reported mapping is the fused (ephemeral) variant. */
    bool fused = false;
};

/** Outcome for one fusion candidate group (greedy mode only). */
struct GroupSchedule
{
    /** Node names, chain order. */
    std::vector<std::string> members;
    /** Multiplicity shared by all members. */
    int count = 1;
    /** Whether the fused variant was accepted. */
    bool fused = false;
    /**
     * Why a multi-op group stayed unfused: "search" (a fused member
     * search found nothing), "coverage" (a chosen mapping spills an
     * ephemeral tensor), "cost" (fused mappings do not dominate), or ""
     * for accepted and single-op groups.
     */
    std::string rejectReason;
    /** Per-instance sums over members of the fused variant (when found). */
    double fusedEnergyPj = 0;
    double fusedDelaySeconds = 0;
    /** Per-instance sums over members of the per-op variant. */
    double unfusedEnergyPj = 0;
    double unfusedDelaySeconds = 0;
    /**
     * Attributed search cost of the whole chain: member per-op search
     * wall-clock and candidate counts, plus the fused-variant searches
     * for multi-op groups. Deduplicated members re-attribute the shared
     * search's cost, so the sums answer "what did deciding this chain
     * cost" rather than partitioning the wall-clock.
     */
    double searchSeconds = 0;
    std::int64_t candidatesExamined = 0;
};

/** Whole-network outcome. */
struct NetScheduleResult
{
    /** Every unique layer search produced a valid mapping. */
    bool allFound = false;

    std::vector<LayerSchedule> layers;

    /** Layer instances, counting multiplicity. */
    int layersTotal = 0;
    /** Structurally distinct layers actually searched. */
    int layersUnique = 0;

    /** Multiplicity-weighted aggregates over found layers. */
    double totalEnergyPj = 0;
    double totalDelaySeconds = 0;
    /** Network EDP: total energy x total delay. */
    double totalEdp = 0;

    /** Wall-clock of the whole schedule. */
    double seconds = 0;

    /**
     * Why the schedule ended: "exhausted" when every unique search ran
     * to its own completion, else the first interrupting reason
     * ("deadline" or "cancelled").
     */
    std::string stopReason;

    /**
     * "greedy" when fusion ran; empty otherwise. Gates all fusion
     * fields in toJson() so FusionMode::Off output is bit-identical to
     * the pre-fusion scheduler's.
     */
    std::string fusionMode;
    /** Fusion candidate groups, including singletons (greedy mode). */
    std::vector<GroupSchedule> groups;
    /** Multi-op groups considered / accepted; members of accepted. */
    int groupsFusable = 0;
    int groupsFused = 0;
    int opsFused = 0;

    /** Renders the result (aggregates, layers, fusion) as JSON. */
    std::string toJson() const;
};

/**
 * Schedules every node of a network DAG on `arch` under the caller's
 * SearchContext. The context's StopPolicy applies to the whole network:
 * `deadlineSeconds` is converted into one absolute hard deadline shared
 * by every search (searches launched late do not each get a fresh
 * budget), and the cancellation flag is polled by all of them. When the
 * context carries a checkpoint path, a net-level checkpoint (search
 * "net") is written after each completed per-op search and fused unit,
 * and a pending resume snapshot skips those on the next run; cancelled
 * searches are not recorded, so a resume runs them again. With
 * FusionMode::Greedy the result gains per-group entries and fusion
 * counters. A layer list schedules as NetGraph::fromLayers(layers). The
 * graph must validate(); fatal() otherwise.
 *
 * @param sc search context (policy, checkpoint/resume, engine,
 *        convergence recorder); its engine's pool carries both the
 *        layer-level and the search-level parallelism
 * @param arch the architecture (bound per node internally)
 * @param graph the network (see workload/net_graph.hh)
 * @param opts scheduler configuration
 */
NetScheduleResult scheduleNet(SearchContext &sc, const ArchSpec &arch,
                              const NetGraph &graph,
                              const NetSchedulerOptions &opts = {});

} // namespace sunstone

#endif // SUNSTONE_CORE_NET_SCHEDULER_HH
