/**
 * @file
 * The per-invocation bundle every search receives (DESIGN.md §12): the
 * evaluation engine, the seeded RNG streams, the convergence recorder,
 * the StopPolicy, and the checkpoint/resume configuration. A
 * SearchContext is cheap to construct and not thread-safe; concurrent
 * searches (the net scheduler's per-layer fan-out) each get their own,
 * sharing the engine and the cancellation flag through it.
 *
 * The context is the only way a search gets its engine and convergence
 * recorder. It either borrows an engine or, when none was lent (the
 * `optimize(const BoundArch&)` convenience overloads), creates a
 * default one-worker engine on first use.
 */

#ifndef SUNSTONE_SEARCH_SEARCH_CONTEXT_HH
#define SUNSTONE_SEARCH_SEARCH_CONTEXT_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/eval_engine.hh"
#include "obs/convergence.hh"
#include "search/checkpoint.hh"
#include "search/rng.hh"
#include "search/stop_policy.hh"

namespace sunstone {

class SearchContext
{
  public:
    SearchContext() = default;

    /**
     * @param engine engine to borrow (it must outlive the context), or
     *        nullptr for a private default one
     * @param convergence recorder every search under the context
     *        records its trajectory in, or nullptr for none
     */
    explicit SearchContext(EvalEngine *engine, StopPolicy policy = {},
                           obs::ConvergenceRecorder *convergence = nullptr)
        : engine_(engine), policy_(policy), convergence_(convergence)
    {
    }

    /**
     * @return the borrowed engine, or (creating it on first call) a
     * private default engine with one worker. The private engine lives
     * as long as the context.
     */
    EvalEngine &engine();

    StopPolicy &policy() { return policy_; }
    const StopPolicy &policy() const { return policy_; }
    void setPolicy(const StopPolicy &p) { policy_ = p; }

    obs::ConvergenceRecorder *convergence() const { return convergence_; }

    /** Whether the cooperative cancellation flag is raised. */
    bool
    cancelled() const
    {
        return policy_.cancel &&
               policy_.cancel->load(std::memory_order_relaxed);
    }

    // -- Seed and RNG streams ------------------------------------------

    /** True once a seed was set explicitly or adopted via ensureSeed. */
    bool hasSeed() const { return seed_.has_value(); }

    std::uint64_t seed() const { return seed_ ? *seed_ : 0; }

    void setSeed(std::uint64_t s) { seed_ = s; }

    /**
     * Adopts `fallback` when no seed was set yet.
     * @return the effective seed. Call before the first rngStream().
     */
    std::uint64_t ensureSeed(std::uint64_t fallback);

    /**
     * @return the SplitMix64 stream for logical shard `shard`, created
     * deterministically from the seed on first use. Streams must be
     * drawn from a single thread (the driver's generation loop).
     */
    RngStream &rngStream(std::size_t shard);

    /** Cursors of every created stream, indexed by shard. */
    std::vector<std::uint64_t> rngStates() const;

    /** Restores cursors saved by rngStates() (resume path). */
    void restoreRngStates(const std::vector<std::uint64_t> &states);

    // -- Checkpoint / resume -------------------------------------------

    /** Path the driver checkpoints to; empty disables checkpointing. */
    const std::string &checkpointPath() const { return checkpointPath_; }
    void setCheckpointPath(std::string path)
    {
        checkpointPath_ = std::move(path);
    }

    /** Attaches a loaded checkpoint for the next driver to consume. */
    void setResume(SearchCheckpoint ck) { resume_ = std::move(ck); }

    /** The pending resume snapshot, or nullptr. */
    const SearchCheckpoint *resume() const
    {
        return resume_ ? &*resume_ : nullptr;
    }

    /** Consumes the pending resume snapshot (driver-internal). */
    std::optional<SearchCheckpoint> takeResume();

    // -- Warm starts ---------------------------------------------------

    /**
     * Seed mappings evaluated once at a fresh search start (warm
     * starting from structurally similar layers). Ignored on resume.
     */
    const std::vector<Mapping> &warmStarts() const { return warmStarts_; }
    void setWarmStarts(std::vector<Mapping> w)
    {
        warmStarts_ = std::move(w);
    }

    // -- Hard deadline -------------------------------------------------

    /**
     * An absolute deadline shared across searches (the net scheduler
     * converts its wall-clock budget into one point in time so layers
     * launched late do not each get a fresh budget).
     */
    void
    setHardDeadline(std::chrono::steady_clock::time_point t)
    {
        hardDeadline_ = t;
    }

    const std::optional<std::chrono::steady_clock::time_point> &
    hardDeadline() const
    {
        return hardDeadline_;
    }

  private:
    EvalEngine *engine_ = nullptr;
    std::unique_ptr<EvalEngine> ownedEngine_;
    StopPolicy policy_;
    obs::ConvergenceRecorder *convergence_ = nullptr;
    std::optional<std::uint64_t> seed_;
    std::vector<RngStream> streams_;
    std::string checkpointPath_;
    std::optional<SearchCheckpoint> resume_;
    std::vector<Mapping> warmStarts_;
    std::optional<std::chrono::steady_clock::time_point> hardDeadline_;
};

} // namespace sunstone

#endif // SUNSTONE_SEARCH_SEARCH_CONTEXT_HH
