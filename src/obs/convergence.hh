/**
 * @file
 * Search-convergence telemetry: per-search trajectories of
 * (wall-clock, evaluations, incumbent energy/EDP) sampled whenever a
 * search improves its incumbent.
 *
 * The paper's headline claim is about *search behavior* — near-optimal
 * EDP after orders of magnitude fewer evaluations than the baselines
 * (Tables I and V, Figs. 7–8). A ConvergenceRecorder passed through
 * SunstoneOptions / the mapper option structs captures exactly that:
 * each search opens a named trajectory and records a point per incumbent
 * improvement plus one final point, so trajectories are monotonically
 * non-increasing in the optimized metric and always end on the reported
 * result. The JSON dump (--convergence-json) holds one trajectory per
 * search, directly plottable as a sample-efficiency curve.
 */

#ifndef SUNSTONE_OBS_CONVERGENCE_HH
#define SUNSTONE_OBS_CONVERGENCE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sunstone {
namespace obs {

/** One incumbent sample. */
struct ConvergencePoint
{
    /** Wall-clock seconds since the trajectory started. */
    double seconds = 0;
    /** Search-local evaluation count at sample time. */
    std::int64_t evaluations = 0;
    double energyPj = 0;
    double edp = 0;
    /** The objective the search minimizes (EDP or energy). */
    double metric = 0;
};

/** One search's incumbent history. Thread-safe appends. */
class ConvergenceTrajectory
{
  public:
    explicit ConvergenceTrajectory(std::string name);

    /** Appends a sample stamped with the elapsed wall-clock. */
    void record(std::int64_t evaluations, double energy_pj, double edp,
                double metric);

    const std::string &name() const { return name_; }

    std::vector<ConvergencePoint> points() const;

  private:
    const std::string name_;
    const std::chrono::steady_clock::time_point start_;
    mutable std::mutex mtx_;
    std::vector<ConvergencePoint> points_;
};

/**
 * Time-to-quality summary of one trajectory: how much search effort it
 * took to first come within 1% / 5% of the trajectory's final metric.
 * The sample-efficiency scalar behind the paper's convergence figures;
 * warm starts (DESIGN.md §15) shrink it on repeated shapes.
 */
struct TimeToQuality
{
    /** Final (best) metric; 0 when the trajectory is empty. */
    double finalMetric = 0;
    std::int64_t finalEvaluations = 0;

    /** -1 when the band was never reached (empty trajectory). */
    std::int64_t evalsTo1pct = -1;
    double secondsTo1pct = -1;
    std::int64_t evalsTo5pct = -1;
    double secondsTo5pct = -1;
};

/**
 * Computes the time-to-quality summary of a trajectory (points in
 * record order; the last point is the final result, as recorders
 * guarantee).
 */
TimeToQuality timeToQuality(const std::vector<ConvergencePoint> &points);

/**
 * Collects trajectories from any number of concurrent searches. Pass a
 * recorder through the search options; each search calls start() once
 * and records into its own trajectory.
 */
class ConvergenceRecorder
{
  public:
    /** Opens a new trajectory (names may repeat across searches). */
    ConvergenceTrajectory &start(const std::string &name);

    std::size_t trajectoryCount() const;

    /** Snapshot of every trajectory, in start order. */
    std::vector<const ConvergenceTrajectory *> trajectories() const;

    /** Renders {"trajectories": [{name, points: [...]}, ...]}. */
    std::string toJson() const;

    /**
     * Writes toJson() to a file.
     * @return false when the file cannot be written.
     */
    bool writeJson(const std::string &path) const;

  private:
    mutable std::mutex mtx_;
    std::vector<std::unique_ptr<ConvergenceTrajectory>> trajectories_;
};

} // namespace obs
} // namespace sunstone

#endif // SUNSTONE_OBS_CONVERGENCE_HH
