/**
 * @file
 * The long-lived scheduler session (DESIGN.md §16): the request/session
 * service core extracted from the CLI monolith. One SchedulerSession
 * owns everything that is worth keeping warm across requests —
 *
 *  - the shared EvalEngine (its counters and thread pool);
 *  - the warm-start store: realized bests are recorded after every
 *    found Map search, and requests that opt in (`warm_start: true`)
 *    are seeded from the stored bests of structurally similar layers;
 *  - a result cache keyed by the canonical request (id excluded): a
 *    bit-identical repeat of a deterministic Map/Net request returns
 *    the stored response with `cached: true` and no engine work (the
 *    per-request engine delta reads zero evaluations);
 *  - the cooperative CancellationSource every request's StopPolicy
 *    points at (the SignalBridge raises it on SIGINT/SIGTERM);
 *  - request counters for the health scrape.
 *
 * Requests run on one session worker thread through a bounded admission
 * queue: submit() enqueues (or rejects immediately when the queue is
 * full — the admission control), execute() is submit-and-wait. The
 * searches themselves parallelize on the engine's pool, so one worker
 * serializes requests without serializing the work.
 *
 * Three front ends drive a session: the CLI (one request per process),
 * `sunstone serve` (many requests over NDJSON), and embedders. The CLI
 * path is bit-identical to the pre-service monolith for fixed seeds:
 * the session runs the same mapper code under the same options, and
 * the engine keeps no cache that could carry state from one request
 * into another's results.
 */

#ifndef SUNSTONE_SERVICE_SESSION_HH
#define SUNSTONE_SERVICE_SESSION_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "model/eval_engine.hh"
#include "search/warmstart.hh"
#include "service/artifacts.hh"
#include "service/cancellation.hh"
#include "service/request.hh"

namespace sunstone {
namespace service {

/** Session construction knobs. */
struct SessionOptions
{
    /** Engine pool size; 0 = hardware_concurrency clamped to [2, 8]
     *  (also the CLI's default, without --threads). */
    unsigned threads = 0;

    /**
     * Path of the persistent warm-start store. Loaded at construction
     * (a missing file is an empty store), saved after every map request
     * that records a best and after every warm_start net request (map
     * and net share the one session store). Empty keeps the store in
     * memory only: warm starting still works within the session,
     * nothing persists.
     */
    std::string warmStartPath;

    /** Admission control: pending requests beyond this are rejected. */
    std::size_t queueCapacity = 64;

    /**
     * Turn SUNSTONE_FATAL during a request into an error response
     * instead of process exit (serve mode). The CLI leaves this off so
     * bad flags keep their historical fatal-and-exit behavior.
     */
    bool captureFatals = false;

    /** Serve Check progress lines somewhere (the CLI prints them);
     *  null discards them. */
    std::function<void(const std::string &)> logSink;
};

/** Monotonic request counters, exported by healthJson(). */
struct SessionCounters
{
    std::int64_t executed = 0;  ///< requests that ran (ok or not)
    std::int64_t failed = 0;    ///< requests that produced ok=false
    std::int64_t deduped = 0;   ///< served from the result cache
    std::int64_t rejected = 0;  ///< refused by admission control
    std::int64_t warmSeeded = 0; ///< warm-start seeds injected, total
};

class SchedulerSession
{
  public:
    explicit SchedulerSession(SessionOptions opts = {});
    ~SchedulerSession();

    SchedulerSession(const SchedulerSession &) = delete;
    SchedulerSession &operator=(const SchedulerSession &) = delete;

    /** The session engine (shared counters + pool). */
    EvalEngine &engine() { return *engine_; }

    /** The cancellation flag every request's StopPolicy points at. */
    CancellationSource &cancellation() { return cancel_; }

    /** The effective engine pool size. */
    unsigned threads() const { return threads_; }

    /**
     * Enqueues a request. The future resolves when the worker has
     * executed it; when the queue is at capacity the future is already
     * resolved with an ok=false "queue full" rejection (the admission
     * control — a client sees the rejection immediately instead of
     * waiting behind work that will miss its deadline anyway).
     *
     * `artifacts`, when given, must outlive the request: the worker
     * starts/stops its live threads around the search, routes the
     * convergence recorder into the SearchContext, and registers its
     * best-effort flush with the SignalBridge for the duration.
     */
    std::future<MappingResponse> submit(MappingRequest req,
                                        ArtifactSet *artifacts = nullptr);

    /** submit() and wait. The CLI's one-request-per-process path. */
    MappingResponse execute(const MappingRequest &req,
                            ArtifactSet *artifacts = nullptr);

    /** Pending requests (the queue the admission control bounds). */
    std::size_t queueDepth() const;

    SessionCounters counters() const;

    /**
     * The health/metrics scrape document: session counters, queue
     * state, warm-start store size, the engine stats, and the process
     * metrics registry. One JSON object.
     */
    std::string healthJson() const;

  private:
    struct Pending
    {
        MappingRequest req;
        ArtifactSet *artifacts = nullptr;
        std::promise<MappingResponse> promise;
    };

    void workerLoop();
    MappingResponse executeNow(const MappingRequest &req,
                               ArtifactSet *artifacts);
    MappingResponse dispatch(const MappingRequest &req,
                             ArtifactSet *artifacts);
    void runMap(const MappingRequest &req, ArtifactSet *artifacts,
                MappingResponse &resp);
    void runNet(const MappingRequest &req, ArtifactSet *artifacts,
                MappingResponse &resp);
    void runEval(const MappingRequest &req, MappingResponse &resp);
    void runCheck(const MappingRequest &req, MappingResponse &resp);
    void runHealth(MappingResponse &resp);

    SearchContext makeContext(const MappingRequest &req,
                              obs::ConvergenceRecorder *convergence);

    /** Whether the result cache may serve/store this request. */
    static bool cacheable(const MappingRequest &req);
    /** The cache key: canonical request JSON with the id cleared. */
    static std::string cacheKey(const MappingRequest &req);

    SessionOptions opts_;
    unsigned threads_ = 0;
    std::unique_ptr<EvalEngine> engine_;
    CancellationSource cancel_;

    WarmStartStore warmStore_;

    mutable std::mutex mtx_;
    std::condition_variable cv_;
    std::deque<Pending> queue_;
    bool stopping_ = false;
    SessionCounters counters_;
    std::unordered_map<std::string, MappingResponse> resultCache_;

    std::thread worker_;
};

} // namespace service
} // namespace sunstone

#endif // SUNSTONE_SERVICE_SESSION_HH
