#include "search/search_driver.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace sunstone {

namespace {

/**
 * Candidates pulled per driver iteration. Fixed (never derived from the
 * thread count): batch boundaries decide when deadlines/cancellation
 * are polled and when checkpoints are written, and per-item streak
 * logic is serial anyway, so outcomes stay thread-count independent.
 */
constexpr std::size_t kBatchSize = 128;

/** Minimum seconds between periodic checkpoint writes. */
constexpr double kCheckpointIntervalSeconds = 0.25;

} // anonymous namespace

// ---------------------------------------------------------------------
// CandidateStream
// ---------------------------------------------------------------------

void
CandidateStream::skip(std::int64_t n)
{
    std::vector<Mapping> scratch;
    while (n > 0) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::int64_t>(n, 256));
        const bool more = nextBatch(want, scratch);
        if (scratch.empty())
            return;
        n -= static_cast<std::int64_t>(scratch.size());
        if (!more)
            return;
    }
}

// ---------------------------------------------------------------------
// GeneratorStream
// ---------------------------------------------------------------------

GeneratorStream::GeneratorStream(Producer producer,
                                 std::size_t queue_capacity)
    : producer_(std::move(producer)),
      cap_(std::max<std::size_t>(1, queue_capacity))
{
}

GeneratorStream::~GeneratorStream()
{
    {
        std::lock_guard<std::mutex> lk(mtx_);
        stopRequested_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable())
        worker_.join();
}

void
GeneratorStream::ensureStarted()
{
    if (started_)
        return;
    started_ = true;
    worker_ = std::thread([this] {
        const Sink sink = [this](Mapping &&m) {
            std::unique_lock<std::mutex> lk(mtx_);
            cv_.wait(lk, [this] {
                return queue_.size() < cap_ || stopRequested_;
            });
            if (stopRequested_)
                return false;
            queue_.push_back(std::move(m));
            lk.unlock();
            cv_.notify_all();
            return true;
        };
        producer_(sink);
        {
            std::lock_guard<std::mutex> lk(mtx_);
            done_ = true;
        }
        cv_.notify_all();
    });
}

bool
GeneratorStream::nextBatch(std::size_t max, std::vector<Mapping> &out)
{
    ensureStarted();
    std::unique_lock<std::mutex> lk(mtx_);
    cv_.wait(lk, [this] { return !queue_.empty() || done_; });
    out.resize(std::min(max, queue_.size()));
    for (Mapping &slot : out) {
        slot = std::move(queue_.front());
        queue_.pop_front();
    }
    const bool exhausted = done_ && queue_.empty();
    lk.unlock();
    cv_.notify_all(); // wake the producer: queue has room again
    return !exhausted;
}

// ---------------------------------------------------------------------
// SearchDriver
// ---------------------------------------------------------------------

SearchDriver::SearchDriver(SearchContext &sc, EvalEngine &engine,
                           const BoundArch &ba, std::string label,
                           bool optimize_edp)
    : sc_(sc), engine_(engine), evalCtx_(engine.context(ba)),
      label_(std::move(label)), optimizeEdp_(optimize_edp)
{
    if (sc_.convergence())
        traj_ = &sc_.convergence()->start(label_);
    const StopPolicy &pol = sc_.policy();
    status_ = &obs::progressBoard().open(label_, pol.maxEvals,
                                         pol.deadlineSeconds, pol.plateau);
    obs::flightRecorder().record("search.started", label_);
}

double
SearchDriver::metricOf(const CostResult &cr) const
{
    if (!cr.valid)
        return std::numeric_limits<double>::infinity();
    return optimizeEdp_ ? cr.edp : cr.totalEnergyPj;
}

bool
SearchDriver::latchReason(StopReason r)
{
    int expected = static_cast<int>(StopReason::None);
    reason_.compare_exchange_strong(expected, static_cast<int>(r),
                                    std::memory_order_relaxed);
    return true;
}

bool
SearchDriver::shouldStop(std::int64_t pending)
{
    if (reason() != StopReason::None)
        return true;
    const StopPolicy &pol = sc_.policy();
    if (pol.cancel && pol.cancel->load(std::memory_order_relaxed))
        return latchReason(StopReason::Cancelled);
    // A negative deadline is already expired (see StopPolicy).
    if (pol.deadlineSeconds != 0 && seconds() >= pol.deadlineSeconds)
        return latchReason(StopReason::Deadline);
    if (sc_.hardDeadline() &&
        std::chrono::steady_clock::now() >= *sc_.hardDeadline())
        return latchReason(StopReason::Deadline);
    if (pol.maxEvals > 0 && evaluated() + pending >= pol.maxEvals)
        return latchReason(StopReason::MaxEvals);
    return false;
}

bool
SearchDriver::offer(const Mapping &m, const CostResult &cr)
{
    if (!cr.valid) {
        if (firstInvalidReason_.empty())
            firstInvalidReason_ = cr.invalidReason;
        return false;
    }
    const double met = metricOf(cr);
    if (!found_ || met < bestMetric_) {
        found_ = true;
        bestMetric_ = met;
        bestMapping_ = m;
        bestCost_ = cr;
        if (traj_)
            traj_->record(evaluated(), cr.totalEnergyPj, cr.edp, met);
        status_->noteImprovement(met);
        obs::flightRecorder().record(
            "incumbent.improved",
            label_ + " metric=" + std::to_string(met) +
                " evals=" + std::to_string(evaluated()));
        return true;
    }
    return false;
}

std::string
SearchDriver::consumeResumePayload()
{
    std::optional<SearchCheckpoint> ck = sc_.takeResume();
    if (!ck)
        return "";
    if (ck->search != label_)
        SUNSTONE_FATAL("checkpoint was written by search '", ck->search,
                       "', cannot resume '", label_, "' from it");
    if (ck->workloadFingerprint != evalCtx_.fingerprint())
        SUNSTONE_FATAL("checkpoint fingerprint ",
                       ck->workloadFingerprint, " does not match this "
                       "workload/architecture (", evalCtx_.fingerprint(),
                       ") — it was taken for a different problem");
    if (sc_.hasSeed() && sc_.seed() != ck->seed)
        SUNSTONE_FATAL("checkpoint seed ", ck->seed,
                       " differs from the requested seed ", sc_.seed());
    sc_.setSeed(ck->seed);
    sc_.restoreRngStates(ck->rngStates);
    evaluated_.store(ck->evaluated, std::memory_order_relaxed);
    plateauLength_ = ck->plateauLength;
    invalidStreak_ = ck->invalidStreak;
    consumed_ = ck->consumed >= 0 ? ck->consumed : ck->evaluated;
    baseSeconds_ = ck->seconds;
    if (ck->found) {
        found_ = true;
        bestMetric_ = ck->bestMetric;
        bestMapping_ = ck->bestMapping;
        // Rebuild the full cost record; deterministic, and the extra
        // engine evaluation is not counted in the driver's counters.
        bestCost_ = engine_.evaluate(evalCtx_, bestMapping_);
    }
    return ck->streamState.empty() ? "{}" : ck->streamState;
}

void
SearchDriver::checkpointNow(const std::string &payload)
{
    if (sc_.checkpointPath().empty())
        return;
    lastCheckpointSeconds_ = seconds();
    writeCheckpoint(payload);
}

void
SearchDriver::maybeCheckpoint(const CandidateStream *stream, bool force)
{
    if (sc_.checkpointPath().empty())
        return;
    const double now = seconds();
    if (!force && lastCheckpointSeconds_ >= 0 &&
        now - lastCheckpointSeconds_ < kCheckpointIntervalSeconds)
        return;
    lastCheckpointSeconds_ = now;
    writeCheckpoint(stream ? stream->saveState() : "{}");
}

void
SearchDriver::writeCheckpoint(const std::string &payload)
{
    SearchCheckpoint ck;
    ck.search = label_;
    ck.workloadFingerprint = evalCtx_.fingerprint();
    ck.seed = sc_.seed();
    ck.rngStates = sc_.rngStates();
    ck.stopReason = stopReasonName(reason());
    ck.evaluated = evaluated();
    ck.plateauLength = plateauLength_;
    ck.invalidStreak = invalidStreak_;
    // Manual-mode searches do not pull from a stream, so their consumed
    // position is by definition the evaluation count (and the field is
    // then omitted from the JSON, keeping legacy byte layout).
    ck.consumed = streamMode_ ? consumed_ : evaluated();
    ck.seconds = seconds();
    ck.found = found_;
    ck.bestMetric = bestMetric_;
    if (found_)
        ck.bestMapping = bestMapping_;
    ck.streamState = payload.empty() ? "{}" : payload;
    if (!ck.save(sc_.checkpointPath()))
        SUNSTONE_WARN("failed to write checkpoint '",
                      sc_.checkpointPath(), "'");
    else
        obs::flightRecorder().record(
            "checkpoint.written",
            label_ + " evals=" + std::to_string(ck.evaluated) + " -> " +
                sc_.checkpointPath());
}

DriverOutcome
SearchDriver::run(CandidateStream &stream)
{
    SUNSTONE_TRACE_SPAN("search.drive." + label_);
    streamMode_ = true;

    const std::string payload = consumeResumePayload();
    if (!payload.empty()) {
        switch (stream.resumeMode()) {
        case CandidateStream::ResumeMode::State:
            if (!stream.restoreState(payload))
                SUNSTONE_FATAL("malformed '", label_,
                               "' checkpoint stream payload");
            break;
        case CandidateStream::ResumeMode::Replay:
            // consumed_, not evaluated(): warm-start seeds were
            // evaluated outside the stream.
            stream.skip(consumed_);
            break;
        case CandidateStream::ResumeMode::RngCursor:
            break;
        }
    } else {
        seedWarmStarts();
    }

    const StopPolicy &pol = sc_.policy();
    // One set of batch slots for the whole search: streams overwrite
    // them in place, so steady-state generation allocates nothing.
    std::vector<Mapping> batch;
    std::vector<CostResult> results;
    bool midBatchStop = false;

    while (true) {
        if (shouldStop())
            break;
        std::size_t room = kBatchSize;
        if (pol.maxEvals > 0) {
            const std::int64_t left = pol.maxEvals - evaluated();
            if (left <= 0) {
                latchReason(StopReason::MaxEvals);
                break;
            }
            room = std::min(room, static_cast<std::size_t>(left));
        }
        const bool more = stream.nextBatch(room, batch);
        if (batch.empty())
            break; // exhausted
        consumed_ += static_cast<std::int64_t>(batch.size());

        engine_.evaluateBatch(evalCtx_, batch, stream.costOptions(),
                              stream.cachePolicy(), results);
        // Serial, in-order consumption: this loop is the only place
        // stream-mode incumbent/streak state advances, which is what
        // makes results independent of the evaluation thread count.
        for (std::size_t i = 0; i < batch.size() && !midBatchStop; ++i) {
            noteEvaluated(1);
            stream.onResult(i, batch[i], results[i]);
            midBatchStop = consume(batch[i], results[i]);
        }
        if (midBatchStop)
            break;
        if (pol.maxEvals > 0 && evaluated() >= pol.maxEvals) {
            latchReason(StopReason::MaxEvals);
            break;
        }
        maybeCheckpoint(&stream, false);
        if (!more)
            break; // exhausted
    }

    // A final checkpoint is only consistent when everything the stream
    // generated was consumed; mid-batch stops (plateau/invalid streak)
    // are terminal, so we keep the last boundary snapshot instead.
    if (!midBatchStop)
        maybeCheckpoint(&stream, true);

    return finish(StopReason::Exhausted);
}

bool
SearchDriver::consume(const Mapping &m, const CostResult &cr)
{
    const StopPolicy &pol = sc_.policy();
    if (!cr.valid) {
        if (firstInvalidReason_.empty())
            firstInvalidReason_ = cr.invalidReason;
        ++invalidStreak_;
        return pol.maxConsecutiveInvalid > 0 &&
               invalidStreak_ >= pol.maxConsecutiveInvalid &&
               latchReason(StopReason::InvalidStreak);
    }
    invalidStreak_ = 0;
    if (offer(m, cr)) {
        plateauLength_ = 0;
        status_->notePlateau(0);
        return false;
    }
    ++plateauLength_;
    status_->notePlateau(plateauLength_);
    return pol.plateau > 0 && plateauLength_ >= pol.plateau &&
           latchReason(StopReason::Plateau);
}

void
SearchDriver::seedWarmStarts()
{
    const std::vector<Mapping> &seeds = sc_.warmStarts();
    if (seeds.empty())
        return;
    obs::MetricsRegistry &reg = obs::metrics();
    for (const Mapping &m : seeds) {
        if (shouldStop())
            break;
        const CostResult cr = engine_.evaluate(evalCtx_, m);
        noteEvaluated(1);
        reg.counter("search." + label_ + ".warmstart.seeds").add(1);
        obs::flightRecorder().record(
            "warmstart.seeded",
            label_ + (cr.valid ? " valid" : " invalid"));
        if (cr.valid && offer(m, cr))
            reg.counter("search." + label_ + ".warmstart.hits").add(1);
    }
}

DriverOutcome
SearchDriver::finish(StopReason natural)
{
    if (!finished_) {
        finished_ = true;
        latchReason(natural);
        if (traj_ && found_)
            traj_->record(evaluated(), bestCost_.totalEnergyPj,
                          bestCost_.edp, bestMetric_);
        status_->finish(stopReasonName(reason()));
        obs::flightRecorder().record(
            "search.finished",
            label_ + " reason=" + stopReasonName(reason()) +
                " evals=" + std::to_string(evaluated()));
        obs::MetricsRegistry &reg = obs::metrics();
        reg.counter("search." + label_ + ".stop." +
                    stopReasonName(reason()))
            .add(1);
        reg.gauge("search." + label_ + ".rng_shards")
            .set(static_cast<double>(sc_.rngStates().size()));
    }
    DriverOutcome o;
    o.found = found_;
    o.best = bestMapping_;
    o.bestCost = bestCost_;
    o.bestMetric = bestMetric_;
    o.evaluated = evaluated();
    o.seconds = seconds();
    o.reason = reason();
    o.firstInvalidReason = firstInvalidReason_;
    return o;
}

} // namespace sunstone
